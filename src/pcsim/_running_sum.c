/* One trial of the icc/bicc Monte Carlo adversary, fused into one pass.
 *
 * For C-contiguous steps x n arrays, writes e = cumsum(sent * missed,
 * axis 0) and adds it to sum_e, with numpy's operations in numpy's
 * order: t = sent * (double)missed, e[0] = t[0], e[k] = e[k-1] + t[k],
 * then sum_e += e.  Built with -ffp-contract=off, so that no multiply
 * and add are fused into one operation that rounds differently.
 */
#include <stddef.h>

void running_sum(const double *restrict sent, const unsigned char *restrict missed,
                 ptrdiff_t steps, ptrdiff_t n, double *restrict e, double *restrict sum_e)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        e[i] = sent[i] * (double)missed[i];
        sum_e[i] += e[i];
    }
    for (ptrdiff_t at = n; at < steps * n; at++) {
        e[at] = e[at - n] + sent[at] * (double)missed[at];
        sum_e[at] += e[at];
    }
}

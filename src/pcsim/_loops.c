/* The package's compiled loops, built into one library at first use.
 *
 * Each does numpy's operations in numpy's order, so it writes numpy's
 * bytes.  Built with -ffp-contract=off, so that no multiply and add are
 * fused into one operation that rounds differently.
 */
#include <math.h>
#include <stddef.h>

/* One trial of the icc/bicc Monte Carlo adversary, fused into one pass.
 *
 * For C-contiguous steps x n arrays, writes e = cumsum(sent * missed,
 * axis 0) and adds it to sum_e: t = sent * (double)missed, e[0] = t[0],
 * e[k] = e[k-1] + t[k], then sum_e += e.
 */
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

/* Bicc steps k = lo..hi-1 of the lean step, as protocols._step_block
 * with quantizer.cell_kernel takes them.
 *
 * xs and sent are C-contiguous (K+1) x n arrays; step k reads their row
 * k and writes row k+1, and writes its float cells into row k - lo of
 * cells.  The edges are in (receiver, sender) order.  Per step:
 *   xi = bincount(dst, gain * (x[src] - x[dst])): zeros, then each
 *        edge's term added in edge order (accumulated in sent row k+1);
 *   alpha = prev - beta/2.0 and delta = beta / 2^bits;
 *   cell = floor((xi - alpha) / delta), clamped to [0, 2^bits - 1] by
 *        comparisons, which leave a NaN cell NaN as np.maximum and
 *        np.minimum do (fmax and fmin would drop it and hide the NaN
 *        from the block check);
 *   v = cell * delta, then v += delta/2, then v += alpha (decode_kernel);
 *   x(k+1) = x(k) + v, and v goes to sent row k+1.
 */
void bicc_steps(const ptrdiff_t *restrict src, const ptrdiff_t *restrict dst,
                const double *restrict gain, ptrdiff_t edges, ptrdiff_t n,
                const double *restrict betas, int bits, ptrdiff_t lo, ptrdiff_t hi,
                double *restrict xs, double *restrict sent, double *restrict cells)
{
    const double scale = ldexp(1.0, bits), top = scale - 1.0;
    for (ptrdiff_t k = lo; k < hi; k++) {
        const double *x = xs + k * n, *prev = sent + k * n;
        double *next = xs + (k + 1) * n, *v = sent + (k + 1) * n, *cell = cells + (k - lo) * n;
        const double beta = betas[k + 1], delta = beta / scale;
        for (ptrdiff_t i = 0; i < n; i++)
            v[i] = 0.0;
        for (ptrdiff_t j = 0; j < edges; j++)
            v[dst[j]] += gain[j] * (x[src[j]] - x[dst[j]]);
        for (ptrdiff_t i = 0; i < n; i++) {
            const double alpha = prev[i] - beta / 2.0;
            double c = floor((v[i] - alpha) / delta);
            if (c < 0.0)
                c = 0.0;
            if (c > top)
                c = top;
            cell[i] = c;
            double q = c * delta;
            q += delta / 2;
            q += alpha;
            v[i] = q;
            next[i] = x[i] + q;
        }
    }
}

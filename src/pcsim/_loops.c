/* The package's compiled loops, built into one library at first use.
 *
 * Each does the floating-point operations of its numpy loop in that
 * loop's order, so it writes the numpy loop's bytes.  Built with
 * -ffp-contract=off, so that no multiply and add are fused into one
 * operation that rounds differently.  The two Monte Carlo trials sum
 * ||e(k)||^2 in the one fixed order of sq_norm, which
 * adversary._sq_norms also follows.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* ||e||^2 of one row of n entries, in numpy's einsum("kn,kn->k") order
 * at its X86_V2 baseline (two SSE2 lanes, no FMA), so that each
 * multiply and each add rounds on its own as there.  Lane l = 0, 1
 * starts at 0.0; each full group of 8 entries from j adds
 *   acc_l = e[j+l]^2 + (e[j+2+l]^2 + (e[j+4+l]^2 + (e[j+6+l]^2 + acc_l))),
 * the rest go in pairs, acc_l = e[j+l]^2 + acc_l (a missing second
 * entry adds nothing), and the norm is acc_0 + acc_1.  A NaN norm is
 * returned as NAN, numpy's np.nan: which NaN an add keeps when both
 * operands are NaN is up to the compiler here, and up to numpy's build
 * there.
 */
static double sq_norm(const double *restrict e, ptrdiff_t n)
{
    double acc0 = 0.0, acc1 = 0.0;
    ptrdiff_t j = 0;
    for (; j + 8 <= n; j += 8) {
        acc0 = e[j] * e[j] + (e[j + 2] * e[j + 2] + (e[j + 4] * e[j + 4]
                                                     + (e[j + 6] * e[j + 6] + acc0)));
        acc1 = e[j + 1] * e[j + 1] + (e[j + 3] * e[j + 3] + (e[j + 5] * e[j + 5]
                                                             + (e[j + 7] * e[j + 7] + acc1)));
    }
    for (; j + 2 <= n; j += 2) {
        acc0 = e[j] * e[j] + acc0;
        acc1 = e[j + 1] * e[j + 1] + acc1;
    }
    if (j < n)
        acc0 = e[j] * e[j] + acc0;
    const double q = acc0 + acc1;
    return isnan(q) ? NAN : q;
}

/* Adds one trial's error row e (n entries) to its step's sums: e to
 * sum_e, q = ||e||^2 to *sum_q and q*q to *sumsq_q. */
static void add_row(const double *restrict e, ptrdiff_t n, double *restrict sum_e,
                    double *restrict sum_q, double *restrict sumsq_q)
{
    for (ptrdiff_t i = 0; i < n; i++)
        sum_e[i] += e[i];
    const double q = sq_norm(e, n);
    *sum_q += q;
    *sumsq_q += q * q;
}

/* One trial of the icc/bicc Monte Carlo adversary, in one pass over
 * the steps.
 *
 * sent and missed are C-contiguous steps x n arrays, as are sum_e and
 * its steps-long companions sum_q and sumsq_q; e is an n-entry work
 * row.  Step k forms the error row e(k) = e(k-1) + sent(k) * missed(k)
 * (e(0) = sent(0) * missed(0)), as numpy's cumsum(sent * missed,
 * axis 0) does, and adds it and its norm to the sums (add_row).
 */
void innovation_trial(const double *restrict sent, const unsigned char *restrict missed,
                      ptrdiff_t steps, ptrdiff_t n, double *restrict e, double *restrict sum_e,
                      double *restrict sum_q, double *restrict sumsq_q)
{
    for (ptrdiff_t k = 0; k < steps; k++) {
        const double *s = sent + k * n;
        const unsigned char *m = missed + k * n;
        if (k == 0)
            for (ptrdiff_t i = 0; i < n; i++)
                e[i] = s[i] * (double)m[i];
        else
            for (ptrdiff_t i = 0; i < n; i++)
                e[i] = e[i] + s[i] * (double)m[i];
        add_row(e, n, sum_e + k * n, sum_q + k, sumsq_q + k);
    }
}

/* One trial of the classical (hold-last) Monte Carlo adversary, in one
 * pass over the steps.
 *
 * x, sent and missed are C-contiguous steps x n arrays, sum_e, sum_q
 * and sumsq_q as for innovation_trial; held and e are n-entry work
 * rows.  held starts at 0.0; step k takes held_i = sent_i(k) wherever
 * agent i was intercepted, forms e(k) = x(k) - held, as numpy's
 * x - take(...) does, and adds it and its norm to the sums (add_row).
 * The take is a bitwise select on the miss flag, not a branch: the
 * flags are random, so a branch would mispredict often (half the time
 * at gamma = 1/2).
 */
void hold_trial(const double *restrict x, const double *restrict sent,
                const unsigned char *restrict missed, ptrdiff_t steps, ptrdiff_t n,
                double *restrict held, double *restrict e, double *restrict sum_e,
                double *restrict sum_q, double *restrict sumsq_q)
{
    for (ptrdiff_t i = 0; i < n; i++)
        held[i] = 0.0;
    for (ptrdiff_t k = 0; k < steps; k++) {
        const double *s = sent + k * n, *now = x + k * n;
        const unsigned char *m = missed + k * n;
        for (ptrdiff_t i = 0; i < n; i++) {
            const uint64_t keep = (uint64_t)0 - m[i];  /* all ones where missed */
            uint64_t was, got;
            memcpy(&was, &held[i], sizeof was);
            memcpy(&got, &s[i], sizeof got);
            was = (was & keep) | (got & ~keep);
            memcpy(&held[i], &was, sizeof was);
            e[i] = now[i] - held[i];
        }
        add_row(e, n, sum_e + k * n, sum_q + k, sumsq_q + k);
    }
}

/* Bicc steps k = lo..hi-1, as protocols._step_block takes them.
 *
 * xs and sent are C-contiguous (K+1) x n arrays; step k reads their row
 * k and writes row k+1, writes its float codes into row k - lo of codes
 * and its saturation flags into row k+1 of saturated (K+1 x n).  The
 * edges are in (receiver, sender) order.  Per step:
 *   xi = bincount(dst, gain * (x[src] - x[dst])): zeros, then each
 *        edge's term added in edge order (accumulated in sent row k+1);
 *   alpha = prev - beta/2.0 and delta = beta / 2^bits;
 *   code = floor((xi - alpha) / delta), clamped to [0, 2^bits - 1] by
 *        comparisons, which leave a NaN code NaN as np.maximum and
 *        np.minimum do (fmax and fmin would drop it and hide the NaN
 *        from the block's code check), then set to 0 where xi <= alpha
 *        and then to the top code where xi >= alpha + beta
 *        (quantizer.encode_kernel, its int cast aside);
 *   saturated = xi < alpha or xi > alpha + beta;
 *   v = code * delta, then v += delta/2, then v += alpha (decode_kernel);
 *   x(k+1) = x(k) + v, and v goes to sent row k+1.
 */
void bicc_steps(const ptrdiff_t *restrict src, const ptrdiff_t *restrict dst,
                const double *restrict gain, ptrdiff_t edges, ptrdiff_t n,
                const double *restrict betas, int bits, ptrdiff_t lo, ptrdiff_t hi,
                double *restrict xs, double *restrict sent, double *restrict codes,
                unsigned char *restrict saturated)
{
    const double scale = ldexp(1.0, bits), top = scale - 1.0;
    for (ptrdiff_t k = lo; k < hi; k++) {
        const double *x = xs + k * n, *prev = sent + k * n;
        double *next = xs + (k + 1) * n, *v = sent + (k + 1) * n, *code = codes + (k - lo) * n;
        unsigned char *sat = saturated + (k + 1) * n;
        const double beta = betas[k + 1], delta = beta / scale;
        for (ptrdiff_t i = 0; i < n; i++)
            v[i] = 0.0;
        for (ptrdiff_t j = 0; j < edges; j++)
            v[dst[j]] += gain[j] * (x[src[j]] - x[dst[j]]);
        for (ptrdiff_t i = 0; i < n; i++) {
            const double xi = v[i], alpha = prev[i] - beta / 2.0, end = alpha + beta;
            double c = floor((xi - alpha) / delta);
            if (c < 0.0)
                c = 0.0;
            if (c > top)
                c = top;
            if (xi <= alpha)
                c = 0.0;
            if (xi >= end)
                c = top;
            code[i] = c;
            sat[i] = xi < alpha || xi > end;
            double q = c * delta;
            q += delta / 2;
            q += alpha;
            v[i] = q;
            next[i] = x[i] + q;
        }
    }
}

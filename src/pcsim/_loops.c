/* The package's compiled loops, built into one library at first use.
 *
 * Each does the floating-point operations of its numpy loop in that
 * loop's order, so it writes the numpy loop's bytes; csv_rows writes
 * the bytes of harness._csv_lines' Python writer.  Built with
 * -ffp-contract=off, so that no multiply and add are fused into one
 * operation that rounds differently.  The Monte Carlo block, mc_block,
 * draws each trial's interceptions from its Philox key and runs a block
 * of up to 64 trials of either adversary step by step, one trial per
 * SIMD lane; each lane does its own trial's operations in the order of
 * the numpy twin's trial and sums ||e(k)||^2 in the one fixed order of
 * sq_norms, which adversary._sq_norms also follows.  state_steps and
 * bicc_steps step the classical and icc states and the bicc states,
 * adding each edge's term in edge order as numpy's bincount does
 * (innovations).  moment_rows steps the closed-form moments of either
 * adversary, and sums tr Sigma(k) in the order of numpy's sum(axis=1).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#define LANES 64 /* trials per block, adversary._BLOCK */
#define TILE 32  /* steps drawn at a time: TILE * n bytes are whole 32-byte Philox blocks */

/* The Monte Carlo block is built three times, for x86-64-v4 (AVX-512),
 * for x86-64-v3 (AVX2) and for the baseline, and the loader picks one
 * for the CPU it runs on (GNU ifunc); the library is cached per
 * platform, not per CPU, so no global -march is used.  The v4 body
 * needs GCC 12+, the v3 body GCC 11+, on x86-64 glibc; elsewhere only
 * the baseline body is built.  The tests build the library with
 * PCSIM_NO_V4_CLONE defined (v3 and the baseline) and with
 * PCSIM_DEFAULT_CLONE (the baseline alone), to compare the three.  All
 * write the same bytes: the lanes only run the operations side by side. */
#if defined(PCSIM_DEFAULT_CLONE) || !defined(__x86_64__) || !defined(__ELF__) \
    || !defined(__GLIBC__) || defined(__clang__) || __GNUC__ < 11
#define CLONES
#elif defined(PCSIM_NO_V4_CLONE) || __GNUC__ < 12
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif

/* Inlined into each clone, so that it is built for the clone's CPU. */
#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* The low half of the 128-bit product a * b; the high half goes to *hi. */
INLINE uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    const unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    const uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    const uint64_t p01 = a0 * b1, p10 = a1 * b0;
    const uint64_t mid = (a0 * b0 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
#endif
}

/* Words 4c .. 4c+3 of numpy's Philox stream under key, as random_raw
 * draws them from a fresh np.random.Philox: Philox4x64-10 (Salmon,
 * Moraes, Dror & Shaw, SC'11) of the counter (c + 1, 0, 0, 0). */
INLINE void philox(uint64_t c, const uint64_t *restrict key, uint64_t *restrict out)
{
    uint64_t x0 = c + 1, x1 = 0, x2 = 0, x3 = 0, k0 = key[0], k1 = key[1];
    for (int round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        uint64_t hi0, hi1;
        const uint64_t lo0 = mulhilo(0xD2E7470EE14C6C93u, x0, &hi0);
        const uint64_t lo1 = mulhilo(0xCA5A826395121157u, x2, &hi1);
        x0 = hi1 ^ x1 ^ k0;
        x1 = lo1;
        x2 = hi0 ^ x3 ^ k1;
        x3 = lo0;
    }
    out[0] = x0;
    out[1] = x1;
    out[2] = x2;
    out[3] = x3;
}

/* 2^52 + b, exactly, for b < 2^52: a compare of such doubles is one
 * instruction at any SIMD level, where a 64-bit integer compare is not. */
INLINE double exact(uint64_t b)
{
    const uint64_t bits = 0x4330000000000000u | b;
    double d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

/* One trial's tie words, in the order its ties come: word `next` of its
 * stream, then the next, from the cached Philox block that holds it. */
struct ties {
    uint64_t next, block, words[4];
};

INLINE uint64_t tie_word(struct ties *tie, const uint64_t *restrict key)
{
    const uint64_t w = tie->next++;
    if (w / 4 != tie->block) {
        tie->block = w / 4;
        philox(tie->block, key, tie->words);
    }
    return tie->words[w % 4];
}

/* ||e||^2 of each trial lane of e (n rows of LANES) into q, in numpy's
 * einsum("kn,kn->k") order at its X86_V2 baseline (two SSE2 lanes, no
 * FMA), so that each multiply and each add rounds on its own as there.
 * Per trial, the two SSE2 lanes' sums acc_0 and acc_1 start at 0.0;
 * each full group of 8 entries from j adds, for l = 0, 1,
 *   acc_l = e[j+l]^2 + (e[j+2+l]^2 + (e[j+4+l]^2 + (e[j+6+l]^2 + acc_l))),
 * the rest go in pairs, acc_l = e[j+l]^2 + acc_l (a missing second
 * entry adds nothing), and the norm is acc_0 + acc_1.  A NaN norm is
 * written as NAN, numpy's np.nan: which NaN an add keeps when both
 * operands are NaN is up to the compiler here, and up to numpy's build
 * there.
 */
INLINE void sq_norms(const double *restrict e, ptrdiff_t n, double *restrict q)
{
    double acc0[LANES], acc1[LANES];
    for (int t = 0; t < LANES; t++)
        acc0[t] = acc1[t] = 0.0;
    ptrdiff_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const double *a = e + j * LANES;
        for (int t = 0; t < LANES; t++) {
            const double *r = a + t;
            acc0[t] = r[0] * r[0]
                      + (r[2 * LANES] * r[2 * LANES]
                         + (r[4 * LANES] * r[4 * LANES] + (r[6 * LANES] * r[6 * LANES] + acc0[t])));
            acc1[t] = r[LANES] * r[LANES]
                      + (r[3 * LANES] * r[3 * LANES]
                         + (r[5 * LANES] * r[5 * LANES] + (r[7 * LANES] * r[7 * LANES] + acc1[t])));
        }
    }
    for (; j + 2 <= n; j += 2) {
        const double *a = e + j * LANES;
        for (int t = 0; t < LANES; t++) {
            acc0[t] = a[t] * a[t] + acc0[t];
            acc1[t] = a[LANES + t] * a[LANES + t] + acc1[t];
        }
    }
    if (j < n) {
        const double *a = e + j * LANES;
        for (int t = 0; t < LANES; t++)
            acc0[t] = a[t] * a[t] + acc0[t];
    }
    for (int t = 0; t < LANES; t++) {
        const double s = acc0[t] + acc1[t];
        q[t] = isnan(s) ? NAN : s;
    }
}

/* One block of trials of either Monte Carlo adversary: the hold-last one
 * where hold is set, else the innovation one.  Inlined into mc_block
 * twice, with hold a constant 1 and 0, so that each adversary's body is
 * specialised and neither tests hold in its loops.
 *
 * Trial t < trials draws from keys[2t], keys[2t+1] the words of numpy's
 * np.random.Philox under that key (philox), as adversary._missed reads
 * them: the broadcast at (k, i) is missed where byte (k n + i) % 8,
 * little-endian, of word (k n + i) / 8 exceeds `top` (is at least `top`
 * when low is 0: T = top 2^45 + low, see adversary._miss_threshold);
 * where it equals `top` and low is not 0, a tie, the trial's next tie
 * word w, from word ceil(steps n / 8) on, decides: missed where
 * w >> 19 >= low.  The words of a tile of TILE steps are drawn first,
 * into words (4n x LANES, lane t holding trial t; lanes past the last
 * trial hold zeros, and their sums are never added).
 *
 * rows and sum_e are C-contiguous steps x n arrays, rows the broadcasts
 * sent or, for the hold-last adversary, the states x (a classical
 * trace's sent is its x), and sum_q, sumsq_q steps-long; held (the bits
 * of the held values, read by the hold-last adversary only) and e are
 * n x LANES work arrays, row i holding agent i of every trial.
 * missed(k) is 1.0 or 0.0, so sent(k) * missed(k) is numpy's product
 * with a bool.  Step k forms each trial's error row, as numpy's
 * cumsum(sent * missed, axis 0) does, e(0) = sent(0) * missed(0), then
 * e(k) = e(k-1) + sent(k) * missed(k): the multiply stays, so that
 * inf * 0.0 is NaN as there.  Or, for the hold-last adversary, held
 * starts at 0.0 and takes held_i = x_i(k) wherever agent i was
 * intercepted, by a bitwise select (the flags are random, so a branch
 * would mispredict often), and e(k) = x(k) - held, as numpy's
 * x - take(...) does.  Then each trial's e(k) is added to sum_e,
 * q = ||e(k)||^2 (sq_norms) to sum_q and q * q to sumsq_q, trial after
 * trial, as a loop over the trials would.  sum_e takes eight agents at a
 * time, in eight accumulators with the trial loop inside, and then the
 * agents left over one at a time; each entry still adds its trials in
 * trial order.
 */
INLINE void run_block(const uint64_t *restrict keys, ptrdiff_t trials, int hold,
                      const double *restrict rows, ptrdiff_t steps, ptrdiff_t n, int top,
                      uint64_t low, uint64_t *restrict words, uint64_t *restrict held,
                      double *restrict e, double *restrict sum_e, double *restrict sum_q,
                      double *restrict sumsq_q)
{
    /* missed where the draw's byte b exceeds top, or where b == top and
     * low is 0 (a tie is decided below when low is not 0; then top < 256) */
    const double cut = exact((uint64_t)top) - (low ? 0.0 : 1.0);
    const uint64_t bias = 255 - (uint64_t)top;
    struct ties ties[LANES];
    for (ptrdiff_t t = 0; t < trials; t++)
        ties[t] = (struct ties){.next = (uint64_t)(steps * n + 7) / 8, .block = UINT64_MAX};
    for (ptrdiff_t w = 0; w < 4 * n; w++) /* lanes with no trial draw zeros */
        for (ptrdiff_t t = trials; t < LANES; t++)
            words[w * LANES + t] = 0;
    if (hold)
        memset(held, 0, (size_t)n * LANES * sizeof *held);
    for (ptrdiff_t k0 = 0; k0 < steps; k0 += TILE) {
        const ptrdiff_t k1 = k0 + TILE < steps ? k0 + TILE : steps;
        /* the tile draws bytes k0 n .. k1 n - 1: Philox blocks first .. first + blocks - 1 */
        const uint64_t first = (uint64_t)(k0 * n) / 32;
        const uint64_t blocks = (uint64_t)((k1 - k0) * n + 31) / 32;
        for (ptrdiff_t t = 0; t < trials; t++)
            for (uint64_t b = 0; b < blocks; b++) {
                uint64_t out[4];
                philox(first + b, keys + 2 * t, out);
                for (int j = 0; j < 4; j++)
                    words[(4 * b + j) * LANES + t] = out[j];
            }
        for (ptrdiff_t k = k0; k < k1; k++) {
            for (ptrdiff_t i = 0; i < n; i++) {
                const ptrdiff_t at = (k - k0) * n + i;
                const uint64_t *w = words + at / 8 * LANES;
                const int shift = 8 * (int)(at % 8);
                const double s = rows[k * n + i];
                double *restrict ei = e + i * LANES;
                double m[LANES]; /* 1.0 where missed, else 0.0 */
                for (int t = 0; t < LANES; t++)
                    m[t] = exact(w[t] >> shift & 0xff) > cut ? 1.0 : 0.0;
                if (low) {
                    uint64_t tied = 0; /* b + bias reaches 255 but not 256 only where b == top */
                    for (int t = 0; t < LANES; t++) {
                        const uint64_t b = w[t] >> shift & 0xff;
                        tied |= ((b + bias) >> 8) ^ ((b + bias + 1) >> 8);
                    }
                    if (tied)
                        for (ptrdiff_t t = 0; t < trials; t++)
                            if ((int)(w[t] >> shift & 0xff) == top)
                                m[t] = tie_word(&ties[t], keys + 2 * t) >> 19 >= low ? 1.0 : 0.0;
                }
                if (hold) {
                    uint64_t got, *restrict hi = held + i * LANES;
                    memcpy(&got, &s, sizeof got);
                    for (int t = 0; t < LANES; t++) {
                        const uint64_t keep = m[t] != 0.0 ? UINT64_MAX : 0;
                        hi[t] = (hi[t] & keep) | (got & ~keep);
                        double h;
                        memcpy(&h, &hi[t], sizeof h);
                        ei[t] = s - h;
                    }
                } else if (k == 0) {
                    for (int t = 0; t < LANES; t++)
                        ei[t] = s * m[t];
                } else {
                    for (int t = 0; t < LANES; t++)
                        ei[t] = ei[t] + s * m[t];
                }
            }
            double q[LANES];
            sq_norms(e, n, q);
            double *restrict row = sum_e + k * n;
            ptrdiff_t i = 0;
            for (; i + 8 <= n; i += 8) {
                double acc[8];
                for (int g = 0; g < 8; g++)
                    acc[g] = row[i + g];
                for (ptrdiff_t t = 0; t < trials; t++)
                    for (int g = 0; g < 8; g++)
                        acc[g] += e[(i + g) * LANES + t];
                for (int g = 0; g < 8; g++)
                    row[i + g] = acc[g];
            }
            for (; i < n; i++) {
                double acc = row[i];
                for (ptrdiff_t t = 0; t < trials; t++)
                    acc += e[i * LANES + t];
                row[i] = acc;
            }
            double sq = sum_q[k], sqsq = sumsq_q[k];
            for (ptrdiff_t t = 0; t < trials; t++) {
                sq += q[t];
                sqsq += q[t] * q[t];
            }
            sum_q[k] = sq;
            sumsq_q[k] = sqsq;
        }
    }
}

/* One block of either Monte Carlo adversary (run_block) on moment_rows'
 * inputs, with the arguments and the operations of its numpy twin
 * adversary._numpy_mc_block; each body is built with hold a constant. */
CLONES void mc_block(const uint64_t *restrict keys, ptrdiff_t trials, int hold,
                     const double *restrict rows, ptrdiff_t steps, ptrdiff_t n, int top,
                     uint64_t low, uint64_t *restrict words, uint64_t *restrict held,
                     double *restrict e, double *restrict sum_e, double *restrict sum_q,
                     double *restrict sumsq_q)
{
    if (hold)
        run_block(keys, trials, 1, rows, steps, n, top, low, words, held, e, sum_e, sum_q, sumsq_q);
    else
        run_block(keys, trials, 0, rows, steps, n, top, low, words, held, e, sum_e, sum_q, sumsq_q);
}

/* xi = bincount(dst, gain * (x[src] - x[dst]), minlength=n) into v:
 * zeros, then each edge's term added in the order of the edge arrays
 * (ConsensusNetwork has checked that every agent is in 0..n-1). */
INLINE void innovations(const ptrdiff_t *restrict src, const ptrdiff_t *restrict dst,
                        const double *restrict gain, ptrdiff_t edges, ptrdiff_t n,
                        const double *restrict x, double *restrict v)
{
    for (ptrdiff_t i = 0; i < n; i++)
        v[i] = 0.0;
    for (ptrdiff_t j = 0; j < edges; j++)
        v[dst[j]] += gain[j] * (x[src[j]] - x[dst[j]]);
}

/* Classical or icc steps k = lo..hi-1, with the arguments and the
 * operations of their numpy twin, protocols._numpy_state_steps.
 *
 * xs is a C-contiguous (K+1) x n array, and so is sent where given (icc;
 * NULL for classical); step k reads row k of xs and writes row k+1:
 *   xi = bincount(dst, gain * (x[src] - x[dst])) (innovations),
 *        accumulated in sent row k+1 where sent is given, else in xs
 *        row k+1;
 *   x(k+1) = x(k) + xi.
 */
void state_steps(const ptrdiff_t *restrict src, const ptrdiff_t *restrict dst,
                 const double *restrict gain, ptrdiff_t edges, ptrdiff_t n, ptrdiff_t lo,
                 ptrdiff_t hi, double *restrict xs, double *restrict sent)
{
    for (ptrdiff_t k = lo; k < hi; k++) {
        const double *x = xs + k * n;
        double *next = xs + (k + 1) * n, *xi = sent ? sent + (k + 1) * n : next;
        innovations(src, dst, gain, edges, n, x, xi);
        for (ptrdiff_t i = 0; i < n; i++)
            next[i] = x[i] + xi[i];
    }
}

/* Bicc steps k = lo..hi-1, with the arguments and the operations of
 * its numpy twin, protocols._numpy_bicc_steps.
 *
 * xs and sent are C-contiguous (K+1) x n arrays; step k reads their row
 * k and writes row k+1, writes its saturation flags into row k+1 of
 * saturated (K+1 x n) and, where they are given (else NULL), its float
 * codes into row k - lo of codes and its xi, before quantization, into
 * row k - lo of xis.  Per step:
 *   xi = bincount(dst, gain * (x[src] - x[dst])) (innovations),
 *        accumulated in sent row k+1;
 *   alpha = prev - beta/2.0 and delta = beta / 2^bits;
 *   code = floor((xi - alpha) / delta), clamped to [0, 2^bits - 1] by
 *        comparisons, which leave a NaN code NaN as np.maximum and
 *        np.minimum do (fmax and fmin would drop it), then set to 0
 *        where xi <= alpha and then to the top code where xi >= alpha +
 *        beta (quantizer.encode_kernel, its int cast aside);
 *   saturated = xi < alpha or xi > alpha + beta;
 *   v = code * delta, then v += delta/2, then v += alpha (decode_kernel);
 *   x(k+1) = x(k) + v, and v goes to sent row k+1.
 */
void bicc_steps(const ptrdiff_t *restrict src, const ptrdiff_t *restrict dst,
                const double *restrict gain, ptrdiff_t edges, ptrdiff_t n,
                const double *restrict betas, int bits, ptrdiff_t lo, ptrdiff_t hi,
                double *restrict xs, double *restrict sent, double *restrict codes,
                unsigned char *restrict saturated, double *restrict xis)
{
    const double scale = ldexp(1.0, bits), top = scale - 1.0;
    for (ptrdiff_t k = lo; k < hi; k++) {
        const double *x = xs + k * n, *prev = sent + k * n;
        double *next = xs + (k + 1) * n, *v = sent + (k + 1) * n;
        unsigned char *sat = saturated + (k + 1) * n;
        const double beta = betas[k + 1], delta = beta / scale;
        innovations(src, dst, gain, edges, n, x, v);
        if (xis)
            memcpy(xis + (k - lo) * n, v, (size_t)n * sizeof *v);
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
            if (codes)
                codes[(k - lo) * n + i] = c;
            sat[i] = xi < alpha || xi > end;
            double q = c * delta;
            q += delta / 2;
            q += alpha;
            v[i] = q;
            next[i] = x[i] + q;
        }
    }
}

/* a[0] + .. + a[n-1] in the order of numpy's pairwise sum: in sequence
 * below 8 entries; up to 128 in 8 accumulators, folded in pairs, then
 * the rest in sequence; above 128 the two halves, split at n/2 rounded
 * down to a multiple of 8. */
static double pairwise(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = -0.0; /* numpy's start: a lone -0.0 keeps its sign */
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n > 128) {
        const ptrdiff_t half = n / 2 - n / 2 % 8;
        return pairwise(a, half) + pairwise(a + half, n - half);
    }
    double r[8];
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    ptrdiff_t i = 8;
    for (; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* Rows lo .. hi-1 of the closed-form moment recursion of either
 * adversary (adversary.closed_form_moments), with the arguments and the
 * operations of its numpy twin, adversary._numpy_moment_rows: the
 * hold-last one on the states x where hold is set, else the innovation
 * one on the broadcasts sent (rows, a C-contiguous steps x n array).
 * m and s, n-long, hold the per-agent mean E[e_i] and second moment
 * E[e_i^2] before row lo and are stepped in place; miss = 1-g,
 * sq = (1-g)^2 and keep = g(1-g) come as the caller computed them.
 * Per agent, with m the mean before the step:
 *   innovation: xi = sent(k), s <- (s + (sq (xi xi) + miss (m xi + m xi)))
 *               + (keep xi) xi, then m <- m + miss xi;
 *   hold-last:  d = x(k) - x(k-1) (x(-1) = 0), a = ((s + m d) + m d) + d d,
 *               s <- sq a + keep a, m <- miss (m + d).
 * Then tr[k] = 0.0 + the row's sum in numpy's sum(axis=1) order, row k
 * of mean (steps x n, where given) takes m, and the result is the least
 * of v_min and every s - m m of the rows, NaN once any is NaN.
 */
double moment_rows(const double *restrict rows, int hold, ptrdiff_t lo, ptrdiff_t hi,
                   ptrdiff_t n, double miss, double sq, double keep,
                   double *restrict m, double *restrict s, double *restrict tr,
                   double *restrict mean, double v_min)
{
    int nan = isnan(v_min);
    for (ptrdiff_t k = lo; k < hi; k++) {
        if (hold) {
            const double *now = rows + k * n;
            for (ptrdiff_t i = 0; i < n; i++) {
                const double d = now[i] - (k > 0 ? now[i - n] : 0.0), md = m[i] * d;
                const double a = ((s[i] + md) + md) + d * d;
                s[i] = sq * a + keep * a;
                m[i] = miss * (m[i] + d);
            }
        } else {
            const double *xi = rows + k * n;
            for (ptrdiff_t i = 0; i < n; i++) {
                const double mx = m[i] * xi[i];
                s[i] = (s[i] + (sq * (xi[i] * xi[i]) + miss * (mx + mx))) + keep * xi[i] * xi[i];
                m[i] = m[i] + miss * xi[i];
            }
        }
        tr[k] = 0.0 + pairwise(s, n);
        for (ptrdiff_t i = 0; i < n; i++) {
            const double v = s[i] - m[i] * m[i];
            nan |= isnan(v);
            v_min = v < v_min ? v : v_min;
        }
        if (mean)
            memcpy(mean + k * n, m, (size_t)n * sizeof *m);
    }
    return nan ? NAN : v_min;
}

/* 5^0 .. 5^27, the powers of five that fit in 64 bits */
static const uint64_t pow5[28] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u, 152587890625u, 762939453125u,
    3814697265625u, 19073486328125u, 95367431640625u, 476837158203125u, 2384185791015625u,
    11920928955078125u, 59604644775390625u, 298023223876953125u, 1490116119384765625u,
    7450580596923828125u};

/* floor(m 2^e 10^p) for m < 2^53 and 0 <= p <= 55, or UINT64_MAX where it
 * is 2^63 or more; *rest is -1, 0 or 1 as the fraction dropped is below,
 * at or above 1/2.  m 10^p 2^e = m 5^p 2^(e+p): m 5^p < 2^181 is exact
 * in 192 bits, and so is its shift by e + p. */
static uint64_t scaled(uint64_t m, int e, int p, int *rest)
{
    uint64_t w[5] = {0}; /* m 5^p, 64-bit limbs from the lowest, then zeros */
    if (p <= 27) {
        w[0] = mulhilo(m, pow5[p], &w[1]);
    } else { /* 5^p = 5^27 5^(p-27); 5^55 = 5^27 5^27 5, the 5 taken into m (< 2^56) */
        uint64_t f1, carry;
        const uint64_t f0 = mulhilo(pow5[27], pow5[p < 55 ? p - 27 : 27], &f1);
        const uint64_t m5 = p < 55 ? m : 5 * m;
        w[0] = mulhilo(m5, f0, &carry);
        w[1] = mulhilo(m5, f1, &w[2]) + carry;
        w[2] += w[1] < carry;
    }
    const int s = -(e + p); /* at most 182: m 2^e >= 1e-39 > 2^-130 */
    if (s <= 0) {           /* an integer: -s <= 59, as m 2^e < 1e17 < 2^57 */
        *rest = -1;
        return w[1] || w[2] || w[0] >> (63 + s) ? UINT64_MAX : w[0] << -s;
    }
    const int j = s / 64, b = s % 64; /* a shift by 64 would be undefined */
    const uint64_t q = b ? w[j] >> b | w[j + 1] << (64 - b) : w[j];
    if ((b ? w[j + 1] >> b : w[j + 1]) | w[j + 2] | q >> 63)
        return UINT64_MAX;
    const int h = (s - 1) / 64, c = (s - 1) % 64; /* the bit worth 1/2 */
    const uint64_t below = (w[h] & ((UINT64_C(1) << c) - 1)) | (h > 0 ? w[0] : 0)
                           | (h > 1 ? w[1] : 0);
    *rest = w[h] >> c & 1 ? below != 0 : -1;
    return q;
}

/* The 17 significant digits of finite a > 0 as %.17g rounds them (to
 * the nearest, ties to even), as an integer in [10^16, 10^17), and the
 * decimal exponent E of its first digit; 0 where E is outside
 * [-39, 16].  floor(k log10 2), for a in [2^k, 2^(k+1)), is E or E - 1;
 * the truncated digits then tell, exactly, which. */
static int digits17(double a, uint64_t *digits, int *exp10)
{
    const uint64_t lo = 10000000000000000u, hi = 100000000000000000u; /* 10^16, 10^17 */
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    const int k = (int)(bits >> 52) - 1023;
    const uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    for (int E = (int)floor(k * 0.30102999566398120); E >= -39 && E <= 16;) {
        int rest;
        uint64_t n = scaled(m, k - 52, 16 - E, &rest);
        if (n < lo) {
            E--;
        } else if (n >= hi) {
            E++;
        } else {
            n += rest > 0 || (rest == 0 && n & 1);
            *digits = n == hi ? lo : n;
            *exp10 = n == hi ? E + 1 : E;
            return 1;
        }
    }
    return 0;
}

/* x as Python's "%.17g" % x writes it, at p; the end.  NaN of either
 * sign is "nan" (glibc writes "-nan").  1e-39 <= |x| < 1e17 takes the
 * exact digits of digits17, laid out as %g lays them out: fixed
 * notation for exponents -4 .. 16, else d.ddde-XX, trailing zeros and a
 * bare point dropped; the rest (0, inf, subnormals and the few others)
 * goes to snprintf.  At most 24 bytes: -2.2250738585072014e-308. */
static char *put_float(char *p, double x)
{
    const double a = fabs(x);
    uint64_t n;
    int E;
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (!(a >= 1e-39 && a < 1e17 && digits17(a, &n, &E))) {
        char text[32];
        const int size = snprintf(text, sizeof text, "%.17g", x);
        memcpy(p, text, (size_t)size);
        return p + size;
    }
    char d[17];
    for (int i = 16; i >= 0; i--, n /= 10)
        d[i] = (char)('0' + n % 10);
    int len = 17;
    while (d[len - 1] == '0')
        len--;
    if (x < 0)
        *p++ = '-';
    if (E < 0 && E >= -4) {
        memcpy(p, "0.000", (size_t)(1 - E));
        memcpy(p + 1 - E, d, (size_t)len);
        return p + 1 - E + len;
    }
    const int whole = E < 0 ? 1 : E + 1; /* digits before the point */
    memcpy(p, d, (size_t)whole);
    p += whole;
    if (len > whole) {
        *p++ = '.';
        memcpy(p, d + whole, (size_t)(len - whole));
        p += len - whole;
    }
    if (E < 0) { /* -39 <= E < -4: two exponent digits */
        memcpy(p, "e-", 2);
        p[2] = (char)('0' - E / 10);
        p[3] = (char)('0' - E % 10);
        p += 4;
    }
    return p;
}

/* i as "%d" writes it, at p; the end.  At most 20 bytes. */
static char *put_int(char *p, int64_t i)
{
    char d[20];
    int len = 0;
    uint64_t u = i < 0 ? 0 - (uint64_t)i : (uint64_t)i;
    do
        d[len++] = (char)('0' + u % 10);
    while (u /= 10);
    if (i < 0)
        *p++ = '-';
    while (len)
        *p++ = d[--len];
    return p;
}

#define FIELDS 16 /* fields per row at most, after k and agent */

/* CSV rows (k, agent) of steps k0 .. k0 + steps - 1 and agents 1 .. n,
 * step after step, into out; the number of bytes written.
 *
 * Field f after k and agent is written from cols[f] by kinds[f]:
 * 0 blank; 1 the float64 of (step, agent), a C-contiguous steps x n
 * array (put_float); 2 its int64 ("%d"); 3 its bool ("1" or "0"); 4 the
 * float64 of the step, a steps-long array, formatted once per step.
 * Rows end in CRLF, as csv.writer ends them.  out must hold steps * n
 * rows of the longest k, the longest agent, 24 bytes per float and 20
 * per int64: harness._row_bytes.  At most FIELDS fields.
 */
ptrdiff_t csv_rows(ptrdiff_t k0, ptrdiff_t steps, ptrdiff_t n, ptrdiff_t fields,
                   const int *restrict kinds, const void *const *restrict cols,
                   char *restrict out)
{
    char *p = out;
    ptrdiff_t at[FIELDS], size[FIELDS]; /* where the step's fields are in its first row */
    for (ptrdiff_t k = 0; k < steps; k++)
        for (ptrdiff_t i = 0; i < n; i++) {
            p = put_int(p, k0 + k);
            *p++ = ',';
            p = put_int(p, i + 1);
            const ptrdiff_t cell = k * n + i;
            for (ptrdiff_t f = 0; f < fields; f++) {
                *p++ = ',';
                if (kinds[f] == 1) {
                    p = put_float(p, ((const double *)cols[f])[cell]);
                } else if (kinds[f] == 2) {
                    p = put_int(p, ((const int64_t *)cols[f])[cell]);
                } else if (kinds[f] == 3) {
                    *p++ = ((const unsigned char *)cols[f])[cell] ? '1' : '0';
                } else if (kinds[f] == 4 && i == 0) {
                    at[f] = p - out;
                    p = put_float(p, ((const double *)cols[f])[k]);
                    size[f] = p - out - at[f];
                } else if (kinds[f] == 4) {
                    memcpy(p, out + at[f], (size_t)size[f]);
                    p += size[f];
                }
            }
            *p++ = '\r';
            *p++ = '\n';
        }
    return p - out;
}

/* The package's compiled loops, built into one library at first use.
 *
 * Each does the floating-point operations of its numpy loop in that
 * loop's order, so it writes the numpy loop's bytes.  Built with
 * -ffp-contract=off, so that no multiply and add are fused into one
 * operation that rounds differently.  The two Monte Carlo blocks,
 * innovation_block and hold_block, draw each trial's interceptions from
 * its Philox key and run a block of up to 64 trials step by step, one
 * trial per SIMD lane; each lane does its own trial's operations in the
 * numpy loop's order and sums ||e(k)||^2 in the one fixed order of
 * sq_norms, which adversary._sq_norms also follows.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define LANES 64 /* trials per block, adversary._BLOCK */
#define TILE 32  /* steps drawn at a time: TILE * n bytes are whole 32-byte Philox blocks */

/* The Monte Carlo blocks are built twice, for x86-64-v3 (AVX2) and for
 * the baseline, and the loader picks one for the CPU it runs on (GNU
 * ifunc); the library is cached per platform, not per CPU, so no global
 * -march is used.  Where the compiler cannot (not GCC 11+ on x86-64
 * glibc), or PCSIM_DEFAULT_CLONE is defined (the tests build it so, to
 * compare the two), only the baseline body is built.  Both write the
 * same bytes: the lanes only run the operations side by side. */
#if !defined(PCSIM_DEFAULT_CLONE) && defined(__x86_64__) && defined(__ELF__) \
    && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 11
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONES
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
 * where x is given, else the innovation one.
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
 * sent, x, sum_e are C-contiguous steps x n arrays and sum_q, sumsq_q
 * steps-long; held (the bits of the held values) and e are n x LANES
 * work arrays, row i holding agent i of every trial.  missed(k) is 1.0
 * or 0.0, so sent(k) * missed(k) is numpy's product with a bool.  Step
 * k forms each trial's error row, as numpy's
 * cumsum(sent * missed, axis 0) does, e(0) = sent(0) * missed(0), then
 * e(k) = e(k-1) + sent(k) * missed(k): the multiply stays, so that
 * inf * 0.0 is NaN as there.  Or, for the hold-last adversary, held
 * starts at 0.0 and takes held_i = sent_i(k) wherever agent i was
 * intercepted, by a bitwise select (the flags are random, so a branch
 * would mispredict often), and e(k) = x(k) - held, as numpy's
 * x - take(...) does.  Then each trial's e(k) is added to sum_e,
 * q = ||e(k)||^2 (sq_norms) to sum_q and q * q to sumsq_q, trial after
 * trial, as a loop over the trials would.
 */
INLINE void run_block(const uint64_t *restrict keys, ptrdiff_t trials, const double *restrict x,
                      const double *restrict sent, ptrdiff_t steps, ptrdiff_t n, int top,
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
    if (x)
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
                const double s = sent[k * n + i];
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
                if (x) {
                    uint64_t got, *restrict hi = held + i * LANES;
                    memcpy(&got, &s, sizeof got);
                    const double now = x[k * n + i];
                    for (int t = 0; t < LANES; t++) {
                        const uint64_t keep = m[t] != 0.0 ? UINT64_MAX : 0;
                        hi[t] = (hi[t] & keep) | (got & ~keep);
                        double h;
                        memcpy(&h, &hi[t], sizeof h);
                        ei[t] = now - h;
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
            for (ptrdiff_t i = 0; i < n; i++) {
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

/* One block of the icc/bicc Monte Carlo adversary (run_block, no x). */
CLONES void innovation_block(const uint64_t *restrict keys, ptrdiff_t trials,
                             const double *restrict sent, ptrdiff_t steps, ptrdiff_t n, int top,
                             uint64_t low, uint64_t *restrict words, double *restrict e,
                             double *restrict sum_e, double *restrict sum_q,
                             double *restrict sumsq_q)
{
    run_block(keys, trials, NULL, sent, steps, n, top, low, words, NULL, e, sum_e, sum_q, sumsq_q);
}

/* One block of the classical (hold-last) Monte Carlo adversary (run_block). */
CLONES void hold_block(const uint64_t *restrict keys, ptrdiff_t trials, const double *restrict x,
                       const double *restrict sent, ptrdiff_t steps, ptrdiff_t n, int top,
                       uint64_t low, uint64_t *restrict words, uint64_t *restrict held,
                       double *restrict e, double *restrict sum_e, double *restrict sum_q,
                       double *restrict sumsq_q)
{
    run_block(keys, trials, x, sent, steps, n, top, low, words, held, e, sum_e, sum_q, sumsq_q);
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

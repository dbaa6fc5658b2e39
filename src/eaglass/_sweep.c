/* The transfer sweep of eaglass.solver: every row and column step of K
 * problems in one call, loaded with ctypes.
 *
 * A problem's frontier is a shift register of its row: bit 0 of each mask
 * is the current column's old spin, and a column step pops it and pushes the
 * new spin as bit W-1.  The vertical edge costs -J * old * new; with
 * jm = -J for a new spin down and +J for up, a = cur[2i] + jm is the old
 * spin down and d = cur[2i+1] - jm the old spin up.  The new entry is
 * np.minimum(a, d), ties (+-0.0 too) going to d and NaN propagating, and the
 * backpointer is 1 / 2 / 3 for old spin down, up, or a tie, 0 if NaN.  The
 * solver's pinned bits rest on exactly these IEEE operations, so the build
 * must not contract or reassociate them (no -ffast-math, -ffp-contract=off).
 */

#include <stddef.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

CLONES
static void step(const double *restrict cur, double *restrict nxt,
                 unsigned char *restrict bp, double j, size_t half)
{
    for (size_t i = 0; i < half; i++) {
        double x = cur[2 * i], y = cur[2 * i + 1];
        double a = x + -j, d = y - -j;      /* new spin down: jm = -J */
        bp[i] = (unsigned char)((a <= d) | (a >= d) << 1);
        nxt[i] = (a < d || a != a) ? a : d;
        a = x + j;                          /* new spin up: jm = +J */
        d = y - j;
        bp[half + i] = (unsigned char)((a <= d) | (a >= d) << 1);
        nxt[half + i] = (a < d || a != a) ? a : d;
    }
}

/* rowcost (k, h, 2^w): row costs of each problem, overwritten from row
 * start + 1 on by its frontier after that row, which is
 * rowcost[r + 1] = (frontier after the row's last step) + rowcost[r + 1];
 * rowcost[start] must hold the frontier after row start.  buf0 and buf1
 * (2^w each) take the column steps in turn.  backptr (h - 1, w, kcap, 2^w)
 * gets the code of problem p's step c of row r at [r, c, p], and that step
 * adds the vertical coupling vert[p, r, c] (vert is (k, h - 1, w)). */
void eaglass_sweep(int w, int h, int k, int kcap, int start,
                   double *rowcost, double *buf0, double *buf1,
                   unsigned char *backptr, const double *vert)
{
    size_t n = (size_t)1 << w;
    for (int p = 0; p < k; p++) {
        double *cost = rowcost + (size_t)p * h * n;
        const double *j = vert + (size_t)p * (h - 1) * w;
        for (int r = start; r < h - 1; r++) {
            const double *cur = cost + (size_t)r * n;
            for (int c = 0; c < w; c++) {
                double *nxt = c & 1 ? buf1 : buf0;
                step(cur, nxt, backptr + (((size_t)r * w + c) * kcap + p) * n,
                     j[r * w + c], n >> 1);
                cur = nxt;
            }
            double *row = cost + (size_t)(r + 1) * n;
            for (size_t i = 0; i < n; i++)
                row[i] = cur[i] + row[i];
        }
    }
}

/* The transfer sweep and traceback of eaglass.solver, loaded with ctypes.
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
 *
 * A row mask has bit c for column c, 1 for spin +1.  Its row cost is minus
 * the row's horizontal energy, summed edge by edge from 0.0 in edge order,
 * so its bits, too, rest on these operations alone and not on the
 * summation order of some CPU's BLAS kernel.  A forced sign enters as a
 * cell 2 * vertex + b: every row mask holding bit b at that vertex costs
 * inf.  The traceback walks the backpointers from the last row up, one
 * optimal configuration at a time, so it needs no buffer of all of them.
 *
 * With no field, a mask m and its flip ~m go through the same operations
 * (x - y is x + -y), so until a problem's first forced row its frontiers
 * are symmetric and the sweep keeps only their lower halves, the masks with
 * bit w-1 down: the half step is the full step's new-spin-down half, with
 * the entries of pairs beyond the stored half read as the mirrors of those
 * below.  Its entries are the full step's, up to the sign of a zero, which
 * no comparison sees.  A free problem forces no row, so each of its pairs
 * ends once in the lower half of its final frontier.
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

/* the entry of a new mask whose predecessors cost a (old spin down) and d
 * (old spin up): their minimum into *out and its code into *code */
static inline void pick(double a, double d, double *out, unsigned char *code)
{
    *code = (unsigned char)((a <= d) | (a >= d) << 1);
    *out = (a < d || a != a) ? a : d;
}

CLONES
static void step(const double *restrict cur, double *restrict nxt,
                 unsigned char *restrict bp, double j, size_t half)
{
    for (size_t i = 0; i < half; i++) {
        double x = cur[2 * i], y = cur[2 * i + 1];
        pick(x + -j, y - -j, nxt + i, bp + i);      /* new spin down: jm = -J */
        pick(x + j, y - j, nxt + half + i, bp + half + i);  /* up: jm = +J */
    }
}

typedef double v4d __attribute__((vector_size(32)));
typedef long long v4l __attribute__((vector_size(32)));
typedef unsigned char v4c __attribute__((vector_size(4)));

/* pick on four lanes */
static inline void pick4(const v4d *a, const v4d *d, v4d *out, v4c *code)
{
    v4l lo = (*a < *d) | (*a != *a);
    *code = __builtin_convertvector(((*a <= *d) & 1) | ((*a >= *d) & 2), v4c);
    *out = (v4d)(((v4l)*a & lo) | ((v4l)*d & ~lo));
}

/* step on a symmetric frontier, whose half (2^(w-1)) entries are the masks
 * with bit w-1 down: new entry i < half / 2 takes the pair (cur[2i],
 * cur[2i+1]) as step's new-spin-down entry does, and entry half - 1 - i, the
 * flip of step's new-spin-up entry half + i, takes the mirrored pair
 * (cur[2i+1], cur[2i]).  At w = 1 the one entry is both predecessors. */
CLONES
static void half_step(const double *restrict cur, double *restrict nxt,
                      unsigned char *restrict bp, double j, size_t half)
{
    size_t q = half / 2;
    if (q < 4) {                                    /* w <= 3 */
        for (size_t i = 0; i < q; i++) {
            double x = cur[2 * i], y = cur[2 * i + 1];
            pick(x + -j, y - -j, nxt + i, bp + i);
            pick(y + -j, x - -j, nxt + half - 1 - i, bp + half - 1 - i);
        }
        if (half == 1)
            pick(cur[0] + -j, cur[0] - -j, nxt, bp);
        return;
    }
    for (size_t i = 0; i < q; i += 4) {
        v4d c0, c1, lo, hi;
        v4c b, e;
        memcpy(&c0, cur + 2 * i, sizeof c0);
        memcpy(&c1, cur + 2 * i + 4, sizeof c1);
        v4d x = {c0[0], c0[2], c1[0], c1[2]}, y = {c0[1], c0[3], c1[1], c1[3]};
        v4d a = x + -j, d = y - -j, am = y + -j, dm = x - -j;
        pick4(&a, &d, &lo, &b);
        pick4(&am, &dm, &hi, &e);
        memcpy(nxt + i, &lo, sizeof lo);
        memcpy(bp + i, &b, sizeof b);
        hi = (v4d){hi[3], hi[2], hi[1], hi[0]};     /* lane l is entry */
        e = (v4c){e[3], e[2], e[1], e[0]};          /* half - 1 - i - l */
        memcpy(nxt + half - 4 - i, &hi, sizeof hi);
        memcpy(bp + half - 4 - i, &e, sizeof e);
    }
}

/* inf on the entries of row (2^w) whose mask has bit c equal to b */
static void forbid(double *row, size_t n, int c, int b)
{
    size_t lo = (size_t)1 << c;
    for (size_t hi = (size_t)b << c; hi < n; hi += 2 * lo)
        for (size_t i = 0; i < lo; i++)
            row[hi + i] = INFINITY;
}

/* rows lo..h-1 of one problem's row costs (h, 2^w) from its couplings j,
 * whose first nh * h entries are the horizontal edges, row by row: entry m
 * of row r is minus the sum of +-J_a over the row's edges a = 0, 1, ... in
 * that order from 0.0, + where bits a and a+1 (mod w) of m agree.  The sum
 * over edges 0..a-1 depends on bits 0..a only, so a row starts as the sums
 * of one column and doubles once per edge; the wrap edge (w >= 3) comes
 * last. */
static void row_costs(double *cost, const double *j, int w, int h, int nh,
                      int lo)
{
    size_t n = (size_t)1 << w;
    for (int r = lo; r < h; r++) {
        double *row = cost + (size_t)r * n;
        const double *jr = j + (size_t)r * nh;
        row[0] = row[1] = 0.0;
        for (int a = 0; a < w - 1; a++) {   /* edge a joins columns a, a+1 */
            size_t q = (size_t)1 << a, s = 2 * q;
            double x = jr[a];
            for (size_t i = 0; i < q; i++) {    /* bit a down */
                double t = row[i];
                row[s + i] = t + -x;
                row[i] = t + x;
            }
            for (size_t i = q; i < s; i++) {    /* bit a up */
                double t = row[i];
                row[s + i] = t + x;
                row[i] = t + -x;
            }
        }
        if (nh == w) {          /* the wrap edge joins columns w-1 and 0 */
            double x = jr[w - 1];
            for (size_t i = 0; i < n / 2; i += 2) {
                row[i] = -(row[i] + x);
                row[i + 1] = -(row[i + 1] + -x);
                row[n / 2 + i] = -(row[n / 2 + i] + -x);
                row[n / 2 + i + 1] = -(row[n / 2 + i + 1] + x);
            }
        } else {
            for (size_t i = 0; i < n; i++)
                row[i] = -row[i];
        }
    }
}

/* rowcost (kcap, h, 2^w): row costs of each problem, overwritten from row
 * start + 1 on by its frontier after that row, which is
 * rowcost[r + 1] = (frontier after the row's last step) + rowcost[r + 1];
 * rowcost[start] must hold the frontier after row start.  vals (k, e) holds
 * each problem's couplings, the vertical edges after the horizontal ones,
 * row by row; the sweep builds the row costs of the rows after start, or of
 * every row from row 0, copying them from problem src[p] <= p where that
 * holds the same couplings.  Problem p's ncells[p] forced cells follow those
 * of the problems before it in cells; they go into the same rows as inf.
 * sym[p] gets the row of its first forced cell, h if it has none: its
 * frontiers of rows r < sym[p] are symmetric and hold their 2^(w-1) entries
 * with bit w-1 down, its steps from those rows to rows < sym[p] are half
 * steps, and row sym[p] - 1 is filled out before its steps.  buf0 and buf1
 * (2^w each) take the column steps in turn.  backptr (h - 1, w, kcap, 2^w)
 * gets the code of problem p's step c of row r at [r, c, p], in its lower
 * half only for a half step, and that step adds the vertical coupling of
 * column c between rows r and r + 1. */
void eaglass_sweep(int w, int h, int k, int kcap, int start,
                   double *rowcost, double *buf0, double *buf1,
                   unsigned char *backptr, int *sym, const double *vals,
                   const int *src, const int *cells, const int *ncells)
{
    size_t n = (size_t)1 << w;
    int nh = w >= 3 ? w : w - 1, lo = start ? start + 1 : 0;
    size_t e = (size_t)nh * h + (size_t)w * (h - 1);
    for (int p = 0; p < k; p++) {
        double *cost = rowcost + (size_t)p * h * n;
        if (src[p] < p)
            memcpy(cost + (size_t)lo * n,
                   rowcost + ((size_t)src[p] * h + lo) * n,
                   (size_t)(h - lo) * n * sizeof *cost);
        else
            row_costs(cost, vals + (size_t)p * e, w, h, nh, lo);
    }
    for (int p = 0; p < k; p++) {
        double *cost = rowcost + (size_t)p * h * n;
        const double *j = vals + (size_t)p * e + (size_t)nh * h;
        sym[p] = h;
        for (int i = 0; i < ncells[p]; i++, cells++) {
            int v = *cells / 2, r = v / w;
            if (r >= lo)
                forbid(cost + (size_t)r * n, n, v % w, *cells % 2);
            if (r < sym[p])
                sym[p] = r;
        }
        for (int r = start; r < h - 1; r++) {
            double *cur = cost + (size_t)r * n;
            size_t m = r + 1 < sym[p] ? n / 2 : n;  /* entries of row r + 1 */
            if (r + 1 == sym[p])            /* upper mask i takes entry ~i */
                for (size_t i = n / 2; i < n; i++)
                    cur[i] = cur[n - 1 - i];
            for (int c = 0; c < w; c++) {
                double *nxt = c & 1 ? buf1 : buf0;
                unsigned char *bp =
                    backptr + (((size_t)r * w + c) * kcap + p) * n;
                if (m < n)
                    half_step(cur, nxt, bp, j[r * w + c], n / 2);
                else
                    step(cur, nxt, bp, j[r * w + c], n / 2);
                cur = nxt;
            }
            double *row = cost + (size_t)(r + 1) * n;
            for (size_t i = 0; i < m; i++)
                row[i] = cur[i] + row[i];
        }
    }
}

#define TIE (1u << 31)      /* on a path entry: old spin 0 is still to walk */

/* best (h masks) becomes the canonical form of the configuration on path
 * if it is the first one or its pattern is smaller: flipped whole when the
 * anchor vertex is down, compared from vertex 0 up with +1 first. */
static void keep(const unsigned *path, int w, int h, int anchor, int *best,
                 int first)
{
    unsigned full = (1u << w) - 1;
    unsigned at = path[(size_t)(h - 1 - anchor / w) * w] >> (anchor % w);
    unsigned flip = at & 1 ? 0 : full;
    for (int r = 0, better = first; r < h; r++) {
        unsigned row = (path[(size_t)(h - 1 - r) * w] & full) ^ flip;
        if (!better) {
            unsigned d = row ^ (unsigned)best[r];
            if (!d)
                continue;
            if (!(row & d & -d))    /* its lowest differing spin is down */
                return;
            better = 1;
        }
        best[r] = (int)row;
    }
}

/* the minimum of v[0..n-1], NaN if one is NaN, as numpy's min */
static double minimum(const double *v, size_t n)
{
    double b = v[0];
    for (size_t i = 1; i < n; i++)
        if (v[i] < b || v[i] != v[i])
            b = v[i];
    return b;
}

/* The optimal configurations of each of the k problems the last sweep ran,
 * the entries of each final frontier equal to its minimum and their paths
 * back: count[p] gets their number and rows[p] (h masks) the smallest
 * canonical one, whose spin +1 is the anchor[p] vertex's.  A final frontier
 * that is symmetric (sym[p] = h) holds one member of each flipped pair, so
 * each pair is walked once.  The walk steps back from mask m over code b to
 * (m << 1 | b >> 1) mod 2^w, the new spin dropping out of bit w-1 and the
 * old one coming back as bit 0; a tie (b = 3) takes old spin 1 first and
 * old spin 0 on the way back.  A half step stored no mask m >= 2^(w-1): its
 * code is that of ~m with old spins 0 and 1 swapped.  path holds the
 * (h - 1) * w + 1 masks of the current walk, row h-1 first.  Returns 2 if
 * a problem's minimum is not finite (checked first), 1 once a problem has
 * more than cap optimal configurations, else 0. */
int eaglass_traceback(int w, int h, int k, int kcap, int cap,
                      const double *rowcost, const unsigned char *backptr,
                      const int *sym, const int *anchor, unsigned *path,
                      int *rows, int *count)
{
    size_t n = (size_t)1 << w, steps = (size_t)(h - 1) * w;
    for (int p = 0; p < k; p++)
        if (!isfinite(minimum(rowcost + ((size_t)p * h + h - 1) * n,
                              sym[p] < h ? n : n / 2)))
            return 2;
    for (int p = 0; p < k; p++) {
        const double *final = rowcost + ((size_t)p * h + h - 1) * n;
        const unsigned char *bp = backptr + (size_t)p * n;
        size_t size = sym[p] < h ? n : n / 2;
        double best = minimum(final, size);
        count[p] = 0;
        for (size_t m = 0; m < size; m++) {
            if (final[m] != best)
                continue;
            size_t t = 0;
            path[0] = (unsigned)m;
            for (;;) {
                for (; t < steps; t++) {
                    size_t r = h - 2 - t / w, c = w - 1 - t % w;
                    const unsigned char *at = bp + ((r * w + c) * kcap) * n;
                    unsigned b, s = path[t];
                    if (r + 1 < (size_t)sym[p] && s >= n / 2) {
                        b = at[n - 1 - s];
                        b = (b & 1) << 1 | b >> 1;
                    } else {
                        b = at[s];
                    }
                    path[t + 1] = (unsigned)((s << 1) & (n - 1)) | b >> 1;
                    if (b == 3)
                        path[t] |= TIE;
                }
                if (++count[p] > cap)
                    return 1;
                keep(path, w, h, anchor[p], rows + (size_t)p * h,
                     count[p] == 1);
                while (t > 0 && !(path[t - 1] & TIE))
                    t--;
                if (t-- == 0)
                    break;
                path[t] &= ~TIE;
                path[t + 1] = (unsigned)((path[t] << 1) & (n - 1));
                t++;
            }
        }
    }
    return 0;
}

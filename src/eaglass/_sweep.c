/* The transfer sweep and traceback of eaglass.solver, loaded with ctypes.
 *
 * A row mask has bit c for column c, 1 for spin +1.  Between rows r and
 * r + 1 a problem's frontier keeps every mask in place: column step c
 * replaces bit c, the old spin of column c (row r), by its new spin (row
 * r + 1), so it pairs mask i (bit c down) with i | 2^c, and after the row's
 * last step every mask is a mask of row r + 1.  The vertical edge costs
 * -J * old * new; with jm = -J for a new spin down and +J for up,
 * a = x + jm is the old spin down (x the entry of the pair's mask with bit c
 * down) and d = y - jm the old spin up.  The new entry is np.minimum(a, d),
 * ties (+-0.0 too) going to d and NaN propagating, and its 2-bit code is
 * 1 / 2 / 3 for old spin down, up, or a tie, 0 if NaN; a layer holds four
 * codes per byte, entry i's at bits 2 * (i % 4) of byte i / 4.  The solver's
 * pinned bits rest on exactly these IEEE operations, so the build must not
 * contract or reassociate them (no -ffast-math, -ffp-contract=off).
 *
 * A row's cost is minus its horizontal energy, summed edge by edge from 0.0
 * in edge order, so its bits, too, rest on these operations alone and not
 * on the summation order of some CPU's BLAS kernel.  The forced signs of
 * a row enter as a pin: a mask of the row's pinned columns and the bits a
 * row mask must hold there; every row mask that breaks it costs inf.  The
 * traceback walks the codes from the last row up, one optimal
 * configuration at a time, so it needs no buffer of all of them.
 *
 * With no field, a mask m and its flip ~m go through the same operations
 * (x - y is x + -y), so until a problem's first forced row its frontiers
 * are symmetric and the sweep keeps only their lower halves, the masks with
 * bit w-1 down, and only the lower halves of those rows' costs.  Steps
 * c < w-1 pair masks of the lower half alone; step w-1 pairs mask i with
 * i | 2^(w-1), whose entry is that of its flip, the mirrored entry
 * 2^(w-1) - 1 - i.  These steps' entries are the full steps', up to the
 * sign of a zero, which no comparison sees.
 * A free problem forces no row, so each of its pairs ends once in the lower
 * half of its final frontier.
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
static inline void pick(double a, double d, double *out, unsigned *code)
{
    *code = (a <= d) | (a >= d) << 1;
    *out = (a < d || a != a) ? a : d;
}

typedef double v4d __attribute__((vector_size(32)));
typedef long long v4l __attribute__((vector_size(32)));

/* pick on four lanes; returns their codes, lane l's times *at[l] (4^e for
 * its entry e of a block of eight), so that the lanes' sum packs them */
static inline unsigned pick4(const v4d *a, const v4d *d, v4d *out,
                             const v4l *at)
{
    v4l lo = (*a < *d) | (*a != *a);
    v4l code = ((*a <= *d) & *at) | ((*a >= *d) & (*at + *at));
    *out = (v4d)(((v4l)*a & lo) | ((v4l)*d & ~lo));
    return (unsigned)(code[0] | code[1] | code[2] | code[3]);
}

static const v4l AT0123 = {1, 4, 16, 64}, AT3210 = {64, 16, 4, 1},
                 AT0246 = {1, 16, 256, 4096}, AT1357 = {4, 64, 1024, 16384},
                 AT0145 = {1, 4, 256, 1024}, AT2367 = {16, 64, 4096, 16384};

/* step c of m < 8 entries (a frontier of w <= 3), in a copy so that cur
 * may be nxt; on a symmetric frontier (mirror), step w-1 */
static void small_step(const double *cur, double *nxt, unsigned char *bp,
                       double j, size_t m, int c, int mirror)
{
    double e[8];
    unsigned code;
    size_t lo = (size_t)1 << c;
    memset(bp, 0, (m + 3) / 4);
    for (size_t i = 0; i < m; i++) {
        if (mirror)
            pick(cur[i] + -j, cur[m - 1 - i] - -j, e + i, &code);
        else if (i & lo)
            pick(cur[i - lo] + j, cur[i] - j, e + i, &code);
        else
            pick(cur[i] + -j, cur[i + lo] - -j, e + i, &code);
        bp[i / 4] |= (unsigned char)(code << 2 * (i % 4));
    }
    memcpy(nxt, e, m * sizeof *e);
}

/* step c >= 2 of m entries: pairs of contiguous blocks of four */
CLONES
static void block_step(const double *cur, double *nxt, unsigned char *bp,
                       double j, size_t m, int c)
{
    size_t lo = (size_t)1 << c;
    for (size_t hi = 0; hi < m; hi += 2 * lo)
        for (size_t i = hi; i < hi + lo; i += 4) {
            v4d x, y, dn, up;
            memcpy(&x, cur + i, sizeof x);
            memcpy(&y, cur + i + lo, sizeof y);
            v4d a = x + -j, d = y - -j, au = x + j, du = y - j;
            bp[i / 4] = (unsigned char)pick4(&a, &d, &dn, &AT0123);
            bp[(i + lo) / 4] = (unsigned char)pick4(&au, &du, &up, &AT0123);
            memcpy(nxt + i, &dn, sizeof dn);
            memcpy(nxt + i + lo, &up, sizeof up);
        }
}

/* step 0 or 1 of m >= 8 entries, eight at a time: x and y gather the old
 * spins down and up of the pairs, whose new entries dn and up scatter back
 * (entries 0, 2, 4, 6 and 1, 3, 5, 7 at c = 0; 0, 1, 4, 5 and 2, 3, 6, 7 at
 * c = 1) */
CLONES
static void pair_step(const double *cur, double *nxt, unsigned char *bp,
                      double j, size_t m, int c)
{
    for (size_t i = 0; i < m; i += 8) {
        v4d c0, c1, x, y, dn, up;
        memcpy(&c0, cur + i, sizeof c0);
        memcpy(&c1, cur + i + 4, sizeof c1);
        if (c == 0) {
            x = (v4d){c0[0], c0[2], c1[0], c1[2]};
            y = (v4d){c0[1], c0[3], c1[1], c1[3]};
        } else {
            x = (v4d){c0[0], c0[1], c1[0], c1[1]};
            y = (v4d){c0[2], c0[3], c1[2], c1[3]};
        }
        v4d a = x + -j, d = y - -j, au = x + j, du = y - j;
        unsigned code = c == 0
            ? pick4(&a, &d, &dn, &AT0246) | pick4(&au, &du, &up, &AT1357)
            : pick4(&a, &d, &dn, &AT0145) | pick4(&au, &du, &up, &AT2367);
        if (c == 0) {
            c0 = (v4d){dn[0], up[0], dn[1], up[1]};
            c1 = (v4d){dn[2], up[2], dn[3], up[3]};
        } else {
            c0 = (v4d){dn[0], dn[1], up[0], up[1]};
            c1 = (v4d){dn[2], dn[3], up[2], up[3]};
        }
        memcpy(nxt + i, &c0, sizeof c0);
        memcpy(nxt + i + 4, &c1, sizeof c1);
        bp[i / 4] = (unsigned char)code;
        bp[i / 4 + 1] = (unsigned char)(code >> 8);
    }
}

/* step w-1 of a symmetric frontier of m >= 8 entries: entry i pairs with
 * the mirrored entry m - 1 - i, which stands for the flip of i | 2^(w-1),
 * and entry m - 1 - i takes the mirrored pair; lanes l of y, the second
 * entries and their codes run backwards, m - 1 - i - l */
CLONES
static void mirror_step(const double *cur, double *nxt, unsigned char *bp,
                        double j, size_t m)
{
    for (size_t i = 0; i < m / 2; i += 4) {
        v4d x, y, lo, hi;
        memcpy(&x, cur + i, sizeof x);
        memcpy(&y, cur + m - 4 - i, sizeof y);
        y = (v4d){y[3], y[2], y[1], y[0]};
        v4d a = x + -j, d = y - -j, am = y + -j, dm = x - -j;
        bp[i / 4] = (unsigned char)pick4(&a, &d, &lo, &AT0123);
        bp[(m - 4 - i) / 4] = (unsigned char)pick4(&am, &dm, &hi, &AT3210);
        hi = (v4d){hi[3], hi[2], hi[1], hi[0]};
        memcpy(nxt + i, &lo, sizeof lo);
        memcpy(nxt + m - 4 - i, &hi, sizeof hi);
    }
}

/* column step c of the m entries of cur into nxt, which may be cur; a
 * step with m < 2^w entries is one on a symmetric frontier */
static void column_step(const double *cur, double *nxt, unsigned char *bp,
                        double j, size_t m, int c, int w)
{
    int mirror = m < (size_t)1 << w && c == w - 1;
    if (m < 8)
        small_step(cur, nxt, bp, j, m, c, mirror);
    else if (mirror)
        mirror_step(cur, nxt, bp, j, m);
    else if (c < 2)
        pair_step(cur, nxt, bp, j, m, c);
    else
        block_step(cur, nxt, bp, j, m, c);
}

/* rows lo..h-1 of one problem's row costs (h, 2^w) from its couplings j,
 * whose first nh * h entries are the horizontal edges, row by row: entry m
 * of row r is minus the sum of +-J_a over the row's edges a = 0, 1, ... in
 * that order from 0.0, + where bits a and a+1 (mod w) of m agree.  The sum
 * over edges 0..a-1 depends on bits 0..a only, so a row starts as the sums
 * of one column and doubles once per edge; the wrap edge (w >= 3) comes
 * last.  A row r < sym gets only its lower half, the masks with bit w-1
 * down, which its last doubling keeps in place. */
static void row_costs(double *cost, const double *j, int w, int h, int nh,
                      int lo, int sym)
{
    size_t n = (size_t)1 << w;
    for (int r = lo; r < h; r++) {
        double *row = cost + (size_t)r * n;
        const double *jr = j + (size_t)r * nh;
        size_t m = r < sym ? n / 2 : n;         /* the entries built */
        row[0] = 0.0;
        if (m > 1)
            row[1] = 0.0;
        for (int a = 0; a < w - 1; a++) {   /* edge a joins columns a, a+1 */
            size_t q = (size_t)1 << a, s = 2 * q;
            double x = jr[a];
            if (s == m) {               /* bit a + 1 = w - 1 stays down */
                for (size_t i = 0; i < q; i++)
                    row[i] = row[i] + x;
                for (size_t i = q; i < s; i++)
                    row[i] = row[i] + -x;
                continue;
            }
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
            }
            for (size_t i = n / 2; i < m; i += 2) {
                row[i] = -(row[i] + -x);
                row[i + 1] = -(row[i + 1] + x);
            }
        } else {
            for (size_t i = 0; i < m; i++)
                row[i] = -row[i];
        }
    }
}

/* rowcost (kcap, h, 2^w): row costs of each problem, overwritten from row
 * start + 1 on by its frontier after that row, which is
 * rowcost[r + 1] = (frontier after the row's last step) + rowcost[r + 1];
 * rowcost[start] must hold the frontier after row start.  vals (kcap, e)
 * holds each problem's couplings, the vertical edges after the horizontal
 * ones, row by row.  pins (kcap, h, 2) holds each problem's pin of each
 * row, a mask of its pinned columns and the bits a row mask must hold
 * there, and sym[p] gets the first row whose mask is not 0, h if none: its
 * frontiers of rows r < sym[p] are symmetric and hold their 2^(w-1)
 * entries with bit w-1 down, its steps from those rows to rows < sym[p]
 * run on them, and row sym[p] - 1 is filled out before its steps.  The
 * sweep builds the row costs of the rows after start, or of every row from
 * row 0, only their lower halves on rows < sym[p]; problem p copies them
 * from problem p - 1 where its horizontal couplings have the same bits and
 * sym[p - 1] <= sym[p].  Entry i of a pinned row among them then costs inf
 * where (i & mask) != bits.  buf (2^w) takes a row's column steps in place.
 * backptr (h - 1, w, kcap, ceil(2^w / 4)) gets the codes of problem p's
 * step c of row r at [r, c, p], those of the lower half only for a step on
 * a symmetric frontier, and that step adds the vertical coupling of column
 * c between rows r and r + 1. */
void eaglass_sweep(int w, int h, int k, int kcap, int start,
                   double *rowcost, double *buf, unsigned char *backptr,
                   int *sym, const double *vals, const int *pins)
{
    size_t n = (size_t)1 << w, nb = (n + 3) / 4;
    int nh = w >= 3 ? w : w - 1, lo = start ? start + 1 : 0;
    size_t e = (size_t)nh * h + (size_t)w * (h - 1);
    for (int p = 0; p < k; p++) {
        double *cost = rowcost + (size_t)p * h * n;
        const double *j = vals + (size_t)p * e;
        const int *pin = pins + (size_t)p * h * 2;
        sym[p] = 0;
        while (sym[p] < h && !pin[2 * sym[p]])
            sym[p]++;
        if (p && sym[p - 1] <= sym[p]
            && !memcmp(j, j - e, (size_t)nh * h * sizeof *j))
            for (int r = lo; r < h; r++)
                memcpy(cost + (size_t)r * n, cost - (size_t)(h - r) * n,
                       (r < sym[p] ? n / 2 : n) * sizeof *cost);
        else
            row_costs(cost, j, w, h, nh, lo, sym[p]);
    }
    for (int p = 0; p < k; p++) {
        double *cost = rowcost + (size_t)p * h * n;
        const double *j = vals + (size_t)p * e + (size_t)nh * h;
        const int *pin = pins + (size_t)p * h * 2;
        for (int r = lo; r < h; r++) {
            unsigned mask = (unsigned)pin[2 * r];
            double *row = cost + (size_t)r * n;
            for (size_t i = 0; mask && i < n; i++)
                if ((i & mask) != (unsigned)pin[2 * r + 1])
                    row[i] = INFINITY;
        }
        for (int r = start; r < h - 1; r++) {
            double *cur = cost + (size_t)r * n;
            size_t m = r + 1 < sym[p] ? n / 2 : n;  /* entries of row r + 1 */
            if (r + 1 == sym[p])            /* upper mask i takes entry ~i */
                for (size_t i = n / 2; i < n; i++)
                    cur[i] = cur[n - 1 - i];
            for (int c = 0; c < w; c++) {
                column_step(cur, buf, backptr + (((size_t)r * w + c) * kcap
                                                 + p) * nb,
                            j[r * w + c], m, c, w);
                cur = buf;
            }
            double *row = cost + (size_t)(r + 1) * n;
            for (size_t i = 0; i < m; i++)
                row[i] = buf[i] + row[i];
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

/* the code of entry i of a layer */
static unsigned code(const unsigned char *layer, size_t i)
{
    return layer[i / 4] >> 2 * (i % 4) & 3;
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
 * each pair is walked once.  The walk steps back over step c from mask m
 * with code b by putting the old spin back as bit c; a tie (b = 3) takes
 * old spin 1 first and old spin 0 on the way back.  A step on a symmetric
 * frontier stored no code of a mask m >= 2^(w-1): its code is that of ~m
 * with old spins 0 and 1 swapped.  path holds the (h - 1) * w + 1 masks of
 * the current walk, row h-1 first.  Returns 2 if a problem's minimum is not
 * finite (checked first), 1 once a problem has more than cap optimal
 * configurations, else 0. */
int eaglass_traceback(int w, int h, int k, int kcap, int cap,
                      const double *rowcost, const unsigned char *backptr,
                      const int *sym, const int *anchor, unsigned *path,
                      int *rows, int *count)
{
    size_t n = (size_t)1 << w, nb = (n + 3) / 4, steps = (size_t)(h - 1) * w;
    for (int p = 0; p < k; p++)
        if (!isfinite(minimum(rowcost + ((size_t)p * h + h - 1) * n,
                              sym[p] < h ? n : n / 2)))
            return 2;
    for (int p = 0; p < k; p++) {
        const double *final = rowcost + ((size_t)p * h + h - 1) * n;
        const unsigned char *bp = backptr + (size_t)p * nb;
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
                    const unsigned char *at = bp + (r * w + c) * kcap * nb;
                    unsigned b, s = path[t];
                    if (r + 1 < (size_t)sym[p] && s >= n / 2) {
                        b = code(at, n - 1 - s);
                        b = (b & 1) << 1 | b >> 1;
                    } else {
                        b = code(at, s);
                    }
                    path[t + 1] = (s & ~(1u << c)) | (b >> 1) << c;
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
                path[t + 1] = path[t] & ~(1u << (w - 1 - t % w));
                t++;
            }
        }
    }
    return 0;
}

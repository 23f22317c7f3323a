/*
 * One least-element (LE) list step in C: Lemma 2.3's aggregation under the
 * Definition 7.3 filter.  ``repro.mbf.dense._le_iteration_native`` states
 * its contract; the tests compare it, bit for bit, with the NumPy reference
 * kernel in ``tests/le_reference.py``.
 *
 * States are CSR batches of composite segments ``t = s*n + v`` (sample s,
 * vertex v); each segment is a staircase: distances strictly rise, ranks
 * strictly fall.  Per target t the step
 *
 *   1. walks the fresh entries of v's in-neighbours (and, with a base, of
 *      t itself at weight 0), candidate dist = entry dist + edge weight;
 *   2. drops a candidate that an entry of t's current staircase dominates:
 *      the last entry no farther than it (a bisection) has a rank no
 *      greater than its own.  With a base, a self-candidate is never
 *      dropped by this test, and the survivors are then tested against
 *      the base staircase the same way;
 *   3. sorts the survivors by dist (stable), keeps the minimum-rank ones of
 *      each equal-dist run, and merges them into the current (or base)
 *      list, a survivor before a current entry of equal dist, keeping an
 *      entry only when its rank is below the running minimum.
 *
 * The only floating-point operation is the candidate sum ``d + w``.
 *
 * Every offset range and entry id is checked where it is read: a segment
 * must lie inside its batch, a vertex id in [0, n).  A bad one ends the
 * call with BAD_RANGE or BAD_ID instead of reading out of bounds.
 */

#include <stdint.h>
#include <stdlib.h>

enum { NO_MEMORY = -1, BAD_RANGE = -2, BAD_ID = -3 };

/* Whether segment t of a CSR batch of `total` entries lies inside it. */
static int segment_ok(const int64_t *off, int64_t t, int64_t total)
{
    return 0 <= off[t] && off[t] <= off[t + 1] && off[t + 1] <= total;
}

/* Whether x is a vertex id, in [0, n). */
static int id_ok(int64_t x, int64_t n)
{
    return (uint64_t)x < (uint64_t)n;
}

typedef struct {
    double d;    /* candidate distance */
    int64_t r;   /* rank of its vertex in the target's sample */
    int64_t id;  /* its vertex */
    int64_t at;  /* last entry of the merged-into list with dist <= d */
} cand_t;

/* The last index in [lo, hi) whose dist is <= q, or lo - 1 if none.  The
   bisection halves a window that holds the answer; its step count depends
   on hi - lo only, and each step is a conditional move, not a branch. */
static int64_t last_at_most(const double *dist, int64_t lo, int64_t hi, double q)
{
    int64_t len = hi - lo;
    if (len == 0)
        return lo - 1;
    while (len > 1) {
        const int64_t half = len / 2;
        lo = dist[lo + half] <= q ? lo + half : lo;
        len -= half;
    }
    return lo - (dist[lo] > q);
}

/* Stable sort of a[0:m] by dist; tmp holds m entries. */
static void sort_by_dist(cand_t *a, cand_t *tmp, int64_t m)
{
    const int64_t run = 16;
    for (int64_t lo = 0; lo < m; lo += run) {
        int64_t hi = lo + run < m ? lo + run : m;
        for (int64_t i = lo + 1; i < hi; i++) {
            cand_t x = a[i];
            int64_t j = i;
            while (j > lo && a[j - 1].d > x.d) {
                a[j] = a[j - 1];
                j--;
            }
            a[j] = x;
        }
    }
    cand_t *src = a, *dst = tmp;
    for (int64_t width = run; width < m; width *= 2) {
        for (int64_t lo = 0; lo < m; lo += 2 * width) {
            int64_t mid = lo + width < m ? lo + width : m;
            int64_t hi = lo + 2 * width < m ? lo + 2 * width : m;
            int64_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                dst[o++] = src[j].d < src[i].d ? src[j++] : src[i++];
            while (i < mid)
                dst[o++] = src[i++];
            while (j < hi)
                dst[o++] = src[j++];
        }
        cand_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        for (int64_t i = 0; i < m; i++)
            a[i] = src[i];
}

/* The fresh entries of each of the kn segments of a CSR batch of `total`
   entries: segment t's are f_slot[f_off[t] : f_off[t+1]].  f_slot holds one
   slot per set flag plus one: every slot is written, and only a fresh one
   is kept.  Returns 0, or BAD_RANGE for a segment outside the batch. */
int64_t fresh_lists(int64_t kn, int64_t total, const int64_t *s_off, const uint8_t *fresh,
                    int64_t *f_off, int64_t *f_slot)
{
    int64_t m = 0;
    for (int64_t t = 0; t < kn; t++) {
        if (!segment_ok(s_off, t, total))
            return BAD_RANGE;
        f_off[t] = m;
        for (int64_t p = s_off[t]; p < s_off[t + 1]; p++) {
            f_slot[m] = p;
            m += fresh[p] != 0;
        }
    }
    f_off[kn] = m;
    return 0;
}

/*
 * Runs targets [t, t_end) of one LE step and returns the target it stopped
 * at: t_end when done, an earlier one whose output (at most ``*need``
 * entries) would overflow ``cap``, NO_MEMORY if an allocation failed, or
 * BAD_RANGE / BAD_ID for an offset range or entry id outside its bounds.
 * The caller grows the output and resumes there; ``*pos`` counts the
 * entries written so far.
 *
 *   ranks            (k*n)    rank of vertex x in sample s at [s*n + x]
 *   in_off           (n+1)    in-edges of v are [in_off[v], in_off[v+1])
 *   in_src, in_w     (E)      their source vertex and (scaled) weight
 *   s_off/ids/dist   (s_n)    the states the fresh entries come from
 *   f_off            (k*n+1)  segment t's fresh entries are the states
 *   f_slot           (f_n)    entries f_slot[f_off[t] : f_off[t+1]], or,
 *                             with f_slot NULL, [f_off[t], f_off[t+1])
 *   b_off/ids/dist   (b_n)    the base lists merged into, or NULL: states'
 *   o_ids/dist/new   (cap)    kept entries and whether each was inserted
 *   o_count          (k*n)    kept entries per target
 *   changed          (k)      set for a sample that kept an insertion
 *   any_survivor              set if some candidate survived the prune
 */
int64_t le_step(int64_t n, int64_t t, int64_t t_end, const int64_t *ranks,
                const int64_t *in_off, const int64_t *in_src, const double *in_w, int64_t e_n,
                const int64_t *s_off, const int64_t *s_ids, const double *s_dist, int64_t s_n,
                const int64_t *f_off, const int64_t *f_slot, int64_t f_n,
                const int64_t *b_off, const int64_t *b_ids, const double *b_dist, int64_t b_n,
                int64_t cap, int64_t *pos,
                int64_t *o_ids, double *o_dist, uint8_t *o_new, int64_t *o_count,
                uint8_t *changed, uint8_t *any_survivor, int64_t *need)
{
    const int has_base = b_off != NULL;
    const int64_t *c_off = has_base ? b_off : s_off;
    const int64_t *c_ids = has_base ? b_ids : s_ids;
    const double *c_dist = has_base ? b_dist : s_dist;
    const int64_t c_n = has_base ? b_n : s_n;
    int64_t room = 0, out = *pos, err = 0;
    cand_t *surv = NULL, *tmp = NULL;

/* Ends the call with `code` unless `ok` holds. */
#define REQUIRE(ok, code) do { if (!(ok)) { err = (code); goto done; } } while (0)

    for (; t < t_end; t++) {
        const int64_t s = t / n, v = t - s * n;
        const int64_t *rank = ranks + s * n;
        REQUIRE(segment_ok(s_off, t, s_n) && segment_ok(c_off, t, c_n), BAD_RANGE);
        REQUIRE(segment_ok(in_off, v, e_n), BAD_RANGE);
        const int64_t lo = s_off[t], hi = s_off[t + 1];
        const int64_t clo = c_off[t], chi = c_off[t + 1];
        const int64_t e_hi = in_off[v + 1] + has_base;
        int64_t m = 0;
        for (int64_t e = in_off[v]; e < e_hi; e++) {
            const int loop = e == in_off[v + 1];
            REQUIRE(loop || id_ok(in_src[e], n), BAD_ID);
            const int64_t u = loop ? t : s * n + in_src[e];
            const double w = loop ? 0.0 : in_w[e];
            REQUIRE(segment_ok(f_off, u, f_slot != NULL ? f_n : s_n), BAD_RANGE);
            for (int64_t j = f_off[u]; j < f_off[u + 1]; j++) {
                const int64_t p = f_slot != NULL ? f_slot[j] : j;
                REQUIRE(0 <= p && p < s_n, BAD_RANGE);
                REQUIRE(id_ok(s_ids[p], n), BAD_ID);
                const double d = s_dist[p] + w;
                const int64_t r = rank[s_ids[p]];
                int64_t q = last_at_most(s_dist, lo, hi, d);
                if (q >= lo) {
                    REQUIRE(id_ok(s_ids[q], n), BAD_ID);
                    if (rank[s_ids[q]] <= r && !(has_base && q == p))
                        continue;
                }
                if (has_base) {
                    q = last_at_most(c_dist, clo, chi, d);
                    if (q >= clo) {
                        REQUIRE(id_ok(c_ids[q], n), BAD_ID);
                        if (rank[c_ids[q]] <= r)
                            continue;
                    }
                }
                if (m == room) {
                    int64_t grown = room ? 2 * room : 64;
                    cand_t *a = realloc(surv, (size_t)grown * sizeof(cand_t));
                    REQUIRE(a != NULL, NO_MEMORY);
                    surv = a;
                    a = realloc(tmp, (size_t)grown * sizeof(cand_t));
                    REQUIRE(a != NULL, NO_MEMORY);
                    tmp = a;
                    room = grown;
                }
                surv[m].d = d;
                surv[m].r = r;
                surv[m].id = s_ids[p];
                surv[m].at = q;
                m++;
            }
        }
        if (out + (chi - clo) + m > cap) {
            *need = (chi - clo) + m;
            break;
        }
        const int64_t first = out;
        if (m == 0) {
            for (int64_t i = clo; i < chi; i++, out++) {
                REQUIRE(id_ok(c_ids[i], n), BAD_ID);
                o_ids[out] = c_ids[i];
                o_dist[out] = c_dist[i];
                o_new[out] = 0;
            }
            o_count[t] = out - first;
            continue;
        }
        *any_survivor = 1;
        sort_by_dist(surv, tmp, m);
        int64_t run_min = INT64_MAX, i = clo;
        for (int64_t j = 0; j < m;) {
            const double d = surv[j].d;
            int64_t j_end = j + 1, low = surv[j].r;
            while (j_end < m && surv[j_end].d == d) {
                if (surv[j_end].r < low)
                    low = surv[j_end].r;
                j_end++;
            }
            /* Current entries strictly nearer than d precede the run. */
            const int64_t q = surv[j].at;
            const int64_t before = q + 1 - (q >= clo && c_dist[q] == d);
            for (; i < before; i++) {
                REQUIRE(id_ok(c_ids[i], n), BAD_ID);
                const int64_t r = rank[c_ids[i]];
                if (r < run_min) {
                    run_min = r;
                    o_ids[out] = c_ids[i];
                    o_dist[out] = c_dist[i];
                    o_new[out++] = 0;
                }
            }
            for (; j < j_end; j++) {
                if (surv[j].r != low || low >= run_min)
                    continue;
                run_min = low;
                o_ids[out] = surv[j].id;
                o_dist[out] = d;
                o_new[out++] = 1;
                changed[s] = 1;
            }
        }
        for (; i < chi; i++) {
            REQUIRE(id_ok(c_ids[i], n), BAD_ID);
            const int64_t r = rank[c_ids[i]];
            if (r < run_min) {
                run_min = r;
                o_ids[out] = c_ids[i];
                o_dist[out] = c_dist[i];
                o_new[out++] = 0;
            }
        }
        o_count[t] = out - first;
    }
#undef REQUIRE
done:
    free(surv);
    free(tmp);
    *pos = out;
    return err ? err : t;
}

/* Pivot loop of the network simplex in concave_ot.solver.
 *
 * A port of solver._pivot_loop, which stays as the reference: block
 * pricing with Dantzig's rule inside a block, the two-walk leaving rule,
 * remove_edge / make_root / add_edge on the thread, and the subtree
 * potential update follow it line for line, except that pricing finds
 * np.argmin's arc in two passes (the least reduced cost, then the first
 * arc that has it).  Every reduced cost, flow and potential is computed
 * by the same floating-point operations in the same order; built with
 * -ffp-contract=off (no fused multiply-add), the two loops return the
 * same bits.  solver._compiled_pivot_loop builds this file with the
 * system cc and calls pivot_loop through ctypes.  Node arrays are indexed
 * by node (sources 0..m-1, targets m..m+n-1) and updated in place; all
 * state lives in the caller's arrays, so concurrent calls are safe.
 */
#include <math.h>
#include <stdint.h>

typedef int64_t i64;

enum { OPTIMAL = 0, BUDGET_EXHAUSTED = 1, NO_LEAVING_ARC = 2 };

typedef struct {
    i64 m, n, num_arcs, block, n_blocks, f_ptr;
    const double *cost;
    double opt_tol;
    i64 *parent, *parc, *size, *last, *next, *prev, *path;
    double *flow, *pi;
} Tree;

/* Least reduced cost c_ij - pi_i + pi[m+j] over targets j0..j1-1 of
 * source i, kept in four running minima so that the comparisons do not
 * wait on each other; min is exact, so their order does not matter.
 * Sets *nan if a reduced cost is NaN. */
static double row_min(const Tree *t, i64 i, i64 j0, i64 j1, int *nan)
{
    const double *c = t->cost + i * t->n, *pi_t = t->pi + t->m;
    const double pi_i = t->pi[i];
    double a0 = INFINITY, a1 = INFINITY, a2 = INFINITY, a3 = INFINITY;
    int bad = 0;
    i64 j = j0;
    for (; j + 4 <= j1; j += 4) {
        double r0 = c[j] - pi_i + pi_t[j], r1 = c[j + 1] - pi_i + pi_t[j + 1];
        double r2 = c[j + 2] - pi_i + pi_t[j + 2], r3 = c[j + 3] - pi_i + pi_t[j + 3];
        bad |= (r0 != r0) | (r1 != r1) | (r2 != r2) | (r3 != r3);
        a0 = r0 < a0 ? r0 : a0;
        a1 = r1 < a1 ? r1 : a1;
        a2 = r2 < a2 ? r2 : a2;
        a3 = r3 < a3 ? r3 : a3;
    }
    for (; j < j1; j++) {
        double r = c[j] - pi_i + pi_t[j];
        bad |= r != r;
        a0 = r < a0 ? r : a0;
    }
    *nan |= bad;
    a0 = a1 < a0 ? a1 : a0;
    a2 = a3 < a2 ? a3 : a2;
    return a2 < a0 ? a2 : a0;
}

static i64 find_entering(Tree *t)
{
    const i64 m = t->m, n = t->n;
    for (i64 misses = 0; misses < t->n_blocks; misses++) {
        i64 lo = t->f_ptr;
        i64 hi = lo + t->block < t->num_arcs ? lo + t->block : t->num_arcs;
        t->f_ptr = hi % t->num_arcs;
        /* np.argmin(rc) is the first arc with the block's least reduced
         * cost, or the first NaN, which never prices in.  Find that least
         * value one row run at a time, then the first arc that has it. */
        double best_rc = INFINITY;
        int nan = 0;
        for (i64 k = lo; k < hi;) {
            i64 i = k / n, end = (i + 1) * n < hi ? (i + 1) * n : hi;
            double rc = row_min(t, i, k - i * n, end - i * n, &nan);
            best_rc = rc < best_rc ? rc : best_rc;
            k = end;
        }
        if (nan || !(best_rc < -t->opt_tol))
            continue;
        for (i64 k = lo; k < hi;) {
            i64 i = k / n, end = (i + 1) * n < hi ? (i + 1) * n : hi;
            const double *c = t->cost + i * n, *pi_t = t->pi + m, pi_i = t->pi[i];
            for (i64 j = k - i * n; j < end - i * n; j++)
                if (c[j] - pi_i + pi_t[j] == best_rc)
                    return i * n + j;
            k = end;
        }
    }
    return -1;
}

static i64 find_apex(const Tree *t, i64 p, i64 q)
{
    const i64 *parent = t->parent, *size = t->size;
    i64 sp = size[p], sq = size[q];
    for (;;) {
        while (sp < sq)
            sp = size[p = parent[p]];
        while (sp > sq)
            sq = size[q = parent[q]];
        if (sp == sq) {
            if (p == q)
                return p;
            sp = size[p = parent[p]];
            sq = size[q = parent[q]];
        }
    }
}

/* detach the subtree rooted at c (parent[c] == s) */
static void remove_edge(Tree *t, i64 s, i64 c)
{
    i64 *parent = t->parent, *size = t->size, *last = t->last;
    i64 *next = t->next, *prev = t->prev;
    i64 size_c = size[c], prev_c = prev[c], last_c = last[c];
    i64 next_last_c = next[last_c];
    parent[c] = -1;
    next[prev_c] = next_last_c;
    prev[next_last_c] = prev_c;
    next[last_c] = c;
    prev[c] = last_c;
    for (; s != -1; s = parent[s]) {
        size[s] -= size_c;
        if (last[s] == last_c)
            last[s] = prev_c;
    }
}

static void make_root(Tree *t, i64 q)
{
    i64 *parent = t->parent, *size = t->size, *last = t->last;
    i64 *next = t->next, *prev = t->prev, *path = t->path;
    i64 k = 0;
    for (i64 v = q; v != -1; v = parent[v])
        path[k++] = v;
    /* path runs from q up to the old root; re-hang it from the top down */
    for (k--; k > 0; k--) {
        i64 p = path[k], w = path[k - 1];
        i64 size_p = size[p], last_p = last[p], prev_w = prev[w];
        i64 last_w = last[w], next_last_w = next[last_w];
        parent[p] = w;
        parent[w] = -1;
        t->parc[p] = t->parc[w];
        t->flow[p] = t->flow[w];
        size[p] = size_p - size[w];
        size[w] = size_p;
        next[prev_w] = next_last_w;
        prev[next_last_w] = prev_w;
        next[last_w] = w;
        prev[w] = last_w;
        if (last_p == last_w) {
            last[p] = prev_w;
            last_p = prev_w;
        }
        prev[p] = last_w;
        next[last_w] = p;
        next[last_p] = w;
        prev[w] = last_p;
        last[w] = last_p;
    }
}

/* attach the tree rooted at q under p via the given arc */
static void add_edge(Tree *t, i64 arc, i64 p, i64 q, double f)
{
    i64 *parent = t->parent, *size = t->size, *last = t->last;
    i64 *next = t->next, *prev = t->prev;
    i64 last_p = last[p], next_last_p = next[last_p];
    i64 size_q = size[q], last_q = last[q];
    parent[q] = p;
    t->parc[q] = arc;
    t->flow[q] = f;
    next[last_p] = q;
    prev[q] = last_p;
    prev[next_last_p] = last_q;
    next[last_q] = next_last_p;
    for (; p != -1; p = parent[p]) {
        size[p] += size_q;
        if (last[p] == last_p)
            last[p] = last_q;
    }
}

/* Pivots until no arc prices in; returns OPTIMAL, BUDGET_EXHAUSTED or
 * NO_LEAVING_ARC and stores the pivot count in *pivots.  `work` is
 * scratch space of m + n entries. */
int pivot_loop(i64 m, i64 n, i64 block, double opt_tol, i64 budget,
               const double *cost, i64 *parent, i64 *parc, double *flow,
               i64 *size, i64 *last, i64 *next, i64 *prev, double *pi,
               i64 *work, i64 *pivots)
{
    Tree t = {
        .m = m, .n = n, .num_arcs = m * n, .block = block,
        .n_blocks = (m * n + block - 1) / block, .f_ptr = 0,
        .cost = cost, .opt_tol = opt_tol,
        .parent = parent, .parc = parc, .size = size, .last = last,
        .next = next, .prev = prev, .path = work, .flow = flow, .pi = pi,
    };
    *pivots = 0;
    for (;;) {
        i64 arc = find_entering(&t);
        if (arc < 0)
            return OPTIMAL;
        if (++*pivots > budget)
            return BUDGET_EXHAUSTED;
        i64 p_ent = arc / n, q_ent = m + arc % n;
        double c_ent = cost[arc];

        /* As in solver._pivot_loop: "<=" on the q side, then "<" on the
         * p side, picks the last blocking arc in cycle order. */
        i64 apex = find_apex(&t, p_ent, q_ent);
        double theta = INFINITY;
        i64 t_leave = -1, p_att = -1, q_att = -1;
        for (i64 v = q_ent; v != apex; v = parent[v])
            if (v >= m && flow[v] <= theta)
                theta = flow[v], t_leave = v, p_att = p_ent, q_att = q_ent;
        for (i64 v = p_ent; v != apex; v = parent[v])
            if (v < m && flow[v] < theta)
                theta = flow[v], t_leave = v, p_att = q_ent, q_att = p_ent;
        if (t_leave < 0)
            return NO_LEAVING_ARC;
        if (theta > 0.0) {
            for (i64 v = q_ent; v != apex; v = parent[v])
                flow[v] += v >= m ? -theta : theta;
            for (i64 v = p_ent; v != apex; v = parent[v])
                flow[v] += v >= m ? theta : -theta;
        }

        remove_edge(&t, parent[t_leave], t_leave);
        make_root(&t, q_att);
        add_edge(&t, arc, p_att, q_att, theta);
        double d = q_att >= m ? pi[p_att] - c_ent - pi[q_att]
                              : pi[p_att] + c_ent - pi[q_att];
        if (d != 0.0) {
            i64 v = q_att, stop = last[q_att];
            pi[v] += d;
            while (v != stop) {
                v = next[v];
                pi[v] += d;
            }
        }
    }
}

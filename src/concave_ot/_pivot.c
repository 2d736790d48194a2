/* Compiled kernel of concave_ot: the network simplex of solver (the
 * starting tree and the pivot loop), the Euclidean distances the cost
 * matrices are made of, and the scorers of two audits, verify_ccm in
 * structure and certify in solver.
 *
 * starting_tree is a port of the Python least-cost basis
 * (_least_cost_basis) and one-DFS thread build (_python_start), and
 * pivot_loop of the Python loop (_pivot_loop); these and the numpy
 * references of the other entry points live in tests/support.py, where
 * ReferenceKernel serves them under the names of the six entry points,
 * and the tests require the same bits from both.  The start takes arcs
 * in the same global (cost, arc id) order, merging sorted runs of each
 * row's cheapest arcs read in place from the cost matrix, and crosses
 * lines out by the same (remainder, epsilon) rule.
 * In the loop, block pricing with Dantzig's rule inside a block, the
 * two-walk leaving rule, remove_edge / make_root / add_edge on the
 * thread, and the subtree potential update follow the reference, with
 * two shortcuts that leave every pivot and every array the same:
 * - pricing finds np.argmin's arc in two passes: the least reduced cost
 *   of the block, CHUNK arcs at a time, noting the first chunk that
 *   lowers it, then the first arc of that chunk that has it;
 * - the walks of remove_edge and add_edge that update size and last stop
 *   at the pivot cycle's apex.  The subtree cut off below the apex comes
 *   back below it, so no size above the apex changes, and last changes
 *   only on the ancestors whose subtree ended where the apex's did: one
 *   walk up from the apex sets those.
 * Every remainder, flow, reduced cost and potential is computed by the
 * same floating-point operations in the same order; built with
 * -ffp-contract=off (no fused multiply-add), the kernel and its
 * reference return the same bits.  distances sums the squared coordinate
 * differences in order from 0.0 and takes the square root, as scipy's
 * cdist and the numpy reference _numpy_distances do, with the same bits.
 *
 * The audit scorers read the plan's m x n cost matrix in place and
 * allocate no array of that size.  pair_scores scores the pair swaps of
 * all support entries and cycle_scores a block of cycles, reading the
 * cost of entry i's source atom and entry j's target atom at
 * C[src_i][tgt_j] (cycle_scores reads each entry's own cost from the
 * caller's base = C[src, tgt]), as the numpy references
 * _numpy_pair_scores and _numpy_cycle_scores do; certify_maxima returns
 * the two maxima of _numpy_certify_maxima.  Each computes every value by
 * the same operations in the same order as its reference and returns
 * numpy's first argmax (the first NaN if there is one) or numpy's
 * NaN-propagating max, so the reports keep their bits.
 *
 * solver._compiled_kernel builds this file with the system cc and calls
 * the six entry points through ctypes; there is no other path, so
 * without a compiler every solve raises solver.SolverError.  Node
 * arrays are indexed by node (sources 0..m-1, targets m..m+n-1) and
 * filled or updated in place; all state lives in the caller's arrays or
 * in memory allocated per call, so concurrent calls are safe.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

enum { OPTIMAL = 0, BUDGET_EXHAUSTED = 1, NO_LEAVING_ARC = 2, NO_MEMORY = 3, NOT_SPANNING = 4 };

/* ---- starting tree -------------------------------------------------- */

/* Arcs are scanned in increasing (cost, arc id) order: key_less
 * compares two keys. */
typedef struct {
    double cost;
    i64 arc;
} Key;

static int key_less(Key x, Key y)
{
    return x.cost < y.cost || (x.cost == y.cost && x.arc < y.arc);
}

/* A binary heap of keys: the least on top, or the greatest if max. */
typedef struct {
    Key *key;
    i64 len;
    int max;
} Heap;

static int above(const Heap *h, Key x, Key y)
{
    return h->max ? key_less(y, x) : key_less(x, y);
}

static void sift_down(Heap *h, i64 k)
{
    Key x = h->key[k];
    for (;;) {
        i64 child = 2 * k + 1;
        if (child >= h->len)
            break;
        if (child + 1 < h->len && above(h, h->key[child + 1], h->key[child]))
            child++;
        if (!above(h, h->key[child], x))
            break;
        h->key[k] = h->key[child];
        k = child;
    }
    h->key[k] = x;
}

static void heap_push(Heap *h, Key x)
{
    i64 k = h->len++;
    for (; k > 0 && above(h, x, h->key[(k - 1) / 2]); k = (k - 1) / 2)
        h->key[k] = h->key[(k - 1) / 2];
    h->key[k] = x;
}

static void heap_replace_top(Heap *h, Key x)
{
    h->key[0] = x;
    sift_down(h, 0);
}

static void heap_pop(Heap *h)
{
    heap_replace_top(h, h->key[--h->len]);
}

enum { ROW_RUN = 6 };

/* State of the least-cost scan.  Each alive row i keeps a run of its
 * cheapest arcs to alive columns, run[i][0..len[i]-1] in increasing key
 * order, where head[i] is the next to scan; a run of up to ROW_RUN arcs
 * is the row's slot in `pool`.  `rows` is a min-heap of the row heads.
 * The arcs scanned before a row's head all go to crossed-out columns,
 * and every other arc to an alive column has a larger key than the run's
 * last, so the least head whose column is alive is the cheapest arc
 * between alive lines.  `cols` lists, in increasing order, the alive
 * columns and some crossed out since a refill last compacted it. */
typedef struct {
    i64 n, left_rows, left_cols, n_listed;
    const double *cost;
    char *alive; /* per column */
    i64 *cols, *head, *len;
    Key **run, *pool;
    Heap rows;
    int no_memory;
} Scan;

/* frees row i's run unless it is the row's slot in the pool */
static void free_run(Scan *s, i64 i)
{
    if (s->run[i] != s->pool + i * ROW_RUN)
        free(s->run[i]);
    s->run[i] = NULL;
}

/* Refills row i's run with its cheapest arcs to alive columns; returns
 * their number, 0 if out of memory.  The arcs it held before all go to
 * crossed-out columns now, so the new ones follow them in key order.  A
 * run holds max(ROW_RUN, alive columns / alive rows) arcs, so the runs of
 * the alive rows hold at most n + ROW_RUN m arcs, and a row re-reads the
 * alive columns only after that many of them are crossed out (a single
 * row reads them once). */
static i64 refill(Scan *s, i64 i)
{
    i64 cap = s->left_cols / s->left_rows, listed = 0;
    cap = cap < ROW_RUN ? ROW_RUN : cap;
    cap = cap > s->left_cols ? s->left_cols : cap;
    Key *run = s->pool + i * ROW_RUN;
    if (cap > ROW_RUN) {
        run = realloc(s->run[i] == run ? NULL : s->run[i], cap * sizeof *run);
        if (!run) {
            s->no_memory = 1;
            return 0;
        }
    } else {
        free_run(s, i);
    }
    s->run[i] = run;
    /* crossed-out columns stay listed until they are a ninth of the list */
    if (8 * s->n_listed > 9 * s->left_cols) {
        for (i64 t = 0; t < s->n_listed; t++)
            if (s->alive[s->cols[t]])
                s->cols[listed++] = s->cols[t];
        s->n_listed = listed;
    }
    /* a max-heap of the cap least keys to alive columns read so far;
     * once it is full, an arc that costs more than its top is passed
     * over at once */
    Heap least = { .key = run, .len = 0, .max = 1 };
    const double *row = s->cost + i * s->n;
    double limit = INFINITY;
    for (i64 t = 0; t < s->n_listed; t++) {
        i64 j = s->cols[t];
        if (row[j] > limit)
            continue;
        Key x = { row[j], i * s->n + j };
        if (!s->alive[j] || (least.len == cap && !key_less(x, run[0])))
            continue;
        if (least.len < cap)
            heap_push(&least, x);
        else
            heap_replace_top(&least, x);
        if (least.len == cap)
            limit = run[0].cost;
    }
    /* heapsort: the greatest key left goes last */
    for (i64 k = least.len - 1; k > 0; k--) {
        Key top = run[0];
        least.len = k;
        heap_replace_top(&least, run[k]);
        run[k] = top;
    }
    s->head[i] = 0;
    return s->len[i] = cap;
}

/* Moves row i, whose head is the least, to its next head whose column
 * is alive, refilling its run when it runs out. */
static void next_head(Scan *s, i64 i)
{
    i64 k = s->head[i];
    do {
        if (++k == s->len[i]) {
            if (!refill(s, i)) {
                heap_pop(&s->rows);
                return;
            }
            k = 0;
        }
    } while (!s->alive[s->run[i][k].arc % s->n]);
    s->head[i] = k;
    heap_replace_top(&s->rows, s->run[i][k]);
}

/* _least_cost_basis: the m+n-1 arcs (in arcs[], flows[]) taken by
 * scanning arcs in (cost, arc id) order and crossing out one line per
 * arc by the (remainder, epsilon) rule. */
static int least_cost_basis(i64 m, i64 n, const double *a, const double *b,
                            const double *cost, i64 *arcs, double *flows)
{
    const i64 N = m + n;
    double *rest = malloc(N * sizeof *rest);
    i64 *eps = malloc(N * sizeof *eps);
    Scan s = {
        .n = n, .left_rows = m, .left_cols = n, .n_listed = n, .cost = cost,
        .alive = malloc(n), .cols = malloc(n * sizeof(i64)),
        .head = malloc(m * sizeof(i64)), .len = malloc(m * sizeof(i64)),
        .run = calloc(m, sizeof(Key *)), .pool = malloc(m * ROW_RUN * sizeof(Key)),
        .rows = { .key = malloc(m * sizeof(Key)) },
    };
    int status = rest && eps && s.alive && s.cols && s.head && s.len && s.run && s.pool
                 && s.rows.key ? OPTIMAL : NO_MEMORY;
    i64 taken = 0;
    if (status != OPTIMAL)
        goto done;
    for (i64 u = 0; u < N; u++) {
        rest[u] = u < m ? a[u] : b[u - m];
        eps[u] = u == 0 ? -(N - 1) : u < m ? 1 : -1;
    }
    for (i64 j = 0; j < n; j++)
        s.cols[j] = j, s.alive[j] = 1;
    for (i64 i = 0; i < m && refill(&s, i); i++)
        heap_push(&s.rows, s.run[i][0]);
    /* A row leaves the heap when it is crossed out; a head whose column
     * is crossed out is passed over when it comes up. */
    status = NOT_SPANNING;
    while (s.rows.len && !s.no_memory) {
        Key top = s.rows.key[0];
        i64 i = top.arc / n, u = m + top.arc % n, out, keep;
        if (!s.alive[u - m]) {
            next_head(&s, i);
            continue;
        }
        arcs[taken] = top.arc;
        if (s.left_rows == 1 && s.left_cols == 1) {
            double f = rest[u] < rest[i] ? rest[u] : rest[i];
            flows[taken] = 0.0 > f ? 0.0 : f;
            status = OPTIMAL;
            break;
        }
        /* As in the reference: the last row (column) stays until the
         * last step, else the smaller (remainder, epsilon) goes. */
        if (s.left_cols == 1
            || (s.left_rows > 1
                && (rest[i] < rest[u] || (rest[i] == rest[u] && eps[i] < eps[u])))) {
            out = i, keep = u;
        } else {
            out = u, keep = i;
        }
        double f = 0.0 > rest[out] ? 0.0 : rest[out];
        flows[taken++] = f;
        rest[keep] -= f;
        eps[keep] -= eps[out];
        if (out == i) {
            s.left_rows--;
            free_run(&s, i);
            heap_pop(&s.rows);
        } else {
            s.left_cols--;
            s.alive[u - m] = 0;
            next_head(&s, i);
        }
    }
    if (s.no_memory)
        status = NO_MEMORY;
done:
    for (i64 i = 0; s.run && s.pool && i < m; i++)
        free_run(&s, i);
    free(rest), free(eps), free(s.alive), free(s.cols), free(s.head), free(s.len);
    free(s.run), free(s.pool), free(s.rows.key);
    return status;
}

/* _python_start after the basis: one DFS from source 0 over the
 * basis arcs (adjacency in the order taken) sets parent, parc, flow and
 * pi; its pop order is the thread, and a reverse pass over the thread
 * gives size, last, next and prev. */
static int thread_tree(i64 m, i64 n, const double *cost, const i64 *arcs,
                       const double *flows, i64 *parent, i64 *parc, double *flow,
                       i64 *size, i64 *last, i64 *next, i64 *prev, double *pi)
{
    const i64 N = m + n;
    i64 *start = calloc(N + 1, sizeof *start), *adj = malloc(2 * (N - 1) * sizeof *adj);
    i64 *thread = malloc(N * sizeof *thread), *stack = malloc(N * sizeof *stack);
    char *seen = calloc(N, 1);
    int status = start && adj && thread && stack && seen ? OPTIMAL : NO_MEMORY;
    if (status != OPTIMAL)
        goto done;
    /* adjacency lists as one array: node u's arcs are the basis indices
     * adj[start[u]..start[u+1]-1], in the order taken */
    for (i64 k = 0; k < N - 1; k++)
        start[arcs[k] / n + 1]++, start[m + arcs[k] % n + 1]++;
    for (i64 u = 0; u < N; u++)
        start[u + 1] += start[u];
    for (i64 k = 0; k < N - 1; k++)
        adj[start[arcs[k] / n]++] = k, adj[start[m + arcs[k] % n]++] = k;
    for (i64 u = N; u > 0; u--)
        start[u] = start[u - 1];
    start[0] = 0;

    i64 len = 0, top = 0;
    parent[0] = -1;
    parc[0] = 0;
    flow[0] = 0.0;
    pi[0] = 0.0;
    seen[0] = 1;
    stack[top++] = 0;
    while (top) {
        i64 u = stack[--top];
        thread[len++] = u;
        for (i64 e = start[u]; e < start[u + 1]; e++) {
            i64 arc = arcs[adj[e]], v = u < m ? m + arc % n : arc / n;
            if (seen[v])
                continue;
            seen[v] = 1;
            parent[v] = u;
            parc[v] = arc;
            flow[v] = flows[adj[e]];
            pi[v] = v >= m ? pi[u] - cost[arc] : pi[u] + cost[arc];
            stack[top++] = v;
        }
    }
    if (len != N) {
        status = NOT_SPANNING;
        goto done;
    }
    for (i64 v = 0; v < N; v++)
        size[v] = 1;
    for (i64 t = N - 1; t >= 0; t--) {
        i64 v = thread[t];
        last[v] = thread[t + size[v] - 1];
        if (t)
            size[parent[v]] += size[v];
        next[v] = thread[(t + 1) % N];
        prev[v] = thread[t ? t - 1 : N - 1];
    }
done:
    free(start), free(adj), free(thread), free(stack), free(seen);
    return status;
}

/* The least-cost basis (arcs[], flows[]: m+n-1 entries in the order
 * taken) and the tree it spans, as _python_start builds them.
 * Returns OPTIMAL, NO_MEMORY or NOT_SPANNING. */
int starting_tree(i64 m, i64 n, const double *a, const double *b, const double *cost,
                  i64 *arcs, double *flows, i64 *parent, i64 *parc, double *flow,
                  i64 *size, i64 *last, i64 *next, i64 *prev, double *pi)
{
    int status = least_cost_basis(m, n, a, b, cost, arcs, flows);
    if (status != OPTIMAL)
        return status;
    return thread_tree(m, n, cost, arcs, flows, parent, parc, flow, size, last, next, prev, pi);
}

/* ---- pivot loop ----------------------------------------------------- */

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

enum { CHUNK = 64 };

static i64 find_entering(Tree *t)
{
    const i64 n = t->n;
    for (i64 misses = 0; misses < t->n_blocks; misses++) {
        i64 lo = t->f_ptr;
        i64 hi = lo + t->block < t->num_arcs ? lo + t->block : t->num_arcs;
        t->f_ptr = hi % t->num_arcs;
        /* np.argmin(rc) is the first arc with the block's least reduced
         * cost, or the first NaN, which never prices in.  Find that least
         * value CHUNK arcs at a time, one row run of a chunk at a time,
         * and note the first chunk that lowers it: the first arc that has
         * the least value lies in that chunk. */
        double best_rc = INFINITY;
        i64 best_lo = lo, i = lo / n, j = lo % n;
        int nan = 0;
        for (i64 k = lo; k < hi; k += CHUNK) {
            i64 left = hi - k < CHUNK ? hi - k : CHUNK;
            double rc = INFINITY;
            while (left) {
                i64 run = n - j < left ? n - j : left;
                double r = row_min(t, i, j, j + run, &nan);
                rc = r < rc ? r : rc;
                left -= run;
                if ((j += run) == n)
                    i++, j = 0;
            }
            if (rc < best_rc)
                best_rc = rc, best_lo = k;
        }
        if (nan || !(best_rc < -t->opt_tol))
            continue;
        i = best_lo / n, j = best_lo % n;
        for (i64 k = best_lo; k < hi && k < best_lo + CHUNK; k++) {
            if (t->cost[k] - t->pi[i] + t->pi[t->m + j] == best_rc)
                return k;
            if (++j == n)
                i++, j = 0;
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

/* detach the subtree rooted at c (parent[c] == s), updating size and
 * last from s up to the apex, an ancestor of s */
static void remove_edge(Tree *t, i64 s, i64 c, i64 apex)
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
    for (;; s = parent[s]) {
        size[s] -= size_c;
        if (last[s] == last_c)
            last[s] = prev_c;
        if (s == apex)
            return;
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

/* attach the tree rooted at q under p via the given arc, updating size
 * and last from p up to the apex, an ancestor of p */
static void add_edge(Tree *t, i64 arc, i64 p, i64 q, double f, i64 apex)
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
    for (;; p = parent[p]) {
        size[p] += size_q;
        if (last[p] == last_p)
            last[p] = last_q;
        if (p == apex)
            return;
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

        /* As in _pivot_loop: "<=" on the q side, then "<" on the
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

        /* The subtree cut off below the apex comes back below it, so no
         * size above the apex changes, and the last thread node changes
         * only on the ancestors whose subtree ended where the apex's did. */
        i64 apex_last = last[apex];
        remove_edge(&t, parent[t_leave], t_leave, apex);
        make_root(&t, q_att);
        add_edge(&t, arc, p_att, q_att, theta, apex);
        if (last[apex] != apex_last)
            for (i64 v = parent[apex]; v != -1 && last[v] == apex_last; v = parent[v])
                last[v] = last[apex];
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

/* ---- distances ------------------------------------------------------ */

/* out[i*n + j] = |x_i - y_j| for the m rows of x and the n rows of y,
 * all of d coordinates and row-major. */
void distances(i64 m, i64 n, i64 d, const double *x, const double *y, double *out)
{
    for (i64 i = 0; i < m; i++) {
        const double *xi = x + i * d;
        for (i64 j = 0; j < n; j++) {
            const double *yj = y + j * d;
            double s = 0.0;
            for (i64 k = 0; k < d; k++) {
                double t = xi[k] - yj[k];
                s += t * t;
            }
            out[i * n + j] = sqrt(s);
        }
    }
}

/* ---- audit scorers -------------------------------------------------- */

enum { TILE = 64 };

/* A plan's support read from its row-major m x n costs C: support entry
 * k runs from source atom src[k] to target atom tgt[k]. */
typedef struct {
    i64 n;
    const i64 *src, *tgt;
    const double *C;
} Support;

/* c(x_i, y_j) for support entries i and j: the cost from the source atom
 * of entry i to the target atom of entry j. */
static double entry_cost(const Support *s, i64 i, i64 j)
{
    return s->C[s->src[i] * s->n + s->tgt[j]];
}

/* What pair_swap reads of support entry k, taken once per row of V (the
 * compiler does not hoist these loads out of the row's loop by itself):
 * its index, base cost b_k, row of C (the costs from its source atom)
 * and target atom. */
typedef struct {
    i64 k;
    double b;
    const double *row;
    i64 tgt;
} Entry;

static Entry entry(const Support *s, const double *base, i64 k)
{
    return (Entry){k, base[k], s->C + s->src[k] * s->n, s->tgt[k]};
}

/* V[k][l] of pair_scores: the pair swap of support entries k and l,
 * ((b_k + b_l) - c(x_k, y_l)) - c(x_l, y_k). */
static double pair_swap(const Support *s, const double *base, const Entry *e, i64 l)
{
    if (l == e->k)
        return -INFINITY;
    return ((e->b + base[l]) - e->row[s->tgt[l]]) - s->C[s->src[l] * s->n + e->tgt];
}

/* Pair swaps of the S support entries, as the S x S array
 * V[k][l] = ((b_k + b_l) - C[src_k][tgt_l]) - C[src_l][tgt_k] with
 * b_k = C[src_k][tgt_k] and V[k][k] = -inf.  Writes np.argmax(V), the
 * first greatest value or else the first NaN, as (k, l) to at[0..1] and
 * V there to *best.  work holds 2 S doubles: the b_k, then each row's
 * greatest value (NaN if the row has one), which a first pass finds
 * over TILE x TILE tiles of V; a second scans the first row that holds
 * the answer. */
void pair_scores(i64 S, i64 n, const i64 *src, const i64 *tgt, const double *C,
                 double *work, double *best, i64 *at)
{
    const Support sup = {n, src, tgt, C};
    double *base = work, *rowmax = work + S;
    for (i64 k = 0; k < S; k++) {
        base[k] = entry_cost(&sup, k, k);
        rowmax[k] = -INFINITY;
    }
    for (i64 k0 = 0; k0 < S; k0 += TILE) {
        i64 k1 = k0 + TILE < S ? k0 + TILE : S;
        for (i64 l0 = 0; l0 < S; l0 += TILE) {
            i64 l1 = l0 + TILE < S ? l0 + TILE : S;
            for (i64 k = k0; k < k1; k++) {
                const Entry e = entry(&sup, base, k);
                /* two running maxima, so that the comparisons do not wait
                 * on each other; max is exact, so their order does not
                 * matter */
                double m0 = rowmax[k], m1 = -INFINITY;
                int bad = m0 != m0;
                i64 l = l0;
                for (; l + 2 <= l1; l += 2) {
                    double v0 = pair_swap(&sup, base, &e, l);
                    double v1 = pair_swap(&sup, base, &e, l + 1);
                    bad |= (v0 != v0) | (v1 != v1);
                    m0 = v0 > m0 ? v0 : m0;
                    m1 = v1 > m1 ? v1 : m1;
                }
                if (l < l1) {
                    double v0 = pair_swap(&sup, base, &e, l);
                    bad |= v0 != v0;
                    m0 = v0 > m0 ? v0 : m0;
                }
                rowmax[k] = bad ? NAN : m1 > m0 ? m1 : m0;
            }
        }
    }
    /* the first row with a NaN, else the first row with the greatest value */
    i64 top_k = 0;
    double top = -INFINITY;
    for (i64 k = 0; k < S; k++) {
        if (rowmax[k] != rowmax[k]) {
            top_k = k, top = NAN;
            break;
        }
        if (rowmax[k] > top)
            top_k = k, top = rowmax[k];
    }
    *best = -INFINITY;
    at[0] = at[1] = 0;
    const Entry e = entry(&sup, base, top_k);
    for (i64 l = 0; l < S; l++) {
        double v = pair_swap(&sup, base, &e, l);
        if (top != top ? v != v : v == top) {
            *best = v;
            at[0] = top_k, at[1] = l;
            return;
        }
    }
}

enum { PREFETCH = 16 };

/* Cycles of len support entries, the rows t of `cycles` (count x len):
 * scores in order the first `limit` rows whose entries are distinct,
 * skipping the others, by (sum of b_{t_i}) - (sum of c(t_i, t_{i+1})),
 * i + 1 taken mod len, each sum taken left to right from its first term
 * as numpy's sum(axis=1) does; entries index src and tgt as in
 * pair_scores, and base[k] = b_k = C[src_k][tgt_k] is the caller's, built
 * once for all blocks of cycles.  Writes np.argmax of the scores, as a
 * row of `cycles`, to *at (-1 if none) and its score to *best; returns
 * the number of rows scored. */
i64 cycle_scores(i64 count, i64 len, i64 limit, const i64 *cycles, i64 n, const i64 *src,
                 const i64 *tgt, const double *C, const double *base, double *best, i64 *at)
{
    const Support sup = {n, src, tgt, C};
    double top = -INFINITY;
    i64 top_at = -1, scored = 0;
    for (i64 c = 0; c < count && scored < limit; c++) {
        const i64 *t = cycles + c * len;
        if (c + PREFETCH < count) {
            /* the matrix reads are random: ask for those of a later row */
            const i64 *u = t + PREFETCH * len;
            for (i64 i = 0; i < len; i++)
                __builtin_prefetch(C + src[u[i]] * n + tgt[u[i + 1 < len ? i + 1 : 0]]);
        }
        int distinct = 1;
        for (i64 s = 0; s < len; s++)
            for (i64 u = s + 1; u < len; u++)
                distinct &= t[s] != t[u];
        if (!distinct)
            continue;
        double sb = base[t[0]], sc = entry_cost(&sup, t[0], t[1]);
        for (i64 i = 1; i < len; i++)
            sb += base[t[i]];
        for (i64 i = 1; i < len - 1; i++)
            sc += entry_cost(&sup, t[i], t[i + 1]);
        sc += entry_cost(&sup, t[len - 1], t[0]);
        double v = sb - sc;
        /* the first score, then a greater one, then the first NaN */
        if (scored++ == 0 || v > top || (v != v && top == top))
            top = v, top_at = c;
    }
    *best = top;
    *at = top_at;
    return scored;
}

/* Over the m x n costs C: out[0] = max |C_ij| from 0.0 and out[1] = max
 * ((phi_i + psi_j) - C_ij) from -inf, each NaN if one of its terms is,
 * as numpy's max is. */
void certify_maxima(i64 m, i64 n, const double *phi, const double *psi, const double *C,
                    double *out)
{
    double top = 0.0, viol = -INFINITY;
    int nan = 0;
    for (i64 i = 0; i < m; i++) {
        const double *c = C + i * n, phi_i = phi[i];
        for (i64 j = 0; j < n; j++) {
            double a = fabs(c[j]), v = (phi_i + psi[j]) - c[j];
            nan |= (a != a) | (v != v) << 1;
            top = a > top ? a : top;
            viol = v > viol ? v : viol;
        }
    }
    out[0] = nan & 1 ? NAN : top;
    out[1] = nan & 2 ? NAN : viol;
}

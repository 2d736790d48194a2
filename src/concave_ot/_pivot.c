/* Compiled kernel of concave_ot: the network simplex of solver (the
 * starting tree and the pivot loop), the Euclidean distances the cost
 * matrices are made of, the scorers of two audits, verify_ccm in
 * structure and certify in solver, the nearest-atom search of the
 * isotropy audit in geometry, of snap in measures and of the map
 * reconstruction in structure, the isotropy audit's cone scan, and that
 * reconstruction's affine gradient fits.
 *
 * starting_tree is a port of the Python least-cost basis
 * (_least_cost_basis) and one-DFS thread build (_python_start), and
 * pivot_loop of the Python loop (_pivot_loop); these and the numpy
 * references of the other entry points live in tests/support.py, where
 * ReferenceKernel serves them under the names of the nine entry points,
 * and the tests require the same bits from both.  The start takes arcs
 * in the same global (cost, arc id) order, merging sorted runs of each
 * row's cheapest arcs read in place from the cost matrix, and crosses
 * lines out by the same (remainder, epsilon) rule.
 * In the loop, block pricing with Dantzig's rule inside a block, the
 * two-walk leaving rule, remove_edge / make_root / add_edge on the
 * thread, and the subtree potential update follow the reference, with
 * two shortcuts that leave every pivot and every array the same:
 * - pricing finds np.argmin's arc in two passes: the least reduced cost
 *   of the block, CHUNK arcs at a time in vectors (the lanes' minima and
 *   NaN counts merged at each row run's end), noting the first chunk that
 *   lowers it, then the first arc of that chunk that has it;
 * - the walks of remove_edge and add_edge that update size and last stop
 *   at the pivot cycle's apex.  The subtree cut off below the apex comes
 *   back below it, so no size above the apex changes, and last changes
 *   only on the ancestors whose subtree ended where the apex's did: one
 *   walk up from the apex sets those.
 * The potential update walks the entering subtree's size along the
 * thread and returns BROKEN_THREAD unless that walk ends at the subtree's
 * last node, so a wrong last cannot make it run forever.
 * Every remainder, flow, reduced cost and potential is computed by the
 * same floating-point operations in the same order, in a vector lane or
 * not; built with -ffp-contract=off (no fused multiply-add), the kernel
 * and its reference return the same bits.  distances sums the squared
 * coordinate differences in order from 0.0 and takes the square root, a
 * vector of target atoms at a time, as scipy's cdist and the numpy
 * reference _numpy_distances do, with the same bits.  cone_nearest scans
 * each apex over one window of a list of atom indices (windows may
 * overlap, so many apices can share one sorted list), sums each atom's r
 * and dot products in order from 0.0, as its reference
 * _numpy_cone_nearest does, and returns the nearest atom in each cone, the
 * lanes of a vector being directions.  nearest_atoms returns each query's
 * k least (squared distance, atom index) keys, the squares summed as
 * distances sums them, which its reference _numpy_nearest_atoms finds by
 * brute force and np.lexsort; it searches a cell grid that each call
 * builds, and stops only where no unscanned atom can have a lesser key.
 * affine_fits solves each atom's least-squares system by a one-sided
 * Jacobi SVD, one atom and one float at a time, as its Python reference
 * _python_affine_fits does.
 *
 * The audit scorers read the plan's m x n cost matrix in place and
 * allocate no array of that size; the matrix is finite, as the callers
 * check before they score.  pair_scores scores the pair swaps of all
 * support entries and cycle_scores every row of an array of cycles,
 * reading the cost of entry i's source atom and entry j's target atom at
 * C[src_i][tgt_j] (each entry's own cost at C[src_i][tgt_i]), as the
 * numpy references _numpy_pair_scores and _numpy_cycle_scores do;
 * certify_maxima returns the two maxima of _numpy_certify_maxima, a
 * vector at a time.  Each computes every value by the same operations in
 * the same order as its reference and returns numpy's first argmax or
 * max, so the reports keep their bits.  Only the scores that a finite
 * matrix can make NaN keep numpy's NaN rules: a cycle's two overflowing
 * sums (inf - inf), and a violation with a NaN potential.
 *
 * The vectors are GCC / Clang vector extensions, 32 bytes wide where the
 * compiler targets AVX and 16 otherwise (see "vectors" below).
 * _kernel._compiled_kernel builds this file with the system cc,
 * -march=native, so that the compiler uses the host's encodings and
 * vector width, and -fno-math-errno, so that a square root is one
 * instruction, lane-wise in distances: the kernel never reads errno, and
 * sqrt is correctly rounded either way.  It calls the nine entry points
 * through ctypes; there is no other path, so without a compiler every
 * solve, cost matrix and audit raises SolverError.  Node arrays
 * are indexed by node (sources 0..m-1, targets m..m+n-1) and filled or
 * updated in place; all state lives in the caller's arrays or in memory
 * allocated per call, so concurrent calls are safe.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

enum {
    OPTIMAL = 0, BUDGET_EXHAUSTED = 1, NO_LEAVING_ARC = 2, NO_MEMORY = 3, NOT_SPANNING = 4,
    BROKEN_THREAD = 5, NOT_FINITE = 6,
};

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

/* ---- vectors -------------------------------------------------------- */

/* One vector type as wide as the compiler's target allows: 32 bytes (four
 * doubles) where it targets AVX, else 16 (two doubles), a register of both
 * SSE2 and NEON, so no target emulates it.  64 bytes was slower for
 * pricing on an AVX-512 host, so AVX-512 targets get 32 too.  Lane-wise
 * arithmetic and square roots round as scalar ones do, v_min / v_max pick
 * lane by lane what the scalar x < y ? x : y and x > y ? x : y pick, and
 * the lanes are reduced in a loop in lane order; min and max are exact, so
 * every width returns the same bits. */
#ifdef __AVX__
#define VBYTES 32
#else
#define VBYTES 16
#endif

typedef double vd __attribute__((vector_size(VBYTES)));
typedef i64 vi __attribute__((vector_size(VBYTES)));

enum { LANES = VBYTES / sizeof(double) };

static vd v_load(const double *p)
{
    vd x;
    memcpy(&x, p, sizeof x); /* p need not be aligned */
    return x;
}

static void v_store(double *p, vd x)
{
    memcpy(p, &x, sizeof x);
}

static vd v_splat(double x)
{
    vd v;
    for (int k = 0; k < LANES; k++)
        v[k] = x;
    return v;
}

static vd v_select(vi mask, vd x, vd y)
{
    return (vd)(((vi)x & mask) | ((vi)y & ~mask));
}

static vd v_min(vd x, vd y)
{
    return v_select((vi)(x < y), x, y);
}

static vd v_max(vd x, vd y)
{
    return v_select((vi)(x > y), x, y);
}

/* With -fno-math-errno, GCC emits one vector square root for this loop. */
static vd v_sqrt(vd x)
{
    for (int k = 0; k < LANES; k++)
        x[k] = sqrt(x[k]);
    return x;
}

/* -1 in the lanes that are NaN, else 0: subtracting it counts them.
 * (Or-ing it in would be the same flag, but GCC compiles that to scalar
 * code on SSE2.) */
static vi v_isnan(vd x)
{
    return (vi)(x != x);
}

static int v_any(vi x)
{
    i64 any = 0;
    for (int k = 0; k < LANES; k++)
        any |= x[k];
    return any != 0;
}

/* y folded with the lanes of x, in lane order, by the scalar min or max */
static double v_fold_min(vd x, double y)
{
    for (int k = 0; k < LANES; k++)
        y = x[k] < y ? x[k] : y;
    return y;
}

static double v_fold_max(vd x, double y)
{
    for (int k = 0; k < LANES; k++)
        y = x[k] > y ? x[k] : y;
    return y;
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
 * source i, kept in the lanes of two running minima.  4 LANES reduced
 * costs a step: two vectors are compared first, so that only one
 * comparison a step waits on each running minimum; min is exact, so the
 * order does not matter.  Sets *nan if a reduced cost is NaN. */
static double row_min(const Tree *t, i64 i, i64 j0, i64 j1, int *nan)
{
    const double *c = t->cost + i * t->n, *pi_t = t->pi + t->m;
    const double pi_i = t->pi[i];
    vd lo0 = v_splat(INFINITY), lo1 = lo0;
    vi nans = {0};
    i64 j = j0;
    for (; j + 4 * LANES <= j1; j += 4 * LANES) {
        vd r0 = v_load(c + j) - pi_i + v_load(pi_t + j);
        vd r1 = v_load(c + j + LANES) - pi_i + v_load(pi_t + j + LANES);
        vd r2 = v_load(c + j + 2 * LANES) - pi_i + v_load(pi_t + j + 2 * LANES);
        vd r3 = v_load(c + j + 3 * LANES) - pi_i + v_load(pi_t + j + 3 * LANES);
        nans -= (v_isnan(r0) + v_isnan(r1)) + (v_isnan(r2) + v_isnan(r3));
        lo0 = v_min(v_min(r0, r2), lo0);
        lo1 = v_min(v_min(r1, r3), lo1);
    }
    double least = v_fold_min(v_min(lo0, lo1), INFINITY);
    int bad = v_any(nans);
    for (; j < j1; j++) {
        double r = c[j] - pi_i + pi_t[j];
        bad |= r != r;
        least = r < least ? r : least;
    }
    *nan |= bad;
    return least;
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

/* Pivots until no arc prices in; returns OPTIMAL, BUDGET_EXHAUSTED,
 * NO_LEAVING_ARC or BROKEN_THREAD and stores the pivot count in *pivots.
 * `work` is scratch space of m + n entries. */
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
            /* the subtree of q_att is its size[q_att] thread nodes from
             * q_att to last[q_att]; a thread broken by a wrong last would
             * otherwise never reach last[q_att] */
            i64 v = q_att;
            pi[v] += d;
            for (i64 k = 1; k < size[q_att]; k++) {
                v = next[v];
                pi[v] += d;
            }
            if (v != last[q_att])
                return BROKEN_THREAD;
        }
    }
}

/* ---- distances ------------------------------------------------------ */

/* out[i*n + j] = |x_i - y_j| for the m rows of x (row-major, d columns)
 * and the n columns of yt, the d x n transpose of y: LANES targets at a
 * time, each lane summing the squared coordinate differences in order
 * from 0.0 before its square root, as the scalar tail does. */
void distances(i64 m, i64 n, i64 d, const double *x, const double *yt, double *out)
{
    for (i64 i = 0; i < m; i++) {
        const double *xi = x + i * d;
        double *row = out + i * n;
        i64 j = 0;
        for (; j + LANES <= n; j += LANES) {
            vd s = {0};
            for (i64 k = 0; k < d; k++) {
                vd t = xi[k] - v_load(yt + k * n + j);
                s += t * t;
            }
            v_store(row + j, v_sqrt(s));
        }
        for (; j < n; j++) {
            double s = 0.0;
            for (i64 k = 0; k < d; k++) {
                double t = xi[k] - yt[k * n + j];
                s += t * t;
            }
            row[j] = sqrt(s);
        }
    }
}

/* ---- cone scan ------------------------------------------------------ */

/* The nearest other atom in each cone of the isotropy audit.  Apex t, row
 * t of the count x d array apex, is scanned over the atoms
 * rows[lo[t]] .. rows[hi[t] - 1], rows of the d-column array points; the
 * windows of different apices may overlap (the rescan gives each apex a
 * window of one list of the atoms, sorted along one axis).  For atom y
 * and w = y - x, coordinate by coordinate,
 * r = sqrt(w_0 w_0 + ... + w_{d-1} w_{d-1}) and, for direction j (column
 * j of the d x ndir array dirs), w.u_j = w_0 u_0j + ... + w_{d-1} u_{d-1,j},
 * each sum taken in order from 0.0.  y lies in cone (l, j) iff r > 0 and
 * w.u_j >= (1 - deltas[l]) r: r = 0 (the apex itself, or a duplicate)
 * never counts.  nearest[(t * nopen + l) * ndir + j] is the least such
 * r, NaN if the cone holds none (not +inf, which a reader's r <= eps
 * would take for a hit at eps = inf).  The directions go LANES at a
 * time; a lane takes r unless its cone already holds a nearer or equal
 * atom.  The directions, one atom's dot products and one apex's cones
 * are copied to rows of whole cache lines in one aligned block, so no
 * vector load or store straddles two lines: on buffers aligned to 16
 * bytes only, as numpy's may be, a heap layout that put every vector of
 * the dot products across a line (one of them across a page) made the
 * scan about 1.6 times slower.  Returns NO_MEMORY or 0. */
int cone_nearest(i64 count, i64 d, const double *apex, const i64 *lo, const i64 *hi,
                 const i64 *rows, const double *points, i64 ndir, const double *dirs,
                 i64 nopen, const double *deltas, double *nearest)
{
    const i64 line = 64 / sizeof(double), stride = (ndir + line - 1) / line * line;
    double *u = aligned_alloc(64, (d + 1 + nopen) * stride * sizeof *u);
    if (!u)
        return NO_MEMORY;
    double *work = u + d * stride, *near = work + stride;
    for (i64 k = 0; k < d; k++)
        memcpy(u + k * stride, dirs + k * ndir, ndir * sizeof *u);
    for (i64 t = 0; t < count; t++) {
        const double *x = apex + t * d;
        for (i64 c = 0; c < nopen * stride; c++)
            near[c] = NAN;
        for (i64 s = lo[t]; s < hi[t]; s++) {
            const double *y = points + rows[s] * d;
            double sq = 0.0;
            memset(work, 0, ndir * sizeof *work);
            for (i64 k = 0; k < d; k++) {
                const double w = y[k] - x[k], *uk = u + k * stride;
                sq += w * w;
                i64 j = 0;
                for (; j + LANES <= ndir; j += LANES)
                    v_store(work + j, v_load(work + j) + w * v_load(uk + j));
                for (; j < ndir; j++)
                    work[j] += w * uk[j];
            }
            const double r = sqrt(sq);
            if (!(r > 0.0))
                continue;
            const vd rv = v_splat(r);
            for (i64 l = 0; l < nopen; l++) {
                const double edge = (1.0 - deltas[l]) * r;
                double *cone = near + l * stride;
                i64 j = 0;
                for (; j + LANES <= ndir; j += LANES) {
                    vd cur = v_load(cone + j);
                    vi in = (vi)(v_load(work + j) >= edge) & ~(vi)(cur <= r);
                    v_store(cone + j, v_select(in, rv, cur));
                }
                for (; j < ndir; j++)
                    if (work[j] >= edge && !(cone[j] <= r))
                        cone[j] = r;
            }
        }
        for (i64 l = 0; l < nopen; l++)
            memcpy(nearest + (t * nopen + l) * ndir, near + l * stride, ndir * sizeof *near);
    }
    free(u);
    return 0;
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
 * b_k = C[src_k][tgt_k] and V[k][k] = -inf.  C must be finite: then each
 * swap subtracts finite costs from a sum of two, which may overflow to
 * +-inf but is never NaN.  Writes np.argmax(V), the first greatest
 * value, as (k, l) to at[0..1] and V there to *best.  work holds 2 S
 * doubles: the b_k, then each row's greatest value, which a first pass
 * finds over TILE x TILE tiles of V; a second scans the first row that
 * holds the greatest. */
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
                i64 l = l0;
                for (; l + 2 <= l1; l += 2) {
                    double v0 = pair_swap(&sup, base, &e, l);
                    double v1 = pair_swap(&sup, base, &e, l + 1);
                    m0 = v0 > m0 ? v0 : m0;
                    m1 = v1 > m1 ? v1 : m1;
                }
                if (l < l1) {
                    double v0 = pair_swap(&sup, base, &e, l);
                    m0 = v0 > m0 ? v0 : m0;
                }
                rowmax[k] = m1 > m0 ? m1 : m0;
            }
        }
    }
    /* the first row with the greatest value */
    i64 top_k = 0;
    double top = -INFINITY;
    for (i64 k = 0; k < S; k++)
        if (rowmax[k] > top)
            top_k = k, top = rowmax[k];
    *best = -INFINITY;
    at[0] = at[1] = 0;
    const Entry e = entry(&sup, base, top_k);
    for (i64 l = 0; l < S; l++) {
        double v = pair_swap(&sup, base, &e, l);
        if (v == top) {
            *best = v;
            at[0] = top_k, at[1] = l;
            return;
        }
    }
}

enum { PREFETCH = 16 };

/* Cycles of len support entries, the rows t of `cycles` (count x len),
 * each scored by (sum of b_{t_i}) - (sum of c(t_i, t_{i+1})), i + 1
 * taken mod len, each sum taken left to right from its first term as
 * numpy's sum(axis=1) does; entries index src and tgt as in pair_scores,
 * and b_k = C[src_k][tgt_k] is entry k's own cost.  Both sums of finite
 * costs can overflow, and inf - inf is NaN, so the first NaN wins as in
 * np.argmax.  Writes np.argmax of the scores, as a row of `cycles`, to
 * *at (-1 if count is 0) and its score to *best. */
void cycle_scores(i64 count, i64 len, const i64 *cycles, i64 n, const i64 *src, const i64 *tgt,
                  const double *C, double *best, i64 *at)
{
    const Support sup = {n, src, tgt, C};
    double top = -INFINITY;
    i64 top_at = -1;
    for (i64 c = 0; c < count; c++) {
        const i64 *t = cycles + c * len;
        if (c + PREFETCH < count) {
            /* the matrix reads are random: ask for those of a later row */
            const i64 *u = t + PREFETCH * len;
            for (i64 i = 0; i < len; i++)
                __builtin_prefetch(C + src[u[i]] * n + tgt[u[i + 1 < len ? i + 1 : 0]]);
        }
        double sb = entry_cost(&sup, t[0], t[0]), sc = entry_cost(&sup, t[0], t[1]);
        for (i64 i = 1; i < len; i++)
            sb += entry_cost(&sup, t[i], t[i]);
        for (i64 i = 1; i < len - 1; i++)
            sc += entry_cost(&sup, t[i], t[i + 1]);
        sc += entry_cost(&sup, t[len - 1], t[0]);
        double v = sb - sc;
        /* the first score, then a greater one, then the first NaN */
        if (c == 0 || v > top || (v != v && top == top))
            top = v, top_at = c;
    }
    *best = top;
    *at = top_at;
}

/* Over the m x n costs C, which must be finite: out[0] = max |C_ij| from
 * 0.0 and out[1] = max ((phi_i + psi_j) - C_ij) from -inf, NaN if one of
 * its terms is (a NaN potential), as numpy's max is; a zero out[1] is
 * +0.0.  The lanes of a vector keep running maxima and NaN counts; max is
 * exact, so their order does not matter, except for which zero wins, and
 * adding 0.0 makes that +0.0. */
void certify_maxima(i64 m, i64 n, const double *phi, const double *psi, const double *C,
                    double *out)
{
    vd topv = {0}, violv = v_splat(-INFINITY);
    vi nans = {0};
    double top = 0.0, viol = -INFINITY;
    int nan = 0;
    for (i64 i = 0; i < m; i++) {
        const double *c = C + i * n, phi_i = phi[i];
        i64 j = 0;
        for (; j + LANES <= n; j += LANES) {
            vd cj = v_load(c + j);
            vd a = (vd)((vi)cj & INT64_MAX), v = (phi_i + v_load(psi + j)) - cj;
            nans -= v_isnan(v);
            topv = v_max(a, topv);
            violv = v_max(v, violv);
        }
        for (; j < n; j++) {
            double a = fabs(c[j]), v = (phi_i + psi[j]) - c[j];
            nan |= v != v;
            top = a > top ? a : top;
            viol = v > viol ? v : viol;
        }
    }
    nan |= v_any(nans);
    out[0] = v_fold_max(topv, top);
    viol = v_fold_max(violv, viol);
    out[1] = nan ? NAN : viol + 0.0;
}

/* ---- nearest atoms -------------------------------------------------- */

/* The k nearest atoms of each query, by the key (sq, atom index) where sq
 * sums the squared coordinate differences in order from 0.0, as
 * distances does: index[q*k + i] and dist[q*k + i] = sqrt(sq) are the
 * i-th least key of query q, so the k are one set whatever the ties, and
 * the distances have cdist's bits.
 *
 * Each call builds a grid over at most GRID_AXES coordinates, the ones
 * whose sample spreads most, a sample's spread being its interquartile
 * range: a coordinate whose sample has none gets one slab.  Atom
 * i * n / S, for i < S = min(n, CUT_SAMPLE), is the sample.  The grid has
 * about n / CELL_ATOMS cells, each new part going to the axis whose
 * spread per part is widest, and a coordinate's parts are cut at
 * quantiles of its sample, repeated cuts dropped, so a clustered input
 * gets small cells where its atoms are; cell c of an axis
 * holds cut[c - 1] <= x < cut[c], the first and last cells being
 * unbounded, so an atom or a query beyond the outer cuts falls in an edge
 * cell.  A counting sort lists the atoms cell by cell, the last grid axis
 * varying fastest, so a row of cells along it is one run of atoms.
 *
 * A query scans the cells ring by ring around its own (ring r: the cells
 * r steps away along some axis and at most r along each), keeping the k
 * least keys in a max-heap (the starting tree's Heap, a key's cost being
 * sq and its arc the atom), and stops once the heap is full and its
 * greatest sq is strictly below the square of the distance from the query
 * to the nearest face of an unscanned cell along a grid axis.  An atom
 * past that face on axis a has |z_a - y_a| >= that distance, and
 * rounding is monotone, so its sq, a sum of squares that includes the
 * one of axis a, is at least that square as computed: every unscanned
 * key is greater than every kept one. */

enum { GRID_AXES = 3, CELL_ATOMS = 4, CUT_SAMPLE = 1024 };

typedef struct {
    i64 d;
    i64 axis[GRID_AXES];  /* coordinate of each grid axis */
    i64 cells[GRID_AXES]; /* 1 for a slab (and an unused axis) */
    double *cut[GRID_AXES];
    i64 *start;           /* offsets of the cells' runs, cells + 1 of them */
    i64 *atom;            /* the atoms, cell by cell */
    double *pts;          /* their coordinates, in that order */
} Grid;

static int cmp_double(const void *x, const void *y)
{
    const double a = *(const double *)x, b = *(const double *)y;
    return (a > b) - (a < b);
}

/* cell of coordinate x along grid axis a: the number of cuts <= x, by a
 * binary search with no branch on the comparisons */
static i64 grid_cell(const Grid *g, int a, double x)
{
    const double *cut = g->cut[a], *base = cut;
    i64 len = g->cells[a] - 1;
    if (!len)
        return 0;
    while (len > 1) {
        const i64 half = len / 2;
        base += (base[half - 1] <= x) * half;
        len -= half;
    }
    return (base - cut) + (*base <= x);
}

static void free_grid(Grid *g)
{
    for (int a = 0; a < GRID_AXES; a++)
        free(g->cut[a]);
    free(g->start);
    free(g->atom);
    free(g->pts);
}

/* Fills g; returns NO_MEMORY (g then holds only what free_grid frees) or 0. */
static int build_grid(Grid *g, i64 n, i64 d, const double *points)
{
    memset(g, 0, sizeof *g);
    g->d = d;
    for (int a = 0; a < GRID_AXES; a++)
        g->cells[a] = 1;
    const i64 S = n < CUT_SAMPLE ? n : CUT_SAMPLE;
    double *sample = malloc(d * (S + 1) * sizeof *sample), *spread = sample + d * S;
    if (!sample)
        return NO_MEMORY;
    for (i64 j = 0; j < d; j++) {
        double *s = sample + j * S;
        for (i64 i = 0; i < S; i++)
            s[i] = points[(i * n / S) * d + j];
        qsort(s, S, sizeof *s, cmp_double);
        spread[j] = s[3 * S / 4] - s[S / 4];
    }
    /* the grid axes in coordinate order, so that a cell's gaps are summed
     * as sq sums its atoms' squares, in the last slots, so that a run of
     * cells is along a grid axis */
    int used = 0;
    for (i64 j = 0; j < d; j++) {
        int wider = 0;
        for (i64 i = 0; i < d; i++)
            wider += spread[i] > spread[j] || (spread[i] == spread[j] && i < j);
        if (spread[j] > 0.0 && wider < GRID_AXES)
            g->axis[used++] = j;
    }
    for (int a = GRID_AXES - 1; a >= 0; a--)
        g->axis[a] = a >= GRID_AXES - used ? g->axis[a - (GRID_AXES - used)] : 0;
    /* parts per axis: one more to the axis of the widest cells, while the
     * grid has fewer than n / CELL_ATOMS cells */
    i64 parts[GRID_AXES] = {1, 1, 1}, total = 1;
    for (;;) {
        int widest = -1;
        for (int a = GRID_AXES - used; a < GRID_AXES; a++)
            if (parts[a] < S && (widest < 0 || spread[g->axis[a]] / parts[a]
                                                   > spread[g->axis[widest]] / parts[widest]))
                widest = a;
        if (widest < 0 || total * CELL_ATOMS >= n)
            break;
        total = total / parts[widest] * (parts[widest] + 1);
        parts[widest]++;
    }
    for (int a = GRID_AXES - used; a < GRID_AXES; a++) {
        const double *s = sample + g->axis[a] * S;
        double *cut = g->cut[a] = malloc(parts[a] * sizeof *cut);
        if (!cut) {
            free(sample);
            return NO_MEMORY;
        }
        i64 count = 0;
        for (i64 c = 1; c < parts[a]; c++) {
            const double x = s[c * S / parts[a]];
            if (!count || cut[count - 1] < x)
                cut[count++] = x;
        }
        g->cells[a] = count + 1;
    }
    free(sample);
    total = g->cells[0] * g->cells[1] * g->cells[2];
    i64 *cell = malloc(n * sizeof *cell);
    g->start = calloc(total + 1, sizeof *g->start);
    g->atom = malloc(n * sizeof *g->atom);
    g->pts = malloc(n * d * sizeof *g->pts);
    if (!cell || !g->start || !g->atom || !g->pts) {
        free(cell);
        return NO_MEMORY;
    }
    for (i64 i = 0; i < n; i++) {
        i64 c = 0;
        for (int a = 0; a < GRID_AXES; a++)
            c = c * g->cells[a] + grid_cell(g, a, points[i * d + g->axis[a]]);
        cell[i] = c;
        g->start[c + 1]++;
    }
    for (i64 c = 0; c < total; c++)
        g->start[c + 1] += g->start[c];
    for (i64 i = 0; i < n; i++) {
        const i64 p = g->start[cell[i]]++;
        g->atom[p] = i;
        for (i64 j = 0; j < d; j++)
            g->pts[p * d + j] = points[i * d + j];
    }
    for (i64 c = total; c > 0; c--) /* each start moved to the next's */
        g->start[c] = g->start[c - 1];
    g->start[0] = 0;
    free(cell);
    return 0;
}

/* offers the atoms of cell c to the heap of the k nearest to y */
static void scan_cell(const Grid *g, i64 c, const double *y, Heap *h, i64 k)
{
    const i64 d = g->d;
    for (i64 p = g->start[c]; p < g->start[c + 1]; p++) {
        const double *z = g->pts + p * d;
        double sq = 0.0;
        for (i64 j = 0; j < d; j++) {
            const double t = y[j] - z[j];
            sq += t * t;
        }
        const Key key = {sq, g->atom[p]};
        if (h->len < k)
            heap_push(h, key);
        else if (key_less(key, h->key[0]))
            heap_replace_top(h, key);
    }
}

/* the square of the gap from x, in cell at of grid axis a, to cell c */
static double gap2(const Grid *g, int a, i64 c, i64 at, double x)
{
    const double t = c < at ? x - g->cut[a][c] : c > at ? g->cut[a][c - 1] - x : 0.0;
    return t * t;
}

/* whether the heap of the k nearest holds k keys, each of sq < bound */
static int beyond(const Heap *h, i64 k, double bound)
{
    return h->len == k && h->key[0].cost < bound;
}

/* Fills the heap with the k least keys of query y, ring by ring.  A cell
 * whose gaps, squared and summed in coordinate order, exceed every kept
 * sq is skipped: each of its atoms' sq is at least that sum. */
static void nearest_of(const Grid *g, const double *y, Heap *h, i64 k)
{
    const i64 *m = g->cells;
    double x[GRID_AXES];
    i64 at[GRID_AXES], lo[GRID_AXES], hi[GRID_AXES];
    for (int a = 0; a < GRID_AXES; a++) {
        x[a] = y[g->axis[a]];
        at[a] = grid_cell(g, a, x[a]);
    }
    h->len = 0;
    for (i64 r = 0;; r++) {
        for (int a = 0; a < GRID_AXES; a++) {
            lo[a] = at[a] - r > 0 ? at[a] - r : 0;
            hi[a] = at[a] + r < m[a] - 1 ? at[a] + r : m[a] - 1;
        }
        for (i64 c0 = lo[0]; c0 <= hi[0]; c0++) {
            const double g0 = gap2(g, 0, c0, at[0], x[0]);
            if (beyond(h, k, g0))
                continue;
            for (i64 c1 = lo[1]; c1 <= hi[1]; c1++) {
                const double g01 = g0 + gap2(g, 1, c1, at[1], x[1]);
                if (beyond(h, k, g01))
                    continue;
                /* the whole row on the ring's faces, else its two ends */
                const int face = c0 == at[0] - r || c0 == at[0] + r || c1 == at[1] - r
                                 || c1 == at[1] + r;
                for (i64 c2 = face ? lo[2] : at[2] - r; c2 <= hi[2]; c2 += face ? 1 : 2 * r)
                    if (c2 >= 0 && !beyond(h, k, g01 + gap2(g, 2, c2, at[2], x[2])))
                        scan_cell(g, (c0 * m[1] + c1) * m[2] + c2, y, h, k);
            }
        }
        /* done when every unscanned cell lies beyond a face whose gap
         * squared exceeds every kept sq */
        double gap = INFINITY;
        int unscanned = 0;
        for (int a = 0; a < GRID_AXES; a++)
            for (i64 c = at[a] - r - 1; c <= at[a] + r + 1; c += 2 * r + 2)
                if (0 <= c && c < m[a]) {
                    const double t = gap2(g, a, c, at[a], x[a]);
                    gap = t < gap ? t : gap;
                    unscanned = 1;
                }
        if (!unscanned || beyond(h, k, gap))
            return;
    }
}

int nearest_atoms(i64 n, i64 d, const double *points, i64 count, const double *queries, i64 k,
                  i64 *index, double *dist)
{
    Grid g;
    const int status = build_grid(&g, n, d, points);
    Heap h = {status ? NULL : malloc(k * sizeof *h.key), 0, 1};
    if (!h.key) {
        free_grid(&g);
        return NO_MEMORY;
    }
    for (i64 q = 0; q < count; q++) {
        nearest_of(&g, queries + q * d, &h, k);
        for (i64 i = k - 1; i >= 0; i--) {
            index[q * k + i] = h.key[0].arc;
            dist[q * k + i] = sqrt(h.key[0].cost);
            heap_pop(&h);
        }
    }
    free(h.key);
    free_grid(&g);
    return 0;
}

/* ---- affine fits ---------------------------------------------------- */

/* The least-squares affine fit of values around each atom: atom i's k1
 * neighbours j = nb[i * k1 + r] give the k1 x (d + 1) system
 * [x_j - x_i, 1] s ~ values[j] - values[i], and grads[i * d + l] = s_l
 * for l < d, the minimum-norm solution that drops the singular values
 * <= DBL_EPSILON * k1 * (the greatest), the cutoff of numpy's lstsq with
 * rcond=None.  resid[i] = sqrt((e_0 e_0 + ... + e_{k1-1} e_{k1-1}) / k1)
 * for the misfits e_r = ((x_j - x_i) . s_{<d} + s_d) - (values[j] -
 * values[i]), each sum taken in order from 0.0.  Its Python twin is
 * _python_affine_fits.
 *
 * The fit is a one-sided Jacobi SVD (Hestenes 1958; Demmel and Veselic
 * 1992): the system is scaled by the power of two that brings its largest
 * entry into [1/2, 1), which changes no rounding while every product
 * stays in the normal range but keeps the squares of differences near
 * the overflow threshold finite; cyclic
 * sweeps then rotate each pair p < q of its columns orthogonal, by the
 * rotation that zeroes their dot product, while the dot product exceeds
 * JACOBI_TOL times the product of their norms, for at most JACOBI_SWEEPS
 * sweeps; a sweep without a rotation ends the fit.  The columns are then
 * the singular vectors times the singular values, and V, the product of
 * the rotations, maps them back to s.  A NaN value makes the fit NaN.
 * Returns NOT_FINITE, with *atom the first atom whose system has a
 * non-finite entry, NO_MEMORY or 0. */

enum { JACOBI_SWEEPS = 30 };
#define JACOBI_TOL (4 * DBL_EPSILON)

/* (x, y) <- (c x - s y, s x + c y), entry by entry */
static void rotate(double *x, double *y, i64 len, double c, double s)
{
    for (i64 r = 0; r < len; r++) {
        const double xr = x[r], yr = y[r];
        x[r] = c * xr - s * yr;
        y[r] = s * xr + c * yr;
    }
}

static double dot(const double *x, const double *y, i64 len)
{
    double sum = 0.0;
    for (i64 r = 0; r < len; r++)
        sum += x[r] * y[r];
    return sum;
}

int affine_fits(i64 n, i64 d, const double *points, i64 k1, const i64 *nb, const double *values,
                double *grads, double *resid, i64 *atom)
{
    const i64 d1 = d + 1;
    /* a: the system, and v: the product of the rotations, column by column */
    double *a = malloc((d1 * k1 + d1 * d1 + k1 + 2 * d1) * sizeof *a);
    if (!a)
        return NO_MEMORY;
    double *v = a + d1 * k1, *rhs = v + d1 * d1, *norm2 = rhs + k1, *sol = norm2 + d1;
    for (i64 i = 0; i < n; i++) {
        const double *x = points + i * d;
        double top = 1.0;
        for (i64 r = 0; r < k1; r++) {
            const i64 j = nb[i * k1 + r];
            for (i64 l = 0; l < d; l++) {
                const double t = points[j * d + l] - x[l];
                if (!isfinite(t)) {
                    free(a);
                    *atom = i;
                    return NOT_FINITE;
                }
                a[l * k1 + r] = t;
                top = fabs(t) > top ? fabs(t) : top;
            }
            rhs[r] = values[j] - values[i];
        }
        int e;
        frexp(top, &e);
        const double scale = ldexp(1.0, -e);
        for (i64 c = 0; c < d1 * k1; c++) /* the last column is the ones */
            a[c] = c < d * k1 ? a[c] * scale : scale;
        for (i64 c = 0; c < d1 * d1; c++)
            v[c] = c % (d1 + 1) == 0;
        for (int sweep = 0; sweep < JACOBI_SWEEPS; sweep++) {
            int rotated = 0;
            for (i64 p = 0; p < d1 - 1; p++)
                for (i64 q = p + 1; q < d1; q++) {
                    double *ap = a + p * k1, *aq = a + q * k1;
                    const double alpha = dot(ap, ap, k1), beta = dot(aq, aq, k1),
                                 gamma = dot(ap, aq, k1);
                    if (!(fabs(gamma) > JACOBI_TOL * (sqrt(alpha) * sqrt(beta))))
                        continue;
                    const double zeta = (beta - alpha) / (gamma + gamma),
                                 t = copysign(1.0, zeta) / (fabs(zeta) + sqrt(1.0 + zeta * zeta)),
                                 c = 1.0 / sqrt(1.0 + t * t);
                    rotate(ap, aq, k1, c, c * t);
                    rotate(v + p * d1, v + q * d1, d1, c, c * t);
                    rotated = 1;
                }
            if (!rotated)
                break;
        }
        /* s = the sum over kept columns c of v_c (a_c . rhs) / |a_c|^2,
         * scaled back */
        double top_norm = 0.0;
        for (i64 c = 0; c < d1; c++) {
            sol[c] = 0.0;
            norm2[c] = dot(a + c * k1, a + c * k1, k1);
            top_norm = sqrt(norm2[c]) > top_norm ? sqrt(norm2[c]) : top_norm;
        }
        const double cutoff = DBL_EPSILON * k1 * top_norm;
        for (i64 c = 0; c < d1; c++) {
            if (!(sqrt(norm2[c]) > cutoff))
                continue;
            const double coef = dot(a + c * k1, rhs, k1) / norm2[c];
            for (i64 l = 0; l < d1; l++)
                sol[l] += v[c * d1 + l] * coef;
        }
        for (i64 l = 0; l < d1; l++)
            sol[l] *= scale;
        double sq = 0.0;
        for (i64 r = 0; r < k1; r++) {
            const i64 j = nb[i * k1 + r];
            double fit = 0.0;
            for (i64 l = 0; l < d; l++)
                fit += (points[j * d + l] - x[l]) * sol[l];
            const double misfit = (fit + sol[d]) - rhs[r];
            sq += misfit * misfit;
        }
        for (i64 l = 0; l < d; l++)
            grads[i * d + l] = sol[l];
        resid[i] = sqrt(sq / k1);
    }
    free(a);
    return 0;
}

/* Native kernels: solver core, batch confirmation of candidate clue sets,
 * alternate-completion enumerator, clique builder (mc_cliques) and the
 * hitting-set engine, in plain C99 with no Python API.
 *
 * minclue._native loads this file through ctypes.  Semantics, emission
 * order and counters match minclue._pykernels exactly; that module is the
 * reference.  One exception in order only: with max_per_digit == 2 the
 * diff enumerator does not search the blanked board like the reference.
 * Every blanked digit must then move by a rectangle swap (see rect_swaps),
 * so it emits the same multiset of masks by combining swaps, in another
 * order.  The solver supports boards up to 16x16 (256 cells); the diff
 * enumerator, the clique builder and the hitting engine work on universes
 * of up to 128 cells, which covers every shape with a text format.  The
 * clique builder and the hitting engine take set masks as 16 little-endian
 * bytes each (cells 0..63, then 64..127).
 *
 * Results stream out through one callback type, mc_emit_fn, which receives
 * a byte buffer and returns nonzero to abort: the recursion then unwinds,
 * frees what it allocated and the entry point returns MC_ABORTED.  The diff
 * enumerator passes one 16-byte little-endian mask per call; the clique
 * builder passes all its unions in one call, two native-order u64 words
 * each; the hitting engine passes a batch of whole candidates per call, k
 * ascending cell bytes each, in emission order.
 *
 * mc_confirm judges each candidate clue set by searching for one completion
 * other than the grid, trying the grid's digit last at each branch cell;
 * the grid must be valid, so it completes every candidate.  The cells where
 * such a witness differs from the grid form an unavoidable set, so a later
 * candidate that misses them all is ambiguous too: the call keeps its last
 * witnesses and settles such a candidate by re-reading one, without a
 * search (see Memo).  The reference searches every candidate.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef uint16_t u16;
typedef uint8_t u8;

typedef int (*mc_emit_fn)(const u8 *data, int len);

enum {
    MAX_N = 16,
    MAX_CELLS = 256,
    MAX_UNITS = 48,
    MAX_K = 128,
    MAX_UNIVERSE = 128
};

enum { MC_OK = 0, MC_ABORTED = 1, MC_NO_MEMORY = -1, MC_BAD_ARGUMENT = -2 };

#if defined(__GNUC__) || defined(__clang__)
static inline int popcount64(u64 x) { return __builtin_popcountll(x); }
static inline int low_index64(u64 x) { return __builtin_ctzll(x); }
#else
static inline int popcount64(u64 x)
{
    int c = 0;
    while (x) {
        x &= x - 1;
        ++c;
    }
    return c;
}
static inline int low_index64(u64 x)
{
    int idx = 0;
    while (!(x & 1)) {
        x >>= 1;
        ++idx;
    }
    return idx;
}
#endif

/* digit of a single-bit candidate mask: bit d-1 set -> d */
static inline int bit_digit(unsigned int bit)
{
    return low_index64(bit) + 1;
}

static inline int mask_bit(u64 lo, u64 hi, int c)
{
    return c < 64 ? (int)((lo >> c) & 1) : (int)((hi >> (c - 64)) & 1);
}

static inline void set_cell(u64 *mask, int c)
{
    mask[c >> 6] |= (u64)1 << (c & 63);
}

static void store_le64(u8 *p, u64 v)
{
    for (int i = 0; i < 8; ++i, v >>= 8)
        p[i] = (u8)v;
}

static u64 load_le64(const u8 *p)
{
    u64 v = 0;
    for (int i = 7; i >= 0; --i)
        v = v << 8 | p[i];
    return v;
}

/* ------------------------------------------------------------------------
 * geometry */

typedef struct {
    int n, ncells;
    int row_of[MAX_CELLS];
    int col_of[MAX_CELLS];
    int box_of[MAX_CELLS];
    int unit_cells[MAX_UNITS][MAX_N];
} Geo;

static int build_geo(Geo *g, int box_rows, int box_cols)
{
    int n = box_rows * box_cols;
    int counts[MAX_UNITS] = {0};
    if (box_rows < 1 || box_cols < 1 || n > MAX_N)
        return 0;
    g->n = n;
    g->ncells = n * n;
    for (int c = 0; c < g->ncells; ++c) {
        int r = c / n, col = c % n;
        int b = (r / box_rows) * box_rows + col / box_cols;
        g->row_of[c] = r;
        g->col_of[c] = col;
        g->box_of[c] = b;
        g->unit_cells[r][counts[r]++] = c;
        g->unit_cells[n + col][counts[n + col]++] = c;
        g->unit_cells[2 * n + b][counts[2 * n + b]++] = c;
    }
    return 1;
}

/* ------------------------------------------------------------------------
 * solver core */

typedef struct {
    u16 row_used[MAX_N];
    u16 col_used[MAX_N];
    u16 box_used[MAX_N];
    u8 grid[MAX_CELLS];
} Board;

static inline void assign(const Geo *geo, Board *b, int c, int d)
{
    u16 bit = (u16)(1u << (d - 1));
    b->grid[c] = (u8)d;
    b->row_used[geo->row_of[c]] |= bit;
    b->col_used[geo->col_of[c]] |= bit;
    b->box_used[geo->box_of[c]] |= bit;
}

static void board_init(const Geo *geo, Board *b, const u8 *cells)
{
    memset(b, 0, sizeof(Board));
    for (int c = 0; c < geo->ncells; ++c)
        if (cells[c])
            assign(geo, b, c, cells[c]);
}

static inline unsigned int candidates(const Geo *geo, const Board *b, int c)
{
    unsigned int full = (1u << geo->n) - 1;
    return full & ~(unsigned int)(b->row_used[geo->row_of[c]]
                                  | b->col_used[geo->col_of[c]]
                                  | b->box_used[geo->box_of[c]]);
}

/* Diff budget of the alternate-completion enumerator; mirrors
 * _pykernels._DiffBudget including every structural cut. */
typedef struct {
    u8 ref[MAX_CELLS];
    int max_diff;
    int max_per_digit;
    int total;
    int deficit;
    int per_digit[MAX_N + 1];
    int digit_open[MAX_N + 1];
    int unit_blanks[MAX_UNITS];
    int unit_diffs[MAX_UNITS];
    int open_singles[3];
    u64 mask_lo;
    u64 mask_hi;
} DiffCtx;

/* Record digit d placed at cell c; 0 when any budget is exceeded. */
static int diff_note(const Geo *geo, DiffCtx *ctx, int c, int d)
{
    int n = geo->n;
    int r = ctx->ref[c];
    int differs = d != r;
    int count_before = ctx->per_digit[r];
    int open_before = ctx->digit_open[r];
    int units[3];
    int bound;
    ctx->digit_open[r] = open_before - 1;
    if (differs) {
        if (++ctx->total > ctx->max_diff)
            return 0;
        ctx->per_digit[r] = count_before + 1;
        if (ctx->per_digit[r] > ctx->max_per_digit)
            return 0;
        if (count_before < 2)
            ctx->deficit -= 1;
        if (c < 64)
            ctx->mask_lo |= (u64)1 << c;
        else
            ctx->mask_hi |= (u64)1 << (c - 64);
    }
    if (open_before == 1 && ctx->per_digit[r] < 2)
        return 0; /* digit closed while still needing changes */
    units[0] = geo->row_of[c];
    units[1] = n + geo->col_of[c];
    units[2] = 2 * n + geo->box_of[c];
    for (int kind = 0; kind < 3; ++kind) {
        int u = units[kind];
        int blanks_before = ctx->unit_blanks[u];
        int diffs_before = ctx->unit_diffs[u];
        int blanks = blanks_before - 1;
        int diffs = differs ? diffs_before + 1 : diffs_before;
        int was_open, now_open;
        ctx->unit_blanks[u] = blanks;
        ctx->unit_diffs[u] = diffs;
        if (blanks == 0 && diffs == 1)
            return 0;
        was_open = diffs_before == 1 && blanks_before > 0;
        now_open = diffs == 1 && blanks > 0;
        if (was_open != now_open)
            ctx->open_singles[kind] += now_open ? 1 : -1;
    }
    bound = ctx->open_singles[0];
    if (ctx->open_singles[1] > bound)
        bound = ctx->open_singles[1];
    if (ctx->open_singles[2] > bound)
        bound = ctx->open_singles[2];
    if (ctx->deficit > bound)
        bound = ctx->deficit;
    return ctx->total + bound <= ctx->max_diff;
}

/* Naked + hidden singles to fixpoint; -1 on contradiction or budget cut,
 * else the number of remaining blanks.  ctx may be NULL. */
static int propagate(const Geo *geo, Board *b, DiffCtx *ctx)
{
    int n = geo->n;
    unsigned int full = (1u << n) - 1;
    for (;;) {
        int changed = 0, blanks = 0;
        for (int c = 0; c < geo->ncells; ++c) {
            unsigned int cand;
            if (b->grid[c])
                continue;
            cand = candidates(geo, b, c);
            if (cand == 0)
                return -1;
            if (cand & (cand - 1)) {
                blanks += 1;
            } else {
                int d = bit_digit(cand);
                assign(geo, b, c, d);
                if (ctx != NULL && !diff_note(geo, ctx, c, d))
                    return -1;
                changed = 1;
            }
        }
        if (changed)
            continue;
        if (blanks == 0)
            return 0;
        /* hidden singles per unit */
        for (int u = 0; u < 3 * n; ++u) {
            unsigned int placed = 0, once = 0, multi = 0, need, singles;
            for (int i = 0; i < n; ++i) {
                int c = geo->unit_cells[u][i];
                int d = b->grid[c];
                if (d) {
                    placed |= 1u << (d - 1);
                } else {
                    unsigned int cand = candidates(geo, b, c);
                    multi |= once & cand;
                    once |= cand;
                }
            }
            need = full & ~placed;
            if (need & ~once)
                return -1;
            singles = need & once & ~multi;
            while (singles) {
                unsigned int low = singles & (0u - singles);
                singles ^= low;
                for (int i = 0; i < n; ++i) {
                    int c = geo->unit_cells[u][i];
                    if (b->grid[c] == 0 && (candidates(geo, b, c) & low)) {
                        int d = bit_digit(low);
                        assign(geo, b, c, d);
                        if (ctx != NULL && !diff_note(geo, ctx, c, d))
                            return -1;
                        changed = 1;
                        break;
                    }
                }
            }
        }
        if (!changed)
            return blanks;
    }
}

/* Blank cell with the fewest candidates, lowest index on ties. */
static int pick_branch_cell(const Geo *geo, const Board *b)
{
    int best_c = -1, best_count = 1 << 30;
    for (int c = 0; c < geo->ncells; ++c) {
        int count;
        if (b->grid[c])
            continue;
        count = popcount64(candidates(geo, b, c));
        if (count < best_count) {
            best_count = count;
            best_c = c;
            if (count <= 2)
                break;
        }
    }
    return best_c;
}

/* Count completions up to `limit`, copying the first two found to
 * out[0..ncells) and out[ncells..2*ncells). */
static int solve_rec(const Geo *geo, Board *b, int limit, int *saved, u8 *out)
{
    int blanks = propagate(geo, b, NULL);
    int c, total = 0;
    unsigned int cand;
    if (blanks < 0)
        return 0;
    if (blanks == 0) {
        if (*saved < 2)
            memcpy(out + (*saved)++ * geo->ncells, b->grid, geo->ncells);
        return 1;
    }
    c = pick_branch_cell(geo, b);
    cand = candidates(geo, b, c);
    while (cand) {
        unsigned int low = cand & (0u - cand);
        Board nb = *b;
        cand ^= low;
        assign(geo, &nb, c, bit_digit(low));
        total += solve_rec(geo, &nb, limit - total, saved, out);
        if (total >= limit)
            break;
    }
    return total;
}

/* Returns the completion count (saturated at `limit`) or MC_BAD_ARGUMENT
 * for an unsupported shape.  `out` holds 2 * (box_rows*box_cols)^2 bytes. */
int mc_solve_limit(int box_rows, int box_cols, const u8 *cells, int limit,
                   u8 *out)
{
    Geo geo;
    Board board;
    int saved = 0;
    if (!build_geo(&geo, box_rows, box_cols))
        return MC_BAD_ARGUMENT;
    board_init(&geo, &board, cells);
    return solve_rec(&geo, &board, limit, &saved, out);
}

/* ------------------------------------------------------------------------
 * batch confirmation of candidate clue sets */

enum { CONFIRM_AMBIGUOUS = 0, CONFIRM_PROPER = 1, CONFIRM_UNSAFE = 2 };

/* 1 when every unit of `grid` is a permutation of 1..n.  Reads only the
 * unit tables, none of the solver's propagation state. */
static int grid_ok(const Geo *geo, const u8 *grid)
{
    int n = geo->n;
    unsigned int full = (1u << n) - 1;
    for (int u = 0; u < 3 * n; ++u) {
        unsigned int seen = 0;
        for (int i = 0; i < n; ++i) {
            int d = grid[geo->unit_cells[u][i]];
            if (d < 1 || d > n)
                return 0;
            seen |= 1u << (d - 1);
        }
        if (seen != full)
            return 0;
    }
    return 1;
}

/* 1 when `grid` passes grid_ok and extends `clues` (0 for blanks). */
static int completion_ok(const Geo *geo, const u8 *grid, const u8 *clues)
{
    if (!grid_ok(geo, grid))
        return 0;
    for (int c = 0; c < geo->ncells; ++c)
        if (clues[c] && grid[c] != clues[c])
            return 0;
    return 1;
}

/* Search the completions of b for one other than `grid`, trying grid's
 * digit last at each branch cell.  Returns 1 with that completion in out;
 * 0 when the search is exhausted, having set *reached when it completed
 * to `grid` itself.  With grid's digit last, grid is the last completion
 * the search can reach, so reaching it ends the search. */
static int witness_rec(const Geo *geo, Board *b, const u8 *grid, int *reached,
                       u8 *out)
{
    int blanks = propagate(geo, b, NULL);
    int c;
    unsigned int cand, own;
    if (blanks < 0)
        return 0;
    if (blanks == 0) {
        if (memcmp(b->grid, grid, geo->ncells) == 0) {
            *reached = 1;
            return 0;
        }
        memcpy(out, b->grid, geo->ncells);
        return 1;
    }
    c = pick_branch_cell(geo, b);
    cand = candidates(geo, b, c);
    own = cand & (1u << (grid[c] - 1));
    cand ^= own;
    while (cand) {
        unsigned int low = cand & (0u - cand);
        Board nb = *b;
        cand ^= low;
        assign(geo, &nb, c, bit_digit(low));
        if (witness_rec(geo, &nb, grid, reached, out))
            return 1;
    }
    if (!own)
        return 0;
    assign(geo, b, c, grid[c]); /* the last branch: b is not needed after */
    return witness_rec(geo, b, grid, reached, out);
}

/* Witnesses that the searches of one mc_confirm call returned, most
 * recently used first.  A witness W differs from the grid on a set D of
 * cells, and W and the grid are two completions of any clue set that
 * misses D: D is unavoidable.  A candidate that misses some stored D is
 * therefore ambiguous, and memo_hit confirms it on W itself, a grid that
 * passed completion_ok and differs from the grid: W must hold the grid's
 * digit at every clue cell.  The masks span MAX_CELLS, every board
 * mc_confirm accepts; a slot lives for one call. */
enum { MEMO_SLOTS = 64, MEMO_WORDS = MAX_CELLS / 64 };

typedef struct {
    int used;                          /* slots filled */
    int words;                         /* mask words the board needs */
    u8 order[MEMO_SLOTS];              /* slot indices, most recent first */
    u64 diff[MEMO_SLOTS][MEMO_WORDS];  /* cells where the witness differs */
    u8 grid[MEMO_SLOTS][MAX_CELLS];    /* the witness */
} Memo;

/* 1 when a stored witness misses the candidate's clue mask and holds the
 * grid's digits at its k clue cells; that witness moves to the front. */
static int memo_hit(Memo *memo, const u64 *clue_mask, const u8 *cand, int k,
                    const u8 *digits)
{
    for (int p = 0; p < memo->used; ++p) {
        int s = memo->order[p], w = 0, j = 0;
        while (w < memo->words && !(memo->diff[s][w] & clue_mask[w]))
            ++w;
        if (w < memo->words)
            continue;
        while (j < k && memo->grid[s][cand[j]] == digits[cand[j]])
            ++j;
        if (j < k)
            continue;
        memmove(memo->order + 1, memo->order, (size_t)p);
        memo->order[0] = (u8)s;
        return 1;
    }
    return 0;
}

/* Store `witness` at the front, over the least recently used slot when the
 * memo is full. */
static void memo_add(Memo *memo, int ncells, const u8 *witness, const u8 *digits)
{
    int s = memo->used < MEMO_SLOTS ? memo->used++ : memo->order[MEMO_SLOTS - 1];
    memmove(memo->order + 1, memo->order, (size_t)(memo->used - 1));
    memo->order[0] = (u8)s;
    memset(memo->diff[s], 0, sizeof memo->diff[s]);
    for (int c = 0; c < ncells; ++c)
        if (witness[c] != digits[c])
            set_cell(memo->diff[s], c);
    memcpy(memo->grid[s], witness, (size_t)ncells);
}

/* Write one verdict per candidate to verdicts[0..count); mirrors
 * _pykernels.confirm.  A candidate that a stored witness settles (memo_hit)
 * is CONFIRM_AMBIGUOUS.  Otherwise the search for a completion other than
 * `digits` (witness_rec) decides it: CONFIRM_AMBIGUOUS when it returns one
 * that differs from `digits` and passes completion_ok, which is then
 * stored, CONFIRM_PROPER when it is exhausted having reached only
 * `digits`, which passes completion_ok, and CONFIRM_UNSAFE otherwise.
 * `cells` holds count * k cell indices, k per candidate.  Returns MC_OK, or
 * MC_BAD_ARGUMENT for an unsupported shape, k < 1, a `digits` that is not a
 * valid grid or a cell index outside the board (checked before any
 * verdict). */
int mc_confirm(int box_rows, int box_cols, const u8 *digits, int k, int count,
               const u8 *cells, u8 *verdicts)
{
    Geo geo;
    Memo memo;
    u8 clues[MAX_CELLS];
    u8 out[MAX_CELLS];
    size_t total = (size_t)count * (size_t)(k > 0 ? k : 0);
    if (!build_geo(&geo, box_rows, box_cols) || k < 1 || count < 0)
        return MC_BAD_ARGUMENT;
    if (!grid_ok(&geo, digits))
        return MC_BAD_ARGUMENT;
    for (size_t i = 0; i < total; ++i)
        if (cells[i] >= geo.ncells)
            return MC_BAD_ARGUMENT;
    memo.used = 0;
    memo.words = (geo.ncells + 63) >> 6;
    for (int i = 0; i < count; ++i) {
        const u8 *cand = cells + (size_t)i * k;
        u64 clue_mask[MEMO_WORDS] = {0};
        Board board;
        int reached = 0;
        u8 verdict = CONFIRM_UNSAFE;
        for (int j = 0; j < k; ++j)
            set_cell(clue_mask, cand[j]);
        if (memo_hit(&memo, clue_mask, cand, k, digits)) {
            verdicts[i] = CONFIRM_AMBIGUOUS;
            continue;
        }
        memset(clues, 0, geo.ncells);
        for (int j = 0; j < k; ++j)
            clues[cand[j]] = digits[cand[j]];
        board_init(&geo, &board, clues);
        if (witness_rec(&geo, &board, digits, &reached, out)) {
            if (memcmp(out, digits, geo.ncells) != 0 && completion_ok(&geo, out, clues)) {
                verdict = CONFIRM_AMBIGUOUS;
                memo_add(&memo, geo.ncells, out, digits);
            }
        } else if (reached && completion_ok(&geo, digits, clues)) {
            verdict = CONFIRM_PROPER;
        }
        verdicts[i] = verdict;
    }
    return MC_OK;
}

/* ------------------------------------------------------------------------
 * alternate-completion enumeration */

static int emit_mask(u64 lo, u64 hi, mc_emit_fn emit)
{
    u8 buf[16];
    store_le64(buf, lo);
    store_le64(buf + 8, hi);
    return emit(buf, 16) ? MC_ABORTED : MC_OK;
}

static int diff_rec(const Geo *geo, Board *b, DiffCtx *ctx, mc_emit_fn emit)
{
    int blanks = propagate(geo, b, ctx);
    int c;
    unsigned int cand;
    if (blanks < 0)
        return MC_OK;
    if (blanks == 0)
        return (ctx->mask_lo || ctx->mask_hi) ? emit_mask(ctx->mask_lo, ctx->mask_hi, emit)
                                               : MC_OK;
    c = pick_branch_cell(geo, b);
    cand = candidates(geo, b, c);
    while (cand) {
        unsigned int low = cand & (0u - cand);
        int d = bit_digit(low);
        Board nb = *b;
        DiffCtx nctx = *ctx;
        cand ^= low;
        assign(geo, &nb, c, d);
        if (diff_note(geo, &nctx, c, d) && diff_rec(geo, &nb, &nctx, emit))
            return MC_ABORTED;
    }
    return MC_OK;
}

/* Rectangle swaps: the max_per_digit == 2 case, exactly.
 *
 * The budget makes every blanked digit change at least twice, so with a cap
 * of two each blanked digit d leaves exactly two of its cells, (r1,c1) and
 * (r2,c2), and keeps every other one.  Those keep d in all rows and columns
 * but r1, r2, c1, c2, so d moves to (r1,c2) and (r2,c1): a rectangle swap.
 * It keeps d once per box iff r1, r2 share a band or c1, c2 share a stack,
 * and it is possible only when all four cells are blank.  A completion is
 * then one swap per blanked digit whose filled cells are exactly the
 * vacated cells; every completion is one such choice, and each choice is
 * one completion, so this emits the same masks as diff_rec (in another
 * order) without searching the board. */

enum { RECT_MAX_SWAPS = MAX_N * (MAX_N - 1) / 2 };

typedef struct {
    u64 vac[2];   /* the two cells the digit leaves */
    u64 fill[2];  /* the two cells it moves to */
} Swap;

typedef struct {
    int ndigits;                 /* blanked digits, in ascending order */
    u64 cells[MAX_N][2];         /* every cell of the i-th blanked digit */
    int nswaps[MAX_N];
    Swap swaps[MAX_N][RECT_MAX_SWAPS];
    mc_emit_fn emit;
} RectCtx;

/* Pick a swap for blanked digit i onward.  filled/vacated hold the cells
 * of the swaps chosen so far, placed the cells of digits 0..i-1.  A swap is
 * kept when its filled cells are free and when afterwards every filled
 * cell of a placed digit is one that digit vacated; at the last digit every
 * filled cell is such a cell, and filled and vacated both hold 2*ndigits
 * cells, so they are equal. */
static int rect_rec(const RectCtx *rc, int i, const u64 *filled,
                    const u64 *vacated, const u64 *placed)
{
    u64 p[2];
    if (i == rc->ndigits)
        return emit_mask(vacated[0], vacated[1], rc->emit);
    p[0] = placed[0] | rc->cells[i][0];
    p[1] = placed[1] | rc->cells[i][1];
    for (int s = 0; s < rc->nswaps[i]; ++s) {
        const Swap *sw = &rc->swaps[i][s];
        u64 f[2], v[2];
        int ok = 1;
        for (int w = 0; w < 2; ++w) {
            f[w] = filled[w] | sw->fill[w];
            v[w] = vacated[w] | sw->vac[w];
            if ((filled[w] & sw->fill[w]) || (f[w] & p[w] & ~v[w]))
                ok = 0;
        }
        if (ok && rect_rec(rc, i + 1, f, v, p))
            return MC_ABORTED;
    }
    return MC_OK;
}

static int rect_swaps(const Geo *geo, int box_rows, int box_cols,
                      const u8 *solution, const u64 *blank, int max_diff,
                      mc_emit_fn emit)
{
    int n = geo->n;
    int col_in_row[MAX_N + 1][MAX_N];
    int blanked[MAX_N + 1] = {0};
    u64 none[2] = {0, 0};
    RectCtx *rc;
    int status;
    for (int c = 0; c < geo->ncells; ++c) {
        col_in_row[solution[c]][geo->row_of[c]] = geo->col_of[c];
        if (mask_bit(blank[0], blank[1], c))
            blanked[solution[c]] = 1;
    }
    rc = calloc(1, sizeof(RectCtx));
    if (rc == NULL)
        return MC_NO_MEMORY;
    rc->emit = emit;
    for (int d = 1; d <= n; ++d) {
        int i;
        if (!blanked[d])
            continue;
        i = rc->ndigits++;
        for (int r = 0; r < n; ++r)
            set_cell(rc->cells[i], r * n + col_in_row[d][r]);
        for (int r1 = 0; r1 < n; ++r1) {
            for (int r2 = r1 + 1; r2 < n; ++r2) {
                int c1 = col_in_row[d][r1], c2 = col_in_row[d][r2];
                int corners[4] = {r1 * n + c1, r2 * n + c2, r1 * n + c2, r2 * n + c1};
                Swap *sw;
                int all_blank = 1;
                if (r1 / box_rows != r2 / box_rows && c1 / box_cols != c2 / box_cols)
                    continue;
                for (int j = 0; j < 4; ++j)
                    all_blank &= mask_bit(blank[0], blank[1], corners[j]);
                if (!all_blank)
                    continue;
                sw = &rc->swaps[i][rc->nswaps[i]++];
                set_cell(sw->vac, corners[0]);
                set_cell(sw->vac, corners[1]);
                set_cell(sw->fill, corners[2]);
                set_cell(sw->fill, corners[3]);
            }
        }
    }
    status = MC_OK;
    if (rc->ndigits > 0 && 2 * rc->ndigits <= max_diff)
        status = rect_rec(rc, 0, none, none, none);
    free(rc);
    return status;
}

/* Emit, as 16-byte little-endian cell masks, the cells where bounded
 * alternate completions of `solution` (blank cells given by the mask
 * blank_lo | blank_hi << 64) differ from it; see
 * _pykernels.enumerate_diffs for the contract.  max_per_digit == 2 goes to
 * rect_swaps, every other budget to the blanked-board search below.
 * Returns MC_BAD_ARGUMENT for an unsupported shape or a `solution` that is
 * not a valid grid (rect_swaps reads each digit's column in every row). */
int mc_enumerate_diffs(int box_rows, int box_cols, const u8 *solution,
                       u64 blank_lo, u64 blank_hi, int max_diff,
                       int max_per_digit, mc_emit_fn emit)
{
    Geo geo;
    u8 base_cells[MAX_CELLS];
    int blank_cells[MAX_CELLS];
    int n_blanks = 0, n;
    DiffCtx proto;
    if (!build_geo(&geo, box_rows, box_cols) || geo.ncells > MAX_UNIVERSE)
        return MC_BAD_ARGUMENT;
    n = geo.n;
    if (!grid_ok(&geo, solution))
        return MC_BAD_ARGUMENT;
    if (max_per_digit == 2) {
        u64 blank[2] = {blank_lo, blank_hi};
        return rect_swaps(&geo, box_rows, box_cols, solution, blank, max_diff, emit);
    }
    memset(&proto, 0, sizeof(DiffCtx));
    proto.max_diff = max_diff;
    proto.max_per_digit = max_per_digit;
    for (int c = 0; c < geo.ncells; ++c) {
        proto.ref[c] = solution[c];
        if (mask_bit(blank_lo, blank_hi, c)) {
            base_cells[c] = 0;
            blank_cells[n_blanks++] = c;
            proto.unit_blanks[geo.row_of[c]] += 1;
            proto.unit_blanks[n + geo.col_of[c]] += 1;
            proto.unit_blanks[2 * n + geo.box_of[c]] += 1;
            proto.digit_open[solution[c]] += 1;
        } else {
            base_cells[c] = solution[c];
        }
    }
    for (int d = 1; d <= n; ++d)
        if (proto.digit_open[d])
            proto.deficit += 2;

    /* split on the smallest changed cell: blanks below it are pinned to
     * the reference digits, so each completion is reached exactly once */
    for (int split = 0; split < n_blanks; ++split) {
        int c0 = blank_cells[split];
        Board board;
        DiffCtx ctx = proto;
        unsigned int cand;
        board_init(&geo, &board, base_cells);
        for (int i = 0; i < split; ++i) {
            int c = blank_cells[i];
            assign(&geo, &board, c, proto.ref[c]);
            if (!diff_note(&geo, &ctx, c, proto.ref[c]))
                return MC_OK; /* longer pinned prefixes fail at the same cell */
        }
        cand = candidates(&geo, &board, c0) & ~(1u << (proto.ref[c0] - 1));
        while (cand) {
            unsigned int low = cand & (0u - cand);
            int d = bit_digit(low);
            Board nb = board;
            DiffCtx nctx = ctx;
            cand ^= low;
            assign(&geo, &nb, c0, d);
            if (diff_note(&geo, &nctx, c0, d) && diff_rec(&geo, &nb, &nctx, emit))
                return MC_ABORTED;
        }
    }
    return MC_OK;
}

/* ------------------------------------------------------------------------
 * cliques */

/* Unions of `degree` pairwise-disjoint sets among the `count` masks, 16
 * little-endian bytes each (cells 0..63, then 64..127): the nested loop of
 * _pykernels.cliques, walked with an explicit stack, so a large degree
 * needs no C stack.  Level 0 tries indices start..count-1; level l tries
 * start-l up to the index taken at level l-1; the first `cap` unions
 * found at the last level are the result.  They go to emit in one call
 * (none when there are none) as two native-order u64 words each.  Returns
 * MC_OK, MC_ABORTED when emit asked to stop, MC_NO_MEMORY, or
 * MC_BAD_ARGUMENT for count < 0, degree < 2, start < degree - 1 or
 * cap < 1. */
int mc_cliques(int count, const u8 *masks, int degree, int start, int cap,
               mc_emit_fn emit)
{
    u64 *words, *acc, *out = NULL;
    int *idx;
    int level = 0, len = 0, room = 0, status = MC_OK;
    if (count < 0 || degree < 2 || start < degree - 1 || cap < 1)
        return MC_BAD_ARGUMENT;
    if (start >= count || degree > count)
        return MC_OK;
    words = malloc((size_t)count * 2 * sizeof(u64));
    acc = malloc((size_t)degree * 2 * sizeof(u64));
    idx = malloc((size_t)degree * sizeof(int));
    if (words == NULL || acc == NULL || idx == NULL) {
        status = MC_NO_MEMORY;
        goto done;
    }
    for (int i = 0; i < 2 * count; ++i)
        words[i] = load_le64(masks + 8 * (size_t)i);
    /* acc[2l..2l+1]: the union of the sets taken at the levels above l */
    acc[0] = acc[1] = 0;
    idx[0] = start;
    while (level >= 0) {
        int i = idx[level];
        u64 lo, hi;
        if (i >= (level == 0 ? count : idx[level - 1])) {
            if (--level >= 0)
                ++idx[level];
            continue;
        }
        lo = words[2 * i];
        hi = words[2 * i + 1];
        if ((lo & acc[2 * level]) | (hi & acc[2 * level + 1])) {
            ++idx[level];
            continue;
        }
        lo |= acc[2 * level];
        hi |= acc[2 * level + 1];
        if (level < degree - 1) {
            ++level;
            acc[2 * level] = lo;
            acc[2 * level + 1] = hi;
            idx[level] = start - level;
            continue;
        }
        if (len == room) {
            /* the byte length handed to emit is an int */
            enum { MOST = INT_MAX / 16 };
            int grown = room < (MOST - 64) / 2 ? 2 * room + 64 : MOST;
            u64 *bigger = grown > room ? realloc(out, (size_t)grown * 2 * sizeof(u64)) : NULL;
            if (bigger == NULL) {
                status = MC_NO_MEMORY;
                goto done;
            }
            out = bigger;
            room = grown;
        }
        out[2 * len] = lo;
        out[2 * len + 1] = hi;
        if (++len == cap)
            break;
        ++idx[level];
    }
    if (len > 0 && emit((const u8 *)out, len * 16))
        status = MC_ABORTED;
done:
    free(words);
    free(acc);
    free(idx);
    free(out);
    return status;
}

/* ------------------------------------------------------------------------
 * hitting-set engine */

/* One degree's family and its rows.  Every node at the trigger level
 * consolidates the degree to the sets still unhit there, at most `cap` of
 * them, in slot order; `consolidations` counts those nodes, one per
 * consolidated degree.  When cap >= m_orig every unhit set is kept in the
 * same order and only slot numbers change, and the sole reader of slot
 * numbers is a degree-1 selection window that ends inside the family.  So
 * `rebuilds` is 0 when cap >= m_orig and, for degree 1, no level from the
 * trigger on has 0 < window < m_orig: the consolidation is counted but
 * builds nothing, the subtree reads the original table, and the *_cons
 * arrays are never allocated. */
typedef struct {
    int degree;
    int m_orig;        /* family size before consolidation */
    int words_orig;
    u64 *table_orig;   /* hit rows: [universe][words_orig] */
    u64 *masks_orig;   /* cell masks: [m_orig][2] */
    int trigger;       /* consolidation level, -1 when none */
    int rebuilds;      /* 1 when consolidating can change what is read */
    int cap;           /* retained cap, clamped to m_orig */
    int words_cap;     /* layout stride of the consolidated table */
    int m_cons;        /* family size after the current consolidation */
    u64 *table_cons;   /* [universe][words_cap] */
    u64 *masks_cons;   /* [cap][2] */
    int check_level;   /* degree>=2 prune level, -1 when none */
    int last_level;    /* deepest level whose state row is stored: the
                          trigger, or the level before the check level
                          (its checks read that row ORed with a cell's) */
    u64 *statevec;     /* [k+1][words_orig] */
    long long cuts;
    u8 *cut_levels;    /* [k+1] flags: a cut happened at that level */
} DegState;

typedef struct {
    int universe;
    int k;
    int ndeg;
    DegState *deg;
    DegState *deg1;    /* the degree-1 state, NULL if none */
    u64 dead_lo[MAX_K + 1];
    u64 dead_hi[MAX_K + 1];
    int hitset[MAX_K];
    const int *windows;
    const int *counts;
    mc_emit_fn emit;
    u8 *batch;         /* emitted candidates not yet passed to emit */
    int batch_len;     /* bytes used in batch */
    int batch_size;    /* bytes of a full batch: candidates per call * k */
    long long nodes;
    long long emitted;
    long long selection_cuts;
    long long consolidations;
} Engine;

/* epoch seen by the entry checks of a node at `level` */
static inline int consolidated_pre(const DegState *st, int level)
{
    return st->rebuilds && level > st->trigger;
}

/* epoch seen after this node ran its consolidations */
static inline int consolidated_post(const DegState *st, int level)
{
    return st->rebuilds && level >= st->trigger;
}

static inline int row_all_ones(const u64 *row, int m)
{
    int words = m >> 6, rem = m & 63;
    for (int w = 0; w < words; ++w)
        if (row[w] != ~(u64)0)
            return 0;
    return !rem || row[words] == (((u64)1 << rem) - 1);
}

/* 1 when the entry checks of a node at `level` find every set of the
 * degree hit (or none left to hit). */
static inline int all_hit(const DegState *st, int level)
{
    int m = consolidated_pre(st, level) ? st->m_cons : st->m_orig;
    return m == 0
           || row_all_ones(st->statevec + (size_t)level * st->words_orig, m);
}

/* all_hit for the node's child through cell c, read from the node's state
 * row and the cell's row without storing the child's row. */
static inline int child_all_hit(const DegState *st, int level, int c)
{
    int cons = consolidated_post(st, level);
    int m = cons ? st->m_cons : st->m_orig;
    int words = m >> 6, rem = m & 63;
    const u64 *row = (cons ? st->table_cons : st->table_orig)
                     + (size_t)c * (cons ? st->words_cap : st->words_orig);
    const u64 *src = st->statevec + (size_t)level * st->words_orig;
    for (int w = 0; w < words; ++w)
        if ((src[w] | row[w]) != ~(u64)0)
            return 0;
    return !rem || (src[words] | row[words]) == (((u64)1 << rem) - 1);
}

/* Child state row at level + 1: the row at `level` OR the row of cell c in
 * the table in force below this node. */
static inline void build_row(DegState *st, int level, int c)
{
    int cons = consolidated_post(st, level);
    int words = cons ? st->words_cap : st->words_orig;
    const u64 *row = (cons ? st->table_cons : st->table_orig) + (size_t)c * words;
    const u64 *src = st->statevec + (size_t)level * st->words_orig;
    u64 *dst = st->statevec + (size_t)(level + 1) * st->words_orig;
    for (int w = 0; w < words; ++w)
        dst[w] = src[w] | row[w];
}

/* Set `bit` in the rows col[c * stride] of the cells c = base + i of
 * every bit i of `cells`. */
static inline void scatter_cells(u64 *col, int stride, u64 cells, int base, u64 bit)
{
    while (cells) {
        col[(size_t)(base + low_index64(cells)) * stride] |= bit;
        cells &= cells - 1;
    }
}

/* Rebuild the degree's table over the first `cap` unhit slots of its state
 * row at `level`, kept in slot order; the state row becomes all-zero in the
 * new width.  Unhit slots are the set bits of the row's complement, taken a
 * word at a time up to m_orig.  Each kept slot's cell mask is scattered
 * into its bit of the new table, so the cost follows the kept sets' sizes,
 * not the universe.  Dead cells are left out: they cannot be chosen
 * below this node, so their rows are never read.  Runs only when the
 * degree `rebuilds` (see DegState). */
static void consolidate_degree(Engine *eng, DegState *st, int level)
{
    u64 *sv = st->statevec + (size_t)level * st->words_orig;
    u64 alive_lo = ~eng->dead_lo[level], alive_hi = ~eng->dead_hi[level];
    int m_new = 0;
    memset(st->table_cons, 0, (size_t)eng->universe * st->words_cap * sizeof(u64));
    for (int w = 0; w < st->words_orig && m_new < st->cap; ++w) {
        u64 unhit = ~sv[w];
        while (unhit && m_new < st->cap) {
            int i = (w << 6) + low_index64(unhit);
            u64 lo, hi, *col, bit;
            if (i >= st->m_orig)
                break; /* only the last word runs past m_orig */
            unhit &= unhit - 1;
            lo = st->masks_orig[i * 2];
            hi = st->masks_orig[i * 2 + 1];
            st->masks_cons[m_new * 2] = lo;
            st->masks_cons[m_new * 2 + 1] = hi;
            col = st->table_cons + (m_new >> 6);
            bit = (u64)1 << (m_new & 63);
            scatter_cells(col, st->words_cap, lo & alive_lo, 0, bit);
            scatter_cells(col, st->words_cap, hi & alive_hi, 64, bit);
            m_new += 1;
        }
    }
    st->m_cons = m_new;
    memset(sv, 0, st->words_orig * sizeof(u64));
}

/* Index of the degree-1 set to draw from, or -1 to cut the branch.  The
 * unhit slots are the set bits of the state row's complement, taken a word
 * at a time in slot order.  The scan takes min effective size (live cells)
 * over the unhit slots below the level's window, looking at no more than
 * its count of them; ties go to the lower slot, and a set with no live
 * cell ends the scan and cuts the branch.  When it has looked at none, it
 * takes the first unhit slot.  Slots past m in the last word read as
 * unhit, so the scan stops at the first unhit slot at or past `end` (m, or
 * the window) or past the count.  A node selects only while some set is
 * unhit, so when no slot below `end` is, the first one past it is a set of
 * the family. */
static int select_slot(Engine *eng, int level)
{
    DegState *st = eng->deg1;
    const u64 *sv = st->statevec + (size_t)level * st->words_orig;
    int cons = consolidated_post(st, level);
    int m = cons ? st->m_cons : st->m_orig;
    const u64 *masks = cons ? st->masks_cons : st->masks_orig;
    int count = eng->counts[level];
    int end = eng->windows[level] < m ? eng->windows[level] : m;
    u64 alive_lo = ~eng->dead_lo[level], alive_hi = ~eng->dead_hi[level];
    int best = -1, best_eff = 1 << 30, seen = 0;
    for (int w = 0; (w << 6) < m; ++w) {
        u64 unhit = ~sv[w];
        while (unhit) {
            int i = (w << 6) + low_index64(unhit), eff;
            unhit &= unhit - 1;
            if (i >= end || seen == count) /* best_eff > 0 here */
                return best >= 0 ? best : i;
            eff = popcount64(masks[i * 2] & alive_lo)
                  + popcount64(masks[i * 2 + 1] & alive_hi);
            if (eff < best_eff) {
                best_eff = eff;
                best = i;
                if (eff == 0) {
                    eng->selection_cuts += 1;
                    return -1;
                }
            }
            seen += 1;
        }
    }
    return best;
}

/* Append the cells drawn so far plus `extra`, ascending, to the batch;
 * pass the batch to emit when it is full. */
static int emit_cells(Engine *eng, const int *extra, int n_extra, int level)
{
    int total = level + n_extra;
    u8 *buf = eng->batch + eng->batch_len;
    for (int i = 0; i < total; ++i) {
        int v = i < level ? eng->hitset[i] : extra[i - level];
        int j = i - 1;
        while (j >= 0 && buf[j] > v) {
            buf[j + 1] = buf[j];
            j -= 1;
        }
        buf[j + 1] = (u8)v;
    }
    eng->emitted += 1;
    eng->batch_len += total;
    if (eng->batch_len < eng->batch_size)
        return MC_OK;
    eng->batch_len = 0;
    return eng->emit(eng->batch, eng->batch_size) ? MC_ABORTED : MC_OK;
}

/* Emit every completion of the drawn cells by k - level further live
 * cells (the drawn cells are dead). */
static int free_fill(Engine *eng, int level)
{
    int need = eng->k - level;
    int avail[MAX_UNIVERSE], idx[MAX_K], extra[MAX_K];
    int n_avail = 0;
    if (need == 0)
        return emit_cells(eng, NULL, 0, level);
    for (int c = 0; c < eng->universe; ++c)
        if (!mask_bit(eng->dead_lo[level], eng->dead_hi[level], c))
            avail[n_avail++] = c;
    if (need > n_avail)
        return MC_OK;
    for (int i = 0; i < need; ++i)
        idx[i] = i;
    for (;;) {
        int i;
        for (i = 0; i < need; ++i)
            extra[i] = avail[idx[i]];
        if (emit_cells(eng, extra, need, level))
            return MC_ABORTED;
        i = need - 1;
        while (i >= 0 && idx[i] == n_avail - need + i)
            i -= 1;
        if (i < 0)
            return MC_OK;
        idx[i] += 1;
        for (int j = i + 1; j < need; ++j)
            idx[j] = idx[j - 1] + 1;
    }
}

/* The degree checks of a node at `level`: at the first checked degree
 * with an unhit set, count the cut and return 1.  With c >= 0 the node is
 * the child through cell c of a node at level - 1, whose rows it reads. */
static int degree_cut(Engine *eng, int level, int c)
{
    for (int di = 0; di < eng->ndeg; ++di) {
        DegState *st = &eng->deg[di];
        if (st->check_level != level)
            continue;
        if (c >= 0 ? !child_all_hit(st, level - 1, c) : !all_hit(st, level)) {
            st->cuts += 1;
            st->cut_levels[level] = 1;
            return 1;
        }
    }
    return 0;
}

static int recurse(Engine *eng, int level)
{
    DegState *d1 = eng->deg1;
    const u64 *masks;
    u64 set_lo, set_hi, branch_lo, branch_hi;
    int sel, child = level + 1;
    eng->nodes += 1;
    if (d1 == NULL || all_hit(d1, level))
        return free_fill(eng, level);
    if (level == eng->k)
        return MC_OK;
    /* every other node had its degree checks run by its parent */
    if (level == 0 && degree_cut(eng, 0, -1))
        return MC_OK;
    for (int di = 0; di < eng->ndeg; ++di) {
        if (eng->deg[di].trigger == level) {
            if (eng->deg[di].rebuilds)
                consolidate_degree(eng, &eng->deg[di], level);
            eng->consolidations += 1;
        }
    }
    sel = select_slot(eng, level);
    if (sel < 0)
        return MC_OK;
    masks = consolidated_post(d1, level) ? d1->masks_cons : d1->masks_orig;
    set_lo = masks[sel * 2];
    set_hi = masks[sel * 2 + 1];
    branch_lo = set_lo & ~eng->dead_lo[level];
    branch_hi = set_hi & ~eng->dead_hi[level];
    while (branch_lo || branch_hi) {
        u64 below_lo, below_hi;
        int c;
        if (branch_lo) {
            c = low_index64(branch_lo);
            branch_lo &= branch_lo - 1;
        } else {
            c = 64 + low_index64(branch_hi);
            branch_hi &= branch_hi - 1;
        }
        /* The child's entry checks run here.  Its degree-1 row comes
         * first.  A child whose degree-1 row is all hit, or at level k,
         * free-fills or stops and reads no other row.  For any other
         * child the degrees checked at its level are tested on this
         * node's rows ORed with cell c's, without storing the result; a
         * child they cut is counted as its own entry would count it and
         * goes no further.  A surviving child gets the rows of the
         * degrees whose last stored level it has not passed. */
        build_row(d1, level, c);
        if (child < eng->k && !all_hit(d1, child)) {
            if (degree_cut(eng, child, c)) {
                eng->nodes += 1;
                continue;
            }
            for (int di = 0; di < eng->ndeg; ++di) {
                DegState *st = &eng->deg[di];
                if (st != d1 && child <= st->last_level)
                    build_row(st, level, c);
            }
        }
        eng->hitset[level] = c;
        /* cells of the drawn-from set up to c die in the subtree */
        if (c < 64) {
            below_lo = set_lo & (c == 63 ? ~(u64)0 : ((u64)1 << (c + 1)) - 1);
            below_hi = 0;
        } else {
            below_lo = set_lo;
            below_hi = set_hi & (c == 127 ? ~(u64)0 : ((u64)1 << (c - 63)) - 1);
        }
        eng->dead_lo[level + 1] = eng->dead_lo[level] | below_lo;
        eng->dead_hi[level + 1] = eng->dead_hi[level] | below_hi;
        if (recurse(eng, level + 1))
            return MC_ABORTED;
    }
    return MC_OK;
}

static int init_degree(Engine *eng, DegState *st, int degree, int m,
                       const u8 *masks, int check_level, int trigger, int cap)
{
    int universe = eng->universe;
    int words = m > 0 ? (m + 63) >> 6 : 1;
    st->degree = degree;
    st->m_orig = m;
    st->words_orig = words;
    st->check_level = check_level;
    st->trigger = trigger;
    st->last_level = degree == 1 ? eng->k
                     : check_level - 1 > trigger ? check_level - 1 : trigger;
    st->table_orig = calloc((size_t)universe * words, sizeof(u64));
    st->masks_orig = calloc((size_t)(m > 0 ? m : 1) * 2, sizeof(u64));
    st->statevec = calloc((size_t)(eng->k + 1) * words, sizeof(u64));
    if (!st->table_orig || !st->masks_orig || !st->statevec)
        return MC_NO_MEMORY;
    for (int i = 0; i < m; ++i) {
        u64 lo = load_le64(masks + 16 * (size_t)i);
        u64 hi = load_le64(masks + 16 * (size_t)i + 8);
        u64 outside_hi = universe >= 128 ? 0
                         : universe > 64 ? hi >> (universe - 64)
                                         : hi;
        u64 outside_lo = universe >= 64 ? 0 : lo >> universe;
        if (outside_lo || outside_hi)
            return MC_BAD_ARGUMENT;
        st->masks_orig[i * 2] = lo;
        st->masks_orig[i * 2 + 1] = hi;
        for (int c = 0; c < universe; ++c)
            if (mask_bit(lo, hi, c))
                st->table_orig[(size_t)c * words + (i >> 6)] |= (u64)1 << (i & 63);
    }
    st->rebuilds = trigger >= 0 && cap < m;
    if (trigger >= 0 && degree == 1)
        for (int level = trigger; level < eng->k; ++level)
            st->rebuilds |= eng->windows[level] > 0 && eng->windows[level] < m;
    if (st->rebuilds) {
        st->cap = m == 0 ? 1 : (cap < m ? cap : m);
        if (st->cap < 1)
            st->cap = 1;
        st->words_cap = (st->cap + 63) >> 6;
        st->table_cons = calloc((size_t)universe * st->words_cap, sizeof(u64));
        st->masks_cons = calloc((size_t)st->cap * 2, sizeof(u64));
        if (!st->table_cons || !st->masks_cons)
            return MC_NO_MEMORY;
    }
    return MC_OK;
}

/* Positional twin of _pykernels.run_hitting: every k-subset of the
 * universe that hits each degree-1 set, emitted exactly once through the
 * dead-cell rule.  Per degree di (ascending, degree 1 first when present):
 * sizes[di] masks of 16 little-endian bytes each (cells 0..63, then
 * 64..127), concatenated over all degrees in `masks`; check_levels[di] or
 * -1; triggers[di] or -1 with caps[di].  Per level below k: the selection
 * bounds windows and counts (see select_slot).  Candidates go to emit in
 * batches, k ascending cell bytes each: `batch` candidates per call, the
 * rest in one last call (none when nothing is left).  On return stats
 * holds nodes, emitted, selection_cuts, consolidations and then the cut
 * count per degree; cut_levels holds k+1 flags per degree.  Returns MC_OK,
 * MC_ABORTED when emit asked to stop, MC_NO_MEMORY, or MC_BAD_ARGUMENT for
 * sizes out of range (batch < 1 included) or a mask with cells outside the
 * universe. */
int mc_run_hitting(int universe, int k, int ndeg, const int *degrees,
                   const int *sizes, const u8 *masks,
                   const int *check_levels, const int *triggers,
                   const int *caps, const int *windows,
                   const int *counts, mc_emit_fn emit, int batch,
                   long long *stats, u8 *cut_levels)
{
    Engine *eng;
    int status = MC_OK;
    if (universe < 1 || universe > MAX_UNIVERSE || k < 1 || k > universe
        || ndeg < 0 || batch < 1 || batch > INT_MAX / k)
        return MC_BAD_ARGUMENT;
    eng = calloc(1, sizeof(Engine));
    if (eng == NULL)
        return MC_NO_MEMORY;
    eng->batch_size = batch * k;
    eng->deg = calloc(ndeg > 0 ? ndeg : 1, sizeof(DegState));
    eng->batch = malloc((size_t)eng->batch_size);
    if (eng->deg == NULL || eng->batch == NULL) {
        free(eng->deg);
        free(eng->batch);
        free(eng);
        return MC_NO_MEMORY;
    }
    eng->universe = universe;
    eng->k = k;
    eng->ndeg = ndeg;
    eng->windows = windows;
    eng->counts = counts;
    eng->emit = emit;
    memset(cut_levels, 0, (size_t)ndeg * (k + 1));
    for (int di = 0; di < ndeg && status == MC_OK; ++di) {
        DegState *st = &eng->deg[di];
        st->cut_levels = cut_levels + (size_t)di * (k + 1);
        status = init_degree(eng, st, degrees[di], sizes[di], masks,
                             check_levels[di], triggers[di], caps[di]);
        masks += (size_t)16 * sizes[di];
        if (degrees[di] == 1)
            eng->deg1 = st;
    }
    if (status == MC_OK)
        status = recurse(eng, 0);
    if (status == MC_OK && eng->batch_len > 0)
        status = eng->emit(eng->batch, eng->batch_len) ? MC_ABORTED : MC_OK;
    stats[0] = eng->nodes;
    stats[1] = eng->emitted;
    stats[2] = eng->selection_cuts;
    stats[3] = eng->consolidations;
    for (int di = 0; di < ndeg; ++di) {
        DegState *st = &eng->deg[di];
        stats[4 + di] = st->cuts;
        free(st->table_orig);
        free(st->masks_orig);
        free(st->statevec);
        free(st->table_cons);
        free(st->masks_cons);
    }
    free(eng->deg);
    free(eng->batch);
    free(eng);
    return status;
}

//! # sj-twolayer
//!
//! The two-layer space-oriented partitioning join for non-point data
//! (Tsitsigkos et al., arXiv:2307.09256): a set-at-a-time intersection
//! join that partitions both relations over a uniform cell grid and —
//! unlike classic PBSM-style replication joins — never produces a
//! duplicate result pair, so no dedup pass (and no result sorting or
//! hashing) is needed.
//!
//! ## The algebra
//!
//! Each rectangle is replicated into every cell its extent overlaps
//! (the cell-grid *cover*), and within each cell it is classified by
//! which corner of its cover the cell is:
//!
//! - **A** — the cell containing the rectangle's lower-left corner
//!   (`x1`, `y1`): its *home* cell, exactly one per rectangle;
//! - **B** — same cell row as home, but a later column (the rectangle
//!   entered from the left);
//! - **C** — same cell column as home, but a later row (entered from
//!   below);
//! - **D** — later column *and* later row (entered diagonally).
//!
//! A pair of intersecting rectangles `r ⋈ s` is reported only in the
//! cell containing the intersection's **reference point**
//! `p = (max(r.x1, s.x1), max(r.y1, s.y1))` — the lower-left corner of
//! the (non-empty) intersection, which lies in exactly one cell. Because
//! the cell grid's axis mapping is monotone, `p`'s cell column is the
//! later of the two home columns and its row the later of the two home
//! rows; so within a cell only class combinations where at least one
//! side is in {A, C} (x-axis: some `x1` starts here) *and* at least one
//! is in {A, B} (y-axis: some `y1` starts here) can own a pair. Of the
//! 16 combinations that leaves exactly **nine**:
//! `AA, AB, AC, AD, BA, BC, CA, CB, DA` — the remaining seven
//! (`BB, BD, CC, CD, DB, DC, DD`) are provably duplicates of a pair
//! already reported elsewhere and are never executed.
//!
//! Better still, the class definitions make parts of the intersection
//! test redundant. E.g. for `r ∈ A, s ∈ B`: `s` entered the cell from
//! the left, so `s.x1 < cell.x1 ≤ r.x1 ≤ r.x2` and the test
//! `s.x1 ≤ r.x2` always holds — only `r.x1 ≤ s.x2` and the y-overlap
//! remain. Every non-AA mini-join drops at least one comparison this
//! way; `DA` needs only two of the four.
//!
//! ## Both predicates
//!
//! The same machinery answers the paper framework's *within-range* point
//! joins: a point is a degenerate zero-area rectangle (`x1 = x2`,
//! `y1 = y2`) whose cover is a single cell, so every data point is class
//! A and only the `*A` mini-joins fire. Closed-rectangle tie semantics
//! are bit-identical to the scalar point-in-rect test, so the registry's
//! cross-technique agreement over point workloads holds unchanged.
//!
//! ## Layout
//!
//! The cell grid is near-square whatever the data's aspect ratio (about
//! one cell per 32 data rows), because strip-shaped cells replicate
//! rectangles along their short side. Both relations are partitioned by
//! one counting sort into a single flat arena of `(id, rect)` rows,
//! bucketed by (cell, side, class), so a join allocates nothing once the
//! arena has grown to the input. Each mini-join is a nested loop without
//! a data-dependent branch: the reduced test is a non-short-circuit `&`
//! of comparisons, every candidate id is written to a stack batch, and
//! the batch cursor advances by the test's outcome.

use std::num::NonZeroUsize;

use sj_base::batch::BatchJoin;
use sj_base::geom::Rect;
use sj_base::table::{EntryId, ExtentTable, PointTable};
use sj_base::tile::TileGrid;

/// Class offsets within a side's four arena buckets (see crate docs):
/// A = 0b00, B = 0b01 (later column), C = 0b10 (later row), D = 0b11.
const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const D: usize = 3;

/// Arena buckets per cell: the query side's four classes, then the data
/// side's — bucket `cell * 8 + side + class`.
const BUCKETS_PER_CELL: usize = 8;
const QUERY: usize = 0;
const DATA: usize = 4;

/// Auto cell sizing: aim for this many data rows per cell. Mini-joins
/// are nested loops, so cells stay small; correctness is independent of
/// the choice (any monotone grid yields the same exactly-once output).
const AUTO_TARGET_PER_CELL: usize = 32;
/// Auto cell sizing: never more cells than this — beyond it the
/// per-cell bookkeeping outweighs the shrinking mini-joins.
const AUTO_MAX_CELLS: usize = 4096;

/// Candidates tested per branchless emission batch (a power of two, so
/// the batch index mask is free).
const EMIT_BATCH: usize = 64;

/// A partitioned row: its id and rectangle (points are degenerate rects).
type Row = (EntryId, Rect);

/// See crate docs. Scratch buffers are reused across ticks so
/// steady-state joins allocate nothing.
///
/// ```
/// use sj_base::batch::BatchJoin;
/// use sj_base::{ExtentTable, Rect};
/// use sj_twolayer::TwoLayerJoin;
///
/// let mut table = ExtentTable::default();
/// table.push(Rect::new(0.0, 0.0, 10.0, 10.0));
/// table.push(Rect::new(5.0, 5.0, 15.0, 15.0));
/// table.push(Rect::new(90.0, 90.0, 95.0, 95.0));
///
/// // Self-join: each querier's region is its own extent.
/// let queries: Vec<_> = (0..3u32).map(|i| (i, table.rect(i))).collect();
/// let mut pairs = Vec::new();
/// TwoLayerJoin::new().join_extents(&table, &queries, &mut pairs);
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoLayerJoin {
    /// Requested cell count, or `None` for the auto rule.
    cells: Option<NonZeroUsize>,
    /// Data-side rows — points become degenerate rects.
    s_rows: Vec<Row>,
    /// Bucket bounds into `arena`: bucket `k` is
    /// `arena[starts[k]..starts[k + 1]]` once a join has partitioned.
    starts: Vec<usize>,
    /// Every replica of both sides, grouped by (cell, side, class) by
    /// one counting sort; only the first `starts[buckets]` are in use.
    arena: Vec<Row>,
}

impl TwoLayerJoin {
    /// Auto-sized cell grid: about one cell per 32 data rows, capped
    /// near 4096 cells. Correctness never depends on the granularity.
    pub fn new() -> TwoLayerJoin {
        TwoLayerJoin::default()
    }

    /// About `cells` cells, shaped like the auto grid — correctness is
    /// grid-independent, so this only trades partitioning overhead
    /// against mini-join size.
    pub fn with_cells(cells: NonZeroUsize) -> TwoLayerJoin {
        TwoLayerJoin {
            cells: Some(cells),
            ..TwoLayerJoin::default()
        }
    }

    /// The requested cell count for `data_rows` data rectangles.
    fn cell_count(&self, data_rows: usize) -> NonZeroUsize {
        match self.cells {
            Some(n) => n,
            None => NonZeroUsize::new((data_rows / AUTO_TARGET_PER_CELL).clamp(1, AUTO_MAX_CELLS))
                .expect("clamp(1, ..) is non-zero"),
        }
    }

    /// Partition `self.s_rows` (data) and `queries` (query side) over a
    /// cell grid and execute the nine mini-joins per cell. Every
    /// intersecting `(querier, data row)` pair is pushed exactly once;
    /// `out` is append-only and never post-processed.
    fn join_rows(&mut self, queries: &[Row], out: &mut Vec<(EntryId, EntryId)>) {
        if self.s_rows.is_empty() || queries.is_empty() {
            return;
        }
        let rects = self.s_rows.iter().chain(queries).map(|&(_, r)| r);
        let Some(bounds) = rects.reduce(|a, r| a.union(&r)) else {
            return;
        };
        let grid = square_grid(&bounds, self.cell_count(self.s_rows.len()));
        // `extend` grows an empty `out` to the first batch's length and
        // doubles from there, so its capacity would land anywhere in
        // `[pairs, 2 * pairs)`, and a caller that reuses it across ticks
        // would realloc again whenever a tick has a few more pairs. One
        // full batch up front makes the growth powers of two, as `push`
        // growth is.
        out.reserve(EMIT_BATCH);
        let buckets = grid.tiles() * BUCKETS_PER_CELL;

        // Counting sort of every replica into one arena. The count pass
        // tallies bucket `k` in `starts[k + 2]`; the prefix sum turns
        // `starts[k + 1]` into bucket `k`'s start, which the scatter pass
        // advances to its end — leaving bucket `k` at
        // `starts[k]..starts[k + 1]`.
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(buckets + 2, 0);
        for (rows, side) in [(&self.s_rows[..], DATA), (queries, QUERY)] {
            for_each_replica(&grid, rows, side, |k, _| starts[k + 2] += 1);
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let total = starts[buckets + 1];
        if self.arena.len() < total {
            if self.arena.capacity() < total {
                // Replace rather than grow: the old rows are dead, and a
                // realloc would hold both copies at once and double the
                // capacity. An eighth of headroom absorbs tick-to-tick
                // drift in replication, so a steady input allocates once.
                self.arena = Vec::new();
                self.arena.reserve_exact(total + total / 8);
            }
            self.arena.resize(total, (0, Rect::default()));
        }
        let arena = &mut self.arena;
        for (rows, side) in [(&self.s_rows[..], DATA), (queries, QUERY)] {
            for_each_replica(&grid, rows, side, |k, row| {
                arena[starts[k + 1]] = row;
                starts[k + 1] += 1;
            });
        }

        // The nine executed mini-joins with their reduced tests, each a
        // non-short-circuit `&` of comparisons. The skipped class
        // combinations (BB, BD, CC, CD, DB, DC, DD) are exactly those
        // where the pair's reference point cannot lie in this cell —
        // their pairs are owned by an earlier cell.
        let y_ov = |r: &Rect, s: &Rect| (r.y1 <= s.y2) & (s.y1 <= r.y2);
        let x_ov = |r: &Rect, s: &Rect| (r.x1 <= s.x2) & (s.x1 <= r.x2);
        for cell in 0..grid.tiles() {
            let bucket = |side: usize, class: usize| {
                let k = cell * BUCKETS_PER_CELL + side + class;
                &self.arena[starts[k]..starts[k + 1]]
            };
            let (r, s) = (|class| bucket(QUERY, class), |class| bucket(DATA, class));
            mini(r(A), s(A), |a, b| x_ov(a, b) & y_ov(a, b), out);
            mini(r(A), s(B), |a, b| (a.x1 <= b.x2) & y_ov(a, b), out);
            mini(r(A), s(C), |a, b| (a.y1 <= b.y2) & x_ov(a, b), out);
            mini(r(A), s(D), |a, b| (a.x1 <= b.x2) & (a.y1 <= b.y2), out);
            mini(r(B), s(A), |a, b| (b.x1 <= a.x2) & y_ov(a, b), out);
            mini(r(B), s(C), |a, b| (b.x1 <= a.x2) & (a.y1 <= b.y2), out);
            mini(r(C), s(A), |a, b| x_ov(a, b) & (b.y1 <= a.y2), out);
            mini(r(C), s(B), |a, b| (a.x1 <= b.x2) & (b.y1 <= a.y2), out);
            mini(r(D), s(A), |a, b| (b.x1 <= a.x2) & (b.y1 <= a.y2), out);
        }
    }
}

/// Near-square grid of about `want` cells over `bounds`. The short axis
/// gets `round(√(want · short / long))` cells and the long axis enough
/// for square cells, capped at `⌈want / short cells⌉`. Whenever `want`
/// is at least the aspect ratio (long side / short side), every cell is
/// within 2:1 of square; fewer cells than that cannot be square without
/// exceeding `want`. A zero-extent axis gets one cell, so degenerate
/// bounds (every rect on one vertical or horizontal line) still split
/// along the other axis.
fn square_grid(bounds: &Rect, want: NonZeroUsize) -> TileGrid {
    let want = want.get();
    let (w, h) = (bounds.width(), bounds.height());
    let (long, short) = if w >= h { (w, h) } else { (h, w) };
    // Float-to-int `as` saturates (NaN to 0), and the clamps keep every
    // count in 1..=want, so overflowing or NaN extents stay well-formed.
    let (n_long, n_short) = if short > 0.0 {
        let n_short = ((want as f32 * short / long).sqrt().round() as usize).clamp(1, want);
        let square = (long / short * n_short as f32).round() as usize;
        (square.clamp(1, want.div_ceil(n_short)), n_short)
    } else if long > 0.0 {
        (want, 1)
    } else {
        (1, 1)
    };
    let (nx, ny) = if w >= h {
        (n_long, n_short)
    } else {
        (n_short, n_long)
    };
    let dim = |n| NonZeroUsize::new(n).expect("clamped to at least one cell");
    TileGrid::with_dims(bounds, dim(nx), dim(ny))
}

/// Call `f(bucket, row)` for every replica of every row: each rect goes
/// to every cell of its cover, classified by corner ownership relative
/// to its home cell (the cell of its lower-left corner, which is where
/// the cover's column and row ranges start).
#[inline]
fn for_each_replica(grid: &TileGrid, rows: &[Row], side: usize, mut f: impl FnMut(usize, Row)) {
    let nx = grid.nx();
    for &row in rows {
        let (cols, cell_rows) = grid.cover_ranges(&row.1);
        let (hx, hy) = (cols.start, cell_rows.start);
        for ty in cell_rows {
            for tx in cols.clone() {
                let class = (((ty > hy) as usize) << 1) | (tx > hx) as usize;
                f((ty * nx + tx) * BUCKETS_PER_CELL + side + class, row);
            }
        }
    }
}

/// One mini-join: a nested loop with the combination's reduced test and
/// no data-dependent branch. Every candidate id is written to a stack
/// batch and the cursor advances by the test's `bool`, so only matches
/// are kept; each batch reaches `out` in one `extend`.
#[inline(always)]
fn mini(
    rs: &[Row],
    ss: &[Row],
    test: impl Fn(&Rect, &Rect) -> bool,
    out: &mut Vec<(EntryId, EntryId)>,
) {
    let mut batch: [EntryId; EMIT_BATCH] = [0; EMIT_BATCH];
    for &(q, qr) in rs {
        for chunk in ss.chunks(EMIT_BATCH) {
            let mut n = 0;
            for &(sid, sr) in chunk {
                // `n` never passes the chunk index, so the mask only
                // spares the bounds check.
                batch[n % EMIT_BATCH] = sid;
                n += test(&qr, &sr) as usize;
            }
            out.extend(batch[..n].iter().map(|&sid| (q, sid)));
        }
    }
}

impl BatchJoin for TwoLayerJoin {
    fn name(&self) -> &str {
        "Two-Layer Partitioning"
    }

    /// Within-range point join: data points become degenerate zero-area
    /// rectangles (always class A in their single home cell), then the
    /// same nine-combo machinery runs. Tie semantics are identical to
    /// the scalar point-in-rect test.
    fn join(
        &mut self,
        table: &PointTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        self.s_rows.clear();
        self.s_rows.reserve(table.live_len());
        for (id, p) in table.iter() {
            self.s_rows.push((id, Rect::new(p.x, p.y, p.x, p.y)));
        }
        self.join_rows(queries, out);
    }

    fn supports_intersect(&self) -> bool {
        true
    }

    fn join_extents(
        &mut self,
        data: &ExtentTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        self.s_rows.clear();
        self.s_rows.reserve(data.live_len());
        for (id, rect) in data.iter() {
            self.s_rows.push((id, rect));
        }
        self.join_rows(queries, out);
    }

    fn fork(&self) -> Box<dyn BatchJoin + Send> {
        // Scratch buffers are per-instance caches; a clone gives a
        // parallel worker its own, so strip and tile joins never
        // contend.
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::batch::NaiveBatchJoin;
    use sj_base::rng::Xoshiro256;

    const SIDE: f32 = 1_000.0;

    /// `n` random rects with sides in `[0, 60]` (including degenerate
    /// zero-area ones at the distribution's edge).
    fn random_extents(n: usize, seed: u64) -> ExtentTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = ExtentTable::default();
        for _ in 0..n {
            let x = rng.range_f32(0.0, SIDE - 60.0);
            let y = rng.range_f32(0.0, SIDE - 60.0);
            let w = rng.range_f32(0.0, 60.0);
            let h = rng.range_f32(0.0, 60.0);
            t.push(Rect::new(x, y, x + w, y + h));
        }
        t
    }

    fn self_join_queries(t: &ExtentTable) -> Vec<(EntryId, Rect)> {
        (0..t.len() as u32)
            .filter(|&i| t.is_live(i))
            .map(|i| (i, t.rect(i)))
            .collect()
    }

    /// Brute-force reference: every live pair tested with the full
    /// closed intersection predicate.
    fn brute_force(t: &ExtentTable, qs: &[(EntryId, Rect)]) -> Vec<(EntryId, EntryId)> {
        let mut out = Vec::new();
        NaiveBatchJoin.join_extents(t, qs, &mut out);
        out.sort_unstable();
        out
    }

    /// `n` random rects with sides up to 6% of each axis inside a
    /// `w × h` space (a zero axis makes every rect degenerate on it).
    fn extents_in(n: usize, w: f32, h: f32, seed: u64) -> ExtentTable {
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = ExtentTable::default();
        for _ in 0..n {
            let (dw, dh) = (rng.range_f32(0.0, 0.06) * w, rng.range_f32(0.0, 0.06) * h);
            let x = rng.range_f32(0.0, 1.0) * (w - dw);
            let y = rng.range_f32(0.0, 1.0) * (h - dh);
            t.push(Rect::new(x, y, x + dw, y + dh));
        }
        t
    }

    /// The exactly-once pin: the raw emission (never deduplicated)
    /// has the brute-force pair count and, sorted, the same pairs.
    fn assert_exactly_once(j: &mut TwoLayerJoin, t: &ExtentTable, what: &str) {
        let qs = self_join_queries(t);
        let expected = brute_force(t, &qs);
        let mut raw = Vec::new();
        j.join_extents(t, &qs, &mut raw);
        assert_eq!(raw.len(), expected.len(), "{what}");
        raw.sort_unstable();
        assert_eq!(raw, expected, "{what}");
    }

    fn cells(n: usize) -> TwoLayerJoin {
        TwoLayerJoin::with_cells(NonZeroUsize::new(n).unwrap())
    }

    #[test]
    fn emits_each_intersecting_pair_exactly_once_with_no_dedup() {
        let t = random_extents(400, 11);
        let qs = self_join_queries(&t);
        let expected = brute_force(&t, &qs);
        let mut raw = Vec::new();
        TwoLayerJoin::new().join_extents(&t, &qs, &mut raw);
        // The no-dedup pin: the RAW emit count equals the pair count —
        // nothing was filtered, sorted, or uniqued after emission.
        assert_eq!(raw.len(), expected.len());
        raw.sort_unstable();
        assert_eq!(raw, expected);
        // And the result genuinely contains duplicates-free output
        // (the equality above implies it; the windows check documents
        // that `expected` itself has no duplicates to hide behind).
        assert!(raw.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn exactly_once_holds_across_cell_granularities() {
        // Near-square grids for prime and semiprime requests too: 781 =
        // 71 × 11 is the count exact factoring turns into strips, and
        // 4093 is prime.
        let t = random_extents(250, 23);
        for n in [1usize, 2, 3, 5, 7, 13, 16, 64, 97, 311, 781, 4093] {
            assert_exactly_once(&mut cells(n), &t, &format!("cells={n}"));
        }
    }

    #[test]
    fn exactly_once_across_aspect_ratios() {
        for (w, h) in [(1_000.0, 1_000.0), (10_000.0, 1_000.0), (100.0, 10_000.0)] {
            let t = extents_in(300, w, h, 81);
            assert_exactly_once(&mut TwoLayerJoin::new(), &t, &format!("{w}x{h} auto"));
            for n in [7usize, 64, 781] {
                assert_exactly_once(&mut cells(n), &t, &format!("{w}x{h} cells={n}"));
            }
        }
    }

    #[test]
    fn exactly_once_on_degenerate_bounds() {
        // Zero width: every rect is a vertical segment at the same x.
        // Zero height: horizontal segments at the same y. Both zero:
        // every row is the same point, so every pair intersects.
        for (w, h) in [(0.0, 1_000.0), (1_000.0, 0.0), (0.0, 0.0)] {
            let t = extents_in(120, w, h, 91);
            assert_exactly_once(&mut TwoLayerJoin::new(), &t, &format!("{w}x{h} auto"));
            assert_exactly_once(&mut cells(64), &t, &format!("{w}x{h} cells=64"));
        }
    }

    #[test]
    fn rects_spanning_many_cells_still_pair_exactly_once() {
        let mut t = ExtentTable::default();
        // A huge rect covering almost the whole space (every cell of a
        // fine grid) against small rects scattered across it, plus a
        // second huge rect: huge×huge must also appear exactly once.
        t.push(Rect::new(10.0, 10.0, 900.0, 900.0));
        t.push(Rect::new(50.0, 50.0, 880.0, 880.0));
        for i in 0..40 {
            let x = 20.0 + (i as f32) * 22.0;
            t.push(Rect::new(x, x, x + 5.0, x + 5.0));
        }
        assert_exactly_once(&mut cells(64), &t, "huge rects");
    }

    #[test]
    fn touching_edges_and_corners_count_as_intersecting() {
        let mut t = ExtentTable::default();
        t.push(Rect::new(0.0, 0.0, 10.0, 10.0));
        t.push(Rect::new(10.0, 10.0, 20.0, 20.0)); // corner touch at (10,10)
        t.push(Rect::new(0.0, 10.0, 10.0, 20.0)); // edge touches both
        let qs = self_join_queries(&t);
        let mut raw = Vec::new();
        TwoLayerJoin::new().join_extents(&t, &qs, &mut raw);
        raw.sort_unstable();
        assert_eq!(raw, brute_force(&t, &qs));
        // All three touch pairwise: 3 self-pairs + 6 ordered cross pairs.
        assert_eq!(raw.len(), 9);
    }

    #[test]
    fn tombstoned_rows_never_pair() {
        let mut t = random_extents(300, 31);
        for i in (0..300u32).step_by(3) {
            t.remove(i);
        }
        assert_exactly_once(&mut TwoLayerJoin::new(), &t, "auto");
        assert_exactly_once(&mut cells(1), &t, "one cell");
        assert_exactly_once(&mut cells(311), &t, "311 cells");
        let mut raw = Vec::new();
        TwoLayerJoin::new().join_extents(&t, &self_join_queries(&t), &mut raw);
        assert!(raw.iter().all(|&(q, s)| t.is_live(q) && t.is_live(s)));
    }

    #[test]
    fn point_join_agrees_with_naive_including_tombstones() {
        // A square space and a 100:1 strip.
        for (w, h) in [(SIDE, SIDE), (10_000.0, 100.0)] {
            let mut rng = Xoshiro256::seeded(7);
            let mut t = PointTable::default();
            for _ in 0..500 {
                t.push(rng.range_f32(0.0, w), rng.range_f32(0.0, h));
            }
            for i in (0..500u32).step_by(7) {
                t.remove(i);
            }
            let (qw, qh) = (0.08 * w, 0.08 * h);
            let qs: Vec<(EntryId, Rect)> = (0..120u32)
                .map(|i| {
                    let x = rng.range_f32(0.0, w - qw);
                    let y = rng.range_f32(0.0, h - qh);
                    (i, Rect::new(x, y, x + qw, y + qh))
                })
                .collect();
            let mut expected = Vec::new();
            NaiveBatchJoin.join(&t, &qs, &mut expected);
            expected.sort_unstable();
            for mut j in [TwoLayerJoin::new(), cells(1), cells(781)] {
                let mut raw = Vec::new();
                j.join(&t, &qs, &mut raw);
                assert_eq!(raw.len(), expected.len(), "{w}x{h}");
                raw.sort_unstable();
                assert_eq!(raw, expected, "{w}x{h}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_ticks_is_clean() {
        let mut j = TwoLayerJoin::new();
        let t1 = random_extents(200, 41);
        let qs1 = self_join_queries(&t1);
        let mut out = Vec::new();
        j.join_extents(&t1, &qs1, &mut out);
        out.sort_unstable();
        assert_eq!(out, brute_force(&t1, &qs1));
        // A second, smaller join (fewer cells in use) must not see stale
        // class lists from the first.
        let t2 = random_extents(40, 42);
        let qs2 = self_join_queries(&t2);
        let mut out2 = Vec::new();
        j.join_extents(&t2, &qs2, &mut out2);
        out2.sort_unstable();
        assert_eq!(out2, brute_force(&t2, &qs2));
    }

    #[test]
    fn fork_is_independent_and_supports_the_predicate() {
        let j = TwoLayerJoin::new();
        let mut f = j.fork();
        assert!(f.supports_intersect());
        let t = random_extents(100, 51);
        let qs = self_join_queries(&t);
        let mut out = Vec::new();
        f.join_extents(&t, &qs, &mut out);
        out.sort_unstable();
        assert_eq!(out, brute_force(&t, &qs));
    }

    #[test]
    fn auto_grid_cells_stay_within_two_to_one() {
        for aspect in [1.0f32, 1.5, 2.7, 10.0, 33.3, 100.0, 1_000.0] {
            for (w, h) in [(aspect * 50.0, 50.0), (50.0, aspect * 50.0)] {
                let bounds = Rect::new(-20.0, 3.0, w - 20.0, h + 3.0);
                let wants = (1..=300).chain([311, 781, 1562, 4093, 4096]);
                for want in wants.filter(|&n| n as f32 >= aspect) {
                    let g = square_grid(&bounds, NonZeroUsize::new(want).unwrap());
                    let (cw, ch) = (w / g.nx() as f32, h / g.ny() as f32);
                    let ratio = cw.max(ch) / cw.min(ch);
                    assert!(
                        ratio <= 2.0,
                        "{w}x{h} want={want}: {}x{} cells, {ratio}:1",
                        g.nx(),
                        g.ny()
                    );
                    // About `want` cells: never past the cap, never far short.
                    let short = g.nx().min(g.ny());
                    assert!(
                        g.tiles() <= want + short,
                        "{w}x{h} want={want}: {} cells",
                        g.tiles()
                    );
                    assert!(
                        9 * g.tiles() >= 4 * want,
                        "{w}x{h} want={want}: {} cells",
                        g.tiles()
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_bounds_get_a_well_formed_grid() {
        let want = NonZeroUsize::new(781).unwrap();
        let g = square_grid(&Rect::new(5.0, 0.0, 5.0, 100.0), want);
        assert_eq!((g.nx(), g.ny()), (1, 781));
        let g = square_grid(&Rect::new(0.0, 5.0, 100.0, 5.0), want);
        assert_eq!((g.nx(), g.ny()), (781, 1));
        let g = square_grid(&Rect::new(5.0, 5.0, 5.0, 5.0), want);
        assert_eq!(g.tiles(), 1);
        // Extents so large their width overflows to infinity.
        let g = square_grid(&Rect::new(-f32::MAX, 0.0, f32::MAX, 1.0), want);
        assert!((1..=781).contains(&g.tiles()));
        let g = square_grid(&Rect::new(-f32::MAX, -f32::MAX, f32::MAX, f32::MAX), want);
        assert!((1..=781).contains(&g.tiles()));
    }

    #[test]
    fn empty_inputs_yield_empty_join() {
        let mut j = TwoLayerJoin::new();
        let mut out = Vec::new();
        j.join_extents(
            &ExtentTable::default(),
            &[(0, Rect::new(0.0, 0.0, 1.0, 1.0))],
            &mut out,
        );
        assert!(out.is_empty());
        let t = random_extents(10, 61);
        j.join_extents(&t, &[], &mut out);
        assert!(out.is_empty());
        j.join(
            &PointTable::default(),
            &[(0, Rect::new(0.0, 0.0, 1.0, 1.0))],
            &mut out,
        );
        assert!(out.is_empty());
    }
}

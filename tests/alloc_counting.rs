//! Zero-allocation pin for the per-query hot path.
//!
//! The driver's query phase calls [`SpatialIndex::for_each_in`] thousands
//! of times per tick; a single heap allocation in there (a traversal
//! stack, a scratch `Vec`) is a hidden multiplier the phase timings then
//! mis-attribute to the algorithm. This binary installs a counting global
//! allocator (test-binary scoped — integration tests each get their own
//! binary) and asserts that, after one warm-up pass, a full query batch
//! over every registry index performs **zero** allocations on the
//! querying thread.
//!
//! The counter is thread-local, so concurrently running tests in this
//! binary cannot pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spatial_joins::prelude::*;

struct CountingAlloc;

thread_local! {
    // `const` initializers: reading these from inside `alloc` must not
    // itself allocate or recurse into the lazy-init machinery.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method delegates to `System` with its arguments passed
// through unchanged, so `System`'s own contract discharges each
// obligation; the counting side effect is a thread-local `Cell` bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is forwarded verbatim to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System` plus
        // a counter, so forwarding `(ptr, layout, new_size)` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` via the methods above
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    // `try_with`: allocator calls can outlive the thread-local's
    // destruction window during thread teardown.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count this thread's allocations during `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|c| c.get()), r)
}

const SIDE: f32 = 1_000.0;

/// A deterministic splitmix64 stream (self-contained so this test binary
/// doesn't depend on crate RNG internals).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coord(&mut self) -> f32 {
        (self.next() % 1_000_000) as f32 * (SIDE / 1_000_000.0)
    }
}

fn populated_table(n: usize, seed: u64) -> PointTable {
    let mut rng = Mix(seed);
    let mut t = PointTable::default();
    for _ in 0..n {
        let (x, y) = (rng.coord(), rng.coord());
        t.push(x, y);
    }
    t
}

fn query_batch(count: usize, seed: u64) -> Vec<Rect> {
    let mut rng = Mix(seed);
    (0..count)
        .map(|_| {
            let (cx, cy) = (rng.coord(), rng.coord());
            let w = 5.0 + rng.coord() * 0.05;
            let h = 5.0 + rng.coord() * 0.05;
            Rect::new(cx - w, cy - h, cx + w, cy + h).clipped_to(&Rect::space(SIDE))
        })
        .collect()
}

/// Every `SpatialIndex` in the workspace, constructed the way the
/// cross-index suites do.
fn all_indexes() -> Vec<Box<dyn SpatialIndex>> {
    let mut indexes: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(ScanIndex::new()),
        Box::new(BinarySearchJoin::new()),
        Box::new(VecSearchJoin::new()),
        Box::new(RTree::new(8)),
        Box::new(CRTree::new(8)),
        Box::new(LinearKdTrie::new(SIDE)),
        Box::new(DynRTree::new(8)),
        Box::new(QuadTree::new(SIDE, 16)),
        Box::new(IncrementalGrid::new(32, 8, SIDE)),
    ];
    for stage in Stage::ALL {
        indexes.push(Box::new(SimpleGrid::at_stage(stage, SIDE)));
    }
    indexes
}

/// Fold emitted ids into a checksum without allocating.
fn run_batch(idx: &dyn SpatialIndex, t: &PointTable, queries: &[Rect]) -> u64 {
    let mut acc = 0u64;
    for q in queries {
        idx.for_each_in(t, q, &mut |id| {
            acc = acc
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(id as u64 + 1);
        });
    }
    acc
}

#[test]
fn query_phase_performs_zero_allocations_for_every_index() {
    let t = populated_table(3_000, 42);
    let queries = query_batch(200, 7);
    for mut idx in all_indexes() {
        idx.build(&t);
        // Warm-up: the contract is zero *steady-state* allocations; any
        // one-time lazy setup (e.g. the SIMD dispatch cache) happens here.
        let warm = run_batch(idx.as_ref(), &t, &queries);
        let (allocs, cold) = allocations_during(|| run_batch(idx.as_ref(), &t, &queries));
        assert_eq!(cold, warm, "{}: non-deterministic query batch", idx.name());
        assert_ne!(cold, 0, "{}: batch matched nothing — weak test", idx.name());
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {} queries in the steady state",
            idx.name(),
            queries.len()
        );
    }
}

/// `n` rects with sides up to 3% of the space.
fn populated_extents(n: usize, seed: u64) -> ExtentTable {
    let mut rng = Mix(seed);
    let mut t = ExtentTable::default();
    for _ in 0..n {
        let (x, y) = (rng.coord(), rng.coord());
        let (w, h) = (rng.coord() * 0.03, rng.coord() * 0.03);
        t.push(Rect::new(x, y, x + w, y + h));
    }
    t
}

#[test]
fn twolayer_steady_state_join_performs_zero_allocations() {
    // The partition arena, bucket bounds and data rows are scratch kept
    // across calls: once a join has sized them, another join of the
    // same input allocates nothing.
    let table = populated_extents(3_000, 42);
    let queries: Vec<(EntryId, Rect)> = (0..3_000u32)
        .step_by(2)
        .map(|i| (i, table.rect(i)))
        .collect();
    let mut join = TwoLayerJoin::new();
    let mut warm = Vec::new();
    join.join_extents(&table, &queries, &mut warm);
    let mut out = Vec::with_capacity(warm.len());
    let (allocs, ()) = allocations_during(|| join.join_extents(&table, &queries, &mut out));
    assert_eq!(out, warm, "non-deterministic join");
    assert!(!out.is_empty(), "join matched nothing — weak test");
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in a steady-state join"
    );
}

#[test]
fn the_counter_itself_works() {
    // Guard against the pin silently passing because counting broke.
    let (allocs, v) = allocations_during(|| {
        let mut v = Vec::with_capacity(100);
        v.push(1u64);
        v
    });
    assert!(allocs >= 1, "counter missed an obvious allocation");
    drop(v);
    let (allocs, _) = allocations_during(|| 2 + 2);
    assert_eq!(allocs, 0);
}

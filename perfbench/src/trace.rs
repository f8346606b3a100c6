//! Span recording for the traced run.
//!
//! Everything here sits *outside* the library: thin wrappers delegate to a
//! workload, an index or a batch join and time the calls the driver makes
//! into them. The driver's own phases (build, query, update) are not
//! callable from outside, so their spans are reconstructed after the run
//! from `RunStats::ticks` anchored on the observed tick boundaries (see
//! [`assemble`]). No wrapper ever times an individual query: per-query
//! costs are phase time divided by counts.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sj_core::batch::BatchJoin;
use sj_core::driver::{ExtentTickActions, ExtentWorkload, RunStats, TickActions, Workload};
use sj_core::geom::Rect;
use sj_core::index::SpatialIndex;
use sj_core::table::{EntryId, ExtentTable, MovingExtentSet, MovingSet, PointTable};
use sj_core::technique::{Technique, TechniqueKind, TechniqueSpec};
use sj_twolayer::TwoLayerJoin;

/// One recorded interval. Times are nanoseconds since the episode began;
/// `parent` indexes the span list [`assemble`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tick: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: u32,
    /// What the call processed: rows built, pairs emitted, rows changed.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A small per-process thread number (std's `ThreadId` has no stable
/// integer form). Scoped workers are respawned every tick, so numbers grow.
fn thread_no() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    NO.with(|n| *n)
}

/// In-memory span sink shared by every wrapper of one episode.
pub struct Recorder {
    epoch: Instant,
    /// The tick the driver is in, as last announced by `plan_tick`.
    tick: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            tick: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span of the current tick that started at `start` and ends now.
    fn record(&self, name: &'static str, start: Instant, count: u64) {
        self.push(name, Some(self.tick.load(Ordering::Relaxed)), start, count);
    }

    fn push(&self, name: &'static str, tick: Option<u32>, start: Instant, count: u64) {
        let end = Instant::now();
        let span = Span {
            name,
            tick,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            thread: thread_no(),
            count,
        };
        self.spans
            .lock()
            .expect("no wrapper panics while holding the span lock")
            .push(span);
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no wrapper panics while holding the span lock"),
        )
    }
}

/// Population bookkeeping a traced workload wrapper keeps for the
/// `sj_base::table` metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableNotes {
    /// Live rows at the start of each tick (the rows that tick builds over).
    pub live_at_tick: Vec<u64>,
    /// Rows allocated by `init`, then inserts and removals over all ticks.
    pub initial: u64,
    pub inserts: u64,
    pub removals: u64,
}

impl TableNotes {
    /// Table slots (live rows plus tombstones) per live row after the last
    /// tick: tombstoned slots are never reused, so this grows under churn.
    pub fn slots_per_live(&self) -> f64 {
        let slots = self.initial + self.inserts;
        let live = slots - self.removals;
        if live == 0 {
            0.0
        } else {
            slots as f64 / live as f64
        }
    }
}

/// Delegating workload wrapper. Untraced it only notes when the first
/// measured tick starts (the end of set-up); traced it also records init,
/// plan and advance spans and the table notes.
pub struct Observed<W: ?Sized> {
    rec: Option<Arc<Recorder>>,
    warmup: u32,
    measured_start: Option<Instant>,
    notes: TableNotes,
    inner: Box<W>,
}

impl<W: ?Sized> Observed<W> {
    pub fn new(inner: Box<W>, warmup: u32, rec: Option<Arc<Recorder>>) -> Observed<W> {
        Observed {
            rec,
            warmup,
            measured_start: None,
            notes: TableNotes::default(),
            inner,
        }
    }

    /// When `plan_tick` was first called for a measured tick.
    pub fn measured_start(&self) -> Option<Instant> {
        self.measured_start
    }

    pub fn notes(&self) -> &TableNotes {
        &self.notes
    }

    fn initialized(&mut self, start: Instant, rows: usize) {
        if let Some(rec) = &self.rec {
            self.notes.initial = rows as u64;
            rec.push("init", None, start, rows as u64);
        }
    }

    fn enter_tick(&mut self, tick: u32, live: usize) {
        if tick >= self.warmup && self.measured_start.is_none() {
            self.measured_start = Some(Instant::now());
        }
        if let Some(rec) = &self.rec {
            rec.tick.store(tick, Ordering::Relaxed);
            self.notes.live_at_tick.push(live as u64);
        }
    }

    fn planned(&mut self, start: Instant, updates: usize, removals: usize, inserts: usize) {
        if let Some(rec) = &self.rec {
            self.notes.inserts += inserts as u64;
            self.notes.removals += removals as u64;
            rec.record("plan", start, (updates + removals + inserts) as u64);
        }
    }

    fn advanced(&self, start: Instant) {
        if let Some(rec) = &self.rec {
            rec.record("advance", start, 0);
        }
    }
}

impl Workload for Observed<dyn Workload> {
    fn space(&self) -> Rect {
        self.inner.space()
    }

    fn query_side(&self) -> f32 {
        self.inner.query_side()
    }

    fn init(&mut self) -> MovingSet {
        let start = Instant::now();
        let set = self.inner.init();
        self.initialized(start, set.len());
        set
    }

    fn plan_tick(&mut self, tick: u32, set: &MovingSet, actions: &mut TickActions) {
        self.enter_tick(tick, set.live_len());
        let start = Instant::now();
        self.inner.plan_tick(tick, set, actions);
        let (u, r, i) = (
            actions.velocity_updates.len(),
            actions.removals.len(),
            actions.inserts.len(),
        );
        self.planned(start, u, r, i);
    }

    fn advance(&mut self, set: &mut MovingSet) {
        let start = Instant::now();
        self.inner.advance(set);
        self.advanced(start);
    }
}

impl ExtentWorkload for Observed<dyn ExtentWorkload> {
    fn space(&self) -> Rect {
        self.inner.space()
    }

    fn init(&mut self) -> MovingExtentSet {
        let start = Instant::now();
        let set = self.inner.init();
        self.initialized(start, set.len());
        set
    }

    fn plan_tick(&mut self, tick: u32, set: &MovingExtentSet, actions: &mut ExtentTickActions) {
        self.enter_tick(tick, set.live_len());
        let start = Instant::now();
        self.inner.plan_tick(tick, set, actions);
        let (u, r, i) = (
            actions.velocity_updates.len(),
            actions.removals.len(),
            actions.inserts.len(),
        );
        self.planned(start, u, r, i);
    }

    fn advance(&mut self, set: &mut MovingExtentSet) {
        let start = Instant::now();
        self.inner.advance(set);
        self.advanced(start);
    }
}

/// Delegating index wrapper: times `build` and counts the rows it indexed.
/// Its forks are wrapped too, so per-tile builds of the partitioned mode
/// are recorded as `fork.build`; the prototype's own builds are
/// `index.build`.
pub struct TracedIndex {
    rec: Arc<Recorder>,
    span: &'static str,
    inner: Box<dyn SpatialIndex + Send + Sync>,
}

impl SpatialIndex for TracedIndex {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&mut self, table: &PointTable) {
        let start = Instant::now();
        self.inner.build(table);
        self.rec.record(self.span, start, table.live_len() as u64);
    }

    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        self.inner.for_each_in(table, region, emit);
    }

    fn query(&self, table: &PointTable, region: &Rect, out: &mut Vec<EntryId>) {
        self.inner.query(table, region, out);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn supports_intersect(&self) -> bool {
        self.inner.supports_intersect()
    }

    fn build_extents(&mut self, table: &ExtentTable) {
        let start = Instant::now();
        self.inner.build_extents(table);
        self.rec.record(self.span, start, table.live_len() as u64);
    }

    fn for_each_intersecting(
        &self,
        table: &ExtentTable,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        self.inner.for_each_intersecting(table, region, emit);
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        Box::new(TracedIndex {
            rec: Arc::clone(&self.rec),
            span: "fork.build",
            inner: self.inner.fork(),
        })
    }
}

/// Delegating batch-join wrapper: times each join call and counts the
/// pairs it emitted. Under `@par` every strip runs on a wrapped fork, so
/// each strip's join is one `strip.join` span.
pub struct TracedBatch<J: BatchJoin + ?Sized> {
    rec: Arc<Recorder>,
    inner: Box<J>,
}

impl<J: BatchJoin + ?Sized> BatchJoin for TracedBatch<J> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn join(
        &mut self,
        table: &PointTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        let (start, before) = (Instant::now(), out.len());
        self.inner.join(table, queries, out);
        self.rec
            .record("strip.join", start, (out.len() - before) as u64);
    }

    fn join_two(
        &mut self,
        queriers: &PointTable,
        data: &PointTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        let (start, before) = (Instant::now(), out.len());
        self.inner.join_two(queriers, data, queries, out);
        self.rec
            .record("strip.join", start, (out.len() - before) as u64);
    }

    fn supports_intersect(&self) -> bool {
        self.inner.supports_intersect()
    }

    fn join_extents(
        &mut self,
        data: &ExtentTable,
        queries: &[(EntryId, Rect)],
        out: &mut Vec<(EntryId, EntryId)>,
    ) {
        let (start, before) = (Instant::now(), out.len());
        self.inner.join_extents(data, queries, out);
        self.rec
            .record("strip.join", start, (out.len() - before) as u64);
    }

    fn fork(&self) -> Box<dyn BatchJoin + Send> {
        Box::new(TracedBatch {
            rec: Arc::clone(&self.rec),
            inner: self.inner.fork(),
        })
    }
}

/// The technique `spec` names, with its index or batch join wrapped so
/// that `rec` sees every build and join call. Only the batch techniques
/// the benchmark runs can be wrapped: `Technique` exposes no batch join
/// to fork from, so those are constructed here by kind.
pub fn traced_technique(
    spec: TechniqueSpec,
    space_side: f32,
    rec: &Arc<Recorder>,
) -> Result<Technique, String> {
    let technique = if spec.is_batch() {
        match spec.kind {
            TechniqueKind::TwoLayer => Technique::batch(Box::new(TracedBatch {
                rec: Arc::clone(rec),
                inner: Box::new(TwoLayerJoin::new()),
            })),
            kind => return Err(format!("no traced form of batch technique {kind}")),
        }
    } else {
        let plain = spec.kind.build(space_side);
        let index = plain
            .as_index()
            .expect("a non-batch technique is an index technique")
            .fork();
        Technique::index(Box::new(TracedIndex {
            rec: Arc::clone(rec),
            span: "index.build",
            inner: index,
        }))
    };
    Ok(technique.with_exec(spec.exec))
}

/// Turn an episode's recorded spans into the final span list: a `run`
/// span, one `tick` span per tick (from its `plan_tick` call to the next
/// one), and for measured ticks the driver's `build`, `query` and `update`
/// phases rebuilt from `stats.ticks`. Build starts when planning ends;
/// update ends when the tick ends and query ends where update starts —
/// the driver's phases run back to back in that order. Wrapper spans get
/// their tick's phase as parent: builds under `build`, joins under
/// `query`, `advance` under `update`, planning under `tick`.
pub fn assemble(
    rec: &Recorder,
    stats: &RunStats,
    warmup: u32,
    run_start: Instant,
    run_end: Instant,
) -> Vec<Span> {
    let recorded = rec.take();
    let main = thread_no();
    let mut spans = vec![Span {
        name: "run",
        tick: None,
        start_ns: rec.ns(run_start),
        end_ns: rec.ns(run_end),
        parent: None,
        thread: main,
        count: stats.queries,
    }];
    let plans: Vec<&Span> = recorded.iter().filter(|s| s.name == "plan").collect();
    // Per tick: (tick span, build, query, update) indexes into `spans`.
    let mut by_tick: Vec<(usize, Option<[usize; 3]>)> = Vec::with_capacity(plans.len());
    for (t, plan) in plans.iter().enumerate() {
        let tick_end = plans.get(t + 1).map_or(spans[0].end_ns, |p| p.start_ns);
        let tick = u32::try_from(t).expect("tick counts fit in u32");
        spans.push(Span {
            name: "tick",
            tick: Some(tick),
            start_ns: plan.start_ns,
            end_ns: tick_end,
            parent: Some(0),
            thread: main,
            count: 0,
        });
        let tick_id = spans.len() - 1;
        let phases = tick
            .checked_sub(warmup)
            .and_then(|m| stats.ticks.get(m as usize))
            .map(|times| {
                let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                let build_end = plan.end_ns + ns(times.build);
                let update_start = tick_end.saturating_sub(ns(times.update));
                let query_start = update_start.saturating_sub(ns(times.query));
                let mut ids = [0usize; 3];
                for (k, (name, start, end)) in [
                    ("build", plan.end_ns, build_end),
                    ("query", query_start, update_start),
                    ("update", update_start, tick_end),
                ]
                .into_iter()
                .enumerate()
                {
                    spans.push(Span {
                        name,
                        tick: Some(tick),
                        start_ns: start,
                        end_ns: end.max(start),
                        parent: Some(tick_id),
                        thread: main,
                        count: 0,
                    });
                    ids[k] = spans.len() - 1;
                }
                ids
            });
        by_tick.push((tick_id, phases));
    }
    for mut span in recorded {
        span.parent = Some(match span.tick.and_then(|t| by_tick.get(t as usize)) {
            None => 0,
            Some(&(tick_id, phases)) => match (span.name, phases) {
                ("index.build" | "fork.build", Some(p)) => p[0],
                ("strip.join", Some(p)) => p[1],
                ("advance", Some(p)) => p[2],
                _ => tick_id,
            },
        });
        spans.push(span);
    }
    spans
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children on parallel threads may overlap each
/// other, so the covered part is the union of their intervals).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tick: None,
            start_ns,
            end_ns,
            parent,
            thread: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("build", 100, 200, None),
            span("fork.build", 110, 150, Some(0)),
            span("fork.build", 120, 160, Some(0)),
            span("fork.build", 180, 190, Some(0)),
            span("other", 0, 1000, None),
        ];
        // Children cover 110..160 and 180..190: 60 of 100 ns.
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 4), 1000);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("query", 100, 200, None),
            span("strip.join", 50, 150, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
    }

    #[test]
    fn slots_per_live_counts_tombstones() {
        let notes = TableNotes {
            live_at_tick: Vec::new(),
            initial: 100,
            inserts: 20,
            removals: 20,
        };
        assert!((notes.slots_per_live() - 1.2).abs() < 1e-12);
    }
}

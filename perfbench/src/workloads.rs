//! The benchmark's workloads and the episode that runs one of them.
//!
//! An episode is one closed tick loop: construct the technique, let the
//! driver initialise the workload and run its warm-up ticks (set-up), then
//! run the measured ticks. Each tick's queries are issued only after the
//! previous tick finished, because the driver runs ticks back to back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sj_core::driver::{DriverConfig, ExtentWorkload, RunStats, Workload};
use sj_core::rng::mix64;
use sj_core::technique::TechniqueSpec;
use sj_workload::{JoinSpec, WorkloadParams, WorkloadSpec};

use crate::trace::{self, Observed, Recorder, Span, TableNotes};

/// Measured ticks a run collects at least, whatever `--seconds` says, so
/// that `tick_ms_p90` always has ten ticks beyond it.
pub const MIN_MEASURED_TICKS: usize = 100;

/// One benchmark workload: a technique spec over a join at a population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// `grid:inline` sequential, self-join over `churn:uniform`.
    Churn,
    /// `grid:inline@tilesauto@par2`, self-join over `gaussian:h3`.
    Hotspot,
    /// `twolayer` sequential, intersection join over `intersect:rects`.
    Rects,
}

/// How much one run measures: episodes of `warmup` + `ticks` ticks over
/// `points` objects, cycling through `instances` input instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    pub points: u32,
    pub warmup: u32,
    pub ticks: u32,
    pub instances: u32,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::Churn, Bench::Hotspot, Bench::Rects];

    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Bench::Churn => "churn",
            Bench::Hotspot => "hotspot",
            Bench::Rects => "rects",
        }
    }

    /// The technique under measurement.
    pub fn technique(self) -> &'static str {
        match self {
            Bench::Churn => "grid:inline",
            Bench::Hotspot => "grid:inline@tilesauto@par2",
            Bench::Rects => "twolayer",
        }
    }

    /// The independent technique whose result every run is checked against.
    pub fn reference(self) -> &'static str {
        match self {
            Bench::Churn | Bench::Hotspot => "rtree:str",
            Bench::Rects => "grid:inline",
        }
    }

    /// The workload spec of a point self-join, or the join spec of the
    /// rectangle intersection join.
    pub fn join(self) -> &'static str {
        match self {
            Bench::Churn => "churn:uniform",
            Bench::Hotspot => "gaussian:h3",
            Bench::Rects => "intersect:rects",
        }
    }

    /// Query-phase workers the technique uses; with fewer CPUs its
    /// timings are not comparable with a run on a host that has them.
    pub fn workers(self) -> usize {
        match self {
            Bench::Churn | Bench::Rects => 1,
            Bench::Hotspot => 2,
        }
    }

    /// Population and episode length. A run repeats set-up several times
    /// and measures at least [`MIN_MEASURED_TICKS`]. A `hotspot` cycle
    /// takes 10–14 s on a 2-CPU Xeon host, so a 30 s run holds two: with
    /// a cycle near a whole fraction of the run, the count of cycles (and
    /// of samples) would flip between runs. Several instances per run
    /// average out how much one seed's layout moves the cost: on
    /// `hotspot` a seed whose hotspots overlap or sit on an edge yields a
    /// sixth more pairs per query and a third more resident memory, and
    /// the peak over four instances varies far less than over three.
    /// `hotspot` warms up for 20 ticks because its clusters contract from
    /// their initial spread (sigma 800) to the stationary one (about 230)
    /// over that time; the measured ticks see the steady skew.
    pub fn size(self) -> Size {
        let (points, warmup, ticks, instances) = match self {
            Bench::Churn => (50_000, 3, 50, 2),
            Bench::Hotspot => (10_000, 20, 20, 4),
            Bench::Rects => (50_000, 3, 50, 2),
        };
        Size {
            points,
            warmup,
            ticks,
            instances,
        }
    }

    /// The workload seed of input instance `instance` of a run with seed
    /// `seed`: distinct for every (seed, instance) pair.
    pub fn instance_seed(seed: u64, size: Size, instance: u32) -> u64 {
        seed.wrapping_mul(u64::from(size.instances))
            .wrapping_add(u64::from(instance))
    }

    fn params(self, seed: u64, size: Size) -> WorkloadParams {
        WorkloadParams {
            num_points: size.points,
            ticks: size.warmup + size.ticks,
            seed,
            ..WorkloadParams::default()
        }
    }
}

/// What a run must reproduce exactly: the join result and the workload's
/// own counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub result_pairs: u64,
    pub checksum: u64,
    pub queries: u64,
    pub removals: u64,
    pub inserts: u64,
}

impl Digest {
    pub fn of(stats: &RunStats) -> Digest {
        Digest {
            result_pairs: stats.result_pairs,
            checksum: stats.checksum,
            queries: stats.queries,
            removals: stats.removals,
            inserts: stats.inserts,
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"result_pairs\": {}, \"checksum\": \"{:016x}\", \"queries\": {}, \"removals\": {}, \"inserts\": {}}}",
            self.result_pairs, self.checksum, self.queries, self.removals, self.inserts
        )
    }
}

/// One finished episode.
pub struct Episode {
    pub stats: RunStats,
    /// Technique construction to the start of the first measured tick.
    pub setup: Duration,
    /// Empty unless traced.
    pub spans: Vec<Span>,
    pub notes: TableNotes,
}

/// Run one episode of `technique` over `bench`'s join.
pub fn run_episode(
    bench: Bench,
    technique: &str,
    seed: u64,
    size: Size,
    traced: bool,
) -> Result<Episode, String> {
    let start = Instant::now();
    let spec = TechniqueSpec::parse(technique).map_err(|e| e.to_string())?;
    let params = bench.params(seed, size);
    let rec = traced.then(|| Arc::new(Recorder::new(start)));
    let mut technique = match &rec {
        None => spec.build(params.space_side),
        Some(rec) => trace::traced_technique(spec, params.space_side, rec)?,
    };
    let cfg = DriverConfig::new(size.ticks, size.warmup);
    let (stats, measured_start, notes) = if bench == Bench::Rects {
        let inner = JoinSpec::Intersect
            .build_extents(params)
            .expect("intersect joins build an extent workload");
        if !technique.supports_intersect() {
            return Err(format!("{technique:?} has no intersects predicate"));
        }
        let mut w: Observed<dyn ExtentWorkload> = Observed::new(inner, size.warmup, rec.clone());
        let stats = technique.run_intersect(&mut w, cfg);
        (stats, w.measured_start(), w.notes().clone())
    } else {
        let inner = WorkloadSpec::parse(bench.join())
            .map_err(|e| e.to_string())?
            .build(params);
        let mut w: Observed<dyn Workload> = Observed::new(inner, size.warmup, rec.clone());
        let stats = technique.run(&mut w, cfg);
        (stats, w.measured_start(), w.notes().clone())
    };
    let end = Instant::now();
    let setup = measured_start.map_or(end - start, |t| t - start);
    let spans = match &rec {
        Some(rec) => trace::assemble(rec, &stats, size.warmup, start, end),
        None => Vec::new(),
    };
    Ok(Episode {
        stats,
        setup,
        spans,
        notes,
    })
}

/// A fingerprint of the generated inputs: the initial population's
/// coordinates folded into one word.
pub fn input_digest(bench: Bench, seed: u64, size: Size) -> u64 {
    let params = bench.params(seed, size);
    let mut h = 0u64;
    let mut fold = |v: f32| h = mix64(h ^ u64::from(v.to_bits()));
    if bench == Bench::Rects {
        let mut w = JoinSpec::Intersect
            .build_extents(params)
            .expect("intersect joins build an extent workload");
        let set = w.init();
        for (_, r) in set.extents.iter() {
            [r.x1, r.y1, r.x2, r.y2].into_iter().for_each(&mut fold);
        }
    } else {
        let mut w = WorkloadSpec::parse(bench.join())
            .expect("benchmark workload specs parse")
            .build(params);
        let set = w.init();
        for (_, p) in set.positions.iter() {
            fold(p.x);
            fold(p.y);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rects` runs `twolayer` sequentially, so the `@par` strip path
    /// (`shard_batch_join` on forks) is checked here instead of gated.
    #[test]
    fn sharded_rects_match_the_reference_strip_by_strip() {
        let size = Size {
            points: 2_000,
            warmup: 2,
            ticks: 4,
            instances: 1,
        };
        let expected = Digest::of(
            &run_episode(Bench::Rects, Bench::Rects.reference(), 7, size, false)
                .unwrap()
                .stats,
        );
        for traced in [false, true] {
            let e = run_episode(Bench::Rects, "twolayer@par2", 7, size, traced).unwrap();
            assert_eq!(Digest::of(&e.stats), expected, "traced: {traced}");
            if traced {
                for tick in size.warmup..size.warmup + size.ticks {
                    let strips = e
                        .spans
                        .iter()
                        .filter(|s| s.name == "strip.join" && s.tick == Some(tick))
                        .count();
                    assert!(strips > 1, "tick {tick} joined in {strips} strip(s)");
                }
            }
        }
    }
}

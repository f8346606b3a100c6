//! End-to-end metrics from untraced episodes, per-layer metrics from
//! traced ones.

use std::time::Duration;

use crate::trace::{self_time_ns, Span};
use crate::workloads::Episode;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The `q`-quantile of `values`, interpolating linearly between the two
/// nearest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `<base>_p25`, `<base>_p50`, `<base>_p75` of a time distribution.
fn quartiles(out: &mut Vec<Metric>, base: &str, values: &[f64]) {
    for (suffix, q) in [("p25", 0.25), ("p50", 0.5), ("p75", 0.75)] {
        out.push(metric(
            format!("{base}_{suffix}"),
            "ms",
            quantile(values, q),
        ));
    }
}

/// Every measured tick's build + query + update time, in ms.
pub fn tick_ms(episodes: &[Episode]) -> Vec<f64> {
    episodes
        .iter()
        .flat_map(|e| e.stats.ticks.iter().map(|t| ms(t.total())))
        .collect()
}

/// The five end-to-end metrics of an untraced run.
pub fn end_to_end(episodes: &[Episode], peak_rss_mib: f64) -> Vec<Metric> {
    let ticks = tick_ms(episodes);
    let throughput: Vec<f64> = episodes
        .iter()
        .map(|e| {
            let busy: Duration = e.stats.ticks.iter().map(|t| t.total()).sum();
            ratio(e.stats.queries as f64, busy.as_secs_f64())
        })
        .collect();
    let setup: Vec<f64> = episodes.iter().map(|e| e.setup.as_secs_f64()).collect();
    vec![
        metric("tick_ms_p50", "ms", quantile(&ticks, 0.5)),
        metric("tick_ms_p90", "ms", quantile(&ticks, 0.9)),
        metric("queries_per_s", "1/s", median(&throughput)),
        metric("setup_s", "s", median(&setup)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
    ]
}

fn measured(span: &Span, warmup: u32) -> bool {
    span.tick.is_some_and(|t| t >= warmup)
}

/// The per-layer metrics of a traced run. `traced` and `plain` are the
/// run's traced and untraced episodes; `warmup` is the episode's warm-up
/// tick count.
pub fn per_layer(traced: &[Episode], plain: &[Episode], warmup: u32) -> Vec<Metric> {
    let mut out = Vec::new();
    let phase = |f: fn(&sj_core::driver::TickTimes) -> Duration| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|e| e.stats.ticks.iter().map(move |t| ms(f(t))))
            .collect()
    };
    quartiles(&mut out, "driver.query_ms", &phase(|t| t.query));
    quartiles(&mut out, "driver.build_ms", &phase(|t| t.build));
    quartiles(&mut out, "driver.update_ms", &phase(|t| t.update));

    let spans = |name: &'static str, only_measured: bool| {
        traced.iter().flat_map(move |e| {
            e.spans
                .iter()
                .filter(move |s| s.name == name && (!only_measured || measured(s, warmup)))
        })
    };
    let durations = |name: &'static str, only_measured: bool| -> Vec<f64> {
        spans(name, only_measured)
            .map(|s| ns_to_ms(s.duration_ns()))
            .collect()
    };
    let measured_ticks: f64 = traced.iter().map(|e| e.stats.ticks.len() as f64).sum();
    let queries: f64 = traced.iter().map(|e| e.stats.queries as f64).sum();
    let pairs: f64 = traced.iter().map(|e| e.stats.result_pairs as f64).sum();
    let query_ns: f64 = phase(|t| t.query).iter().sum::<f64>() * 1e6;

    // sj_workload
    let init = durations("init", false);
    out.push(metric("workload.init_ms", "ms", median(&init)));
    out.push(metric("workload.init_ms_p25", "ms", quantile(&init, 0.25)));
    out.push(metric("workload.init_ms_p75", "ms", quantile(&init, 0.75)));
    quartiles(&mut out, "workload.plan_ms", &durations("plan", false));

    // sj_base::table
    let changed: f64 = spans("plan", true).map(|s| s.count as f64).sum();
    out.push(metric(
        "table.rows_changed_per_tick",
        "rows/tick",
        ratio(changed, measured_ticks),
    ));
    quartiles(&mut out, "table.advance_ms", &durations("advance", true));
    let slots: Vec<f64> = traced.iter().map(|e| e.notes.slots_per_live()).collect();
    out.push(metric("table.slots_per_live", "ratio", median(&slots)));

    // sj_grid (the index technique's builds, whether on the prototype or
    // on per-tile forks)
    let builds: Vec<&Span> = spans("index.build", true)
        .chain(spans("fork.build", true))
        .collect();
    let is_index = !builds.is_empty();
    let rows_built: f64 = builds.iter().map(|s| s.count as f64).sum();
    let index_bytes: Vec<f64> = traced.iter().map(|e| e.stats.index_bytes as f64).collect();
    out.push(metric(
        "grid.build_calls_per_tick",
        "calls/tick",
        ratio(builds.len() as f64, measured_ticks),
    ));
    out.push(metric(
        "grid.rows_built_per_tick",
        "rows/tick",
        ratio(rows_built, measured_ticks),
    ));
    out.push(metric("grid.index_bytes", "B", median(&index_bytes)));
    let per_query = |v: f64| if is_index { ratio(v, queries) } else { 0.0 };
    out.push(metric("grid.ns_per_query", "ns/query", per_query(query_ns)));
    out.push(metric(
        "grid.results_per_query",
        "pairs/query",
        per_query(pairs),
    ));

    // sj_base::tile
    let forks: Vec<&Span> = spans("fork.build", true).collect();
    let fork_rows: f64 = forks.iter().map(|s| s.count as f64).sum();
    let live_rows: f64 = traced
        .iter()
        .flat_map(|e| e.notes.live_at_tick.iter().skip(warmup as usize))
        .map(|&n| n as f64)
        .sum();
    out.push(metric(
        "tile.tiles_per_tick",
        "tiles/tick",
        ratio(forks.len() as f64, measured_ticks),
    ));
    out.push(metric(
        "tile.replication",
        "ratio",
        ratio(fork_rows, live_rows),
    ));
    let partition: Vec<f64> = traced
        .iter()
        .flat_map(|e| {
            e.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "build")
                .map(|(id, _)| ns_to_ms(self_time_ns(&e.spans, id)))
        })
        .collect();
    quartiles(&mut out, "tile.partition_ms", &partition);

    // sj_base::par
    let loads: Vec<_> = traced.iter().filter_map(|e| e.stats.tile_load).collect();
    let imbalance: Vec<f64> = loads.iter().map(|l| l.imbalance).collect();
    let occupancy: Vec<f64> = loads.iter().map(|l| l.occupancy).collect();
    out.push(metric("pool.imbalance", "ratio", median(&imbalance)));
    out.push(metric("pool.occupancy", "ratio", median(&occupancy)));
    let mut strip_skew = Vec::new();
    for e in traced {
        let mut by_tick: Vec<(u32, f64)> = e
            .spans
            .iter()
            .filter(|s| s.name == "strip.join" && measured(s, warmup))
            .map(|s| (s.tick.unwrap_or(0), s.duration_ns() as f64))
            .collect();
        by_tick.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for strips in by_tick.chunk_by(|a, b| a.0 == b.0) {
            let mean = strips.iter().map(|s| s.1).sum::<f64>() / strips.len() as f64;
            let max = strips.last().map_or(0.0, |s| s.1);
            strip_skew.push(ratio(max, mean));
        }
    }
    out.push(metric(
        "shard.strip_max_over_mean",
        "ratio",
        median(&strip_skew),
    ));

    // sj_twolayer (the batch technique's strip joins)
    let joins: Vec<&Span> = spans("strip.join", true).collect();
    let join_ns: f64 = joins.iter().map(|s| s.duration_ns() as f64).sum();
    let join_pairs: f64 = joins.iter().map(|s| s.count as f64).sum();
    quartiles(&mut out, "twolayer.join_ms", &durations("strip.join", true));
    out.push(metric(
        "twolayer.ns_per_pair",
        "ns/pair",
        ratio(join_ns, join_pairs),
    ));
    out.push(metric(
        "twolayer.results_per_query",
        "pairs/query",
        if joins.is_empty() {
            0.0
        } else {
            ratio(pairs, queries)
        },
    ));

    // tracing
    let overhead = ratio(median(&tick_ms(traced)), median(&tick_ms(plain))) - 1.0;
    out.push(metric("trace.overhead_frac", "ratio", overhead));
    out
}

/// The final line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[metric("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_never_printed() {
        assert_eq!(metric("x", "ms", f64::NAN).value, 0.0);
    }
}

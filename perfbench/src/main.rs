//! `perfbench --workload <churn|hotspot|rects> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs episodes of one workload until `--seconds` have passed, checks
//! every episode's join result against an independent technique, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::host::{self, Host};
use perfbench::metrics;
use perfbench::workloads::{
    input_digest, run_episode, Bench, Digest, Episode, Size, MIN_MEASURED_TICKS,
};

const USAGE: &str = "usage: perfbench --workload <churn|hotspot|rects> --seed <n> \
--seconds <s> --trace <0|1> [--points <n>] [--warmup <n>] [--ticks <n>] \
[--instances <n>] [--spans-out <file>] [--perturb-reference]";

struct Opts {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans_out: Option<PathBuf>,
    perturb_reference: bool,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut bench = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let (mut points, mut warmup, mut ticks, mut instances) = (None, None, None, None);
        let mut spans_out = None;
        let mut perturb_reference = false;
        while let Some(flag) = args.next() {
            if flag == "--perturb-reference" {
                perturb_reference = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    bench = Some(Bench::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value} (churn, hotspot, rects)")
                    })?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--points" => points = Some(value.parse::<u32>().map_err(|_| bad())?),
                "--warmup" => warmup = Some(value.parse::<u32>().map_err(|_| bad())?),
                "--ticks" => ticks = Some(value.parse::<u32>().map_err(|_| bad())?),
                "--instances" => instances = Some(value.parse::<u32>().map_err(|_| bad())?),
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let bench = bench.ok_or("--workload is required")?;
        let default = bench.size();
        let size = Size {
            points: points.unwrap_or(default.points),
            warmup: warmup.unwrap_or(default.warmup),
            ticks: ticks.unwrap_or(default.ticks),
            instances: instances.unwrap_or(default.instances),
        };
        if size.points == 0 || size.ticks == 0 || size.instances == 0 {
            return Err("--points, --ticks and --instances must be at least 1".to_string());
        }
        Ok(Opts {
            bench,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            size,
            spans_out,
            perturb_reference,
        })
    }
}

/// Where the benchmark keeps its reference cache and span files: next to
/// the build output, which lies inside the checkout it runs from.
fn state_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("perfbench"))
}

/// A key that changes whenever the benchmark binary is rebuilt, so a
/// cached reference never outlives the code that computed it.
fn build_key() -> String {
    let meta = std::env::current_exe().and_then(fs::metadata);
    let stamp = meta
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    format!("{:x}-{stamp:x}", meta.map_or(0, |m| m.len()))
}

/// The reference result for this workload, seed and length, from the
/// workload's independent technique. Computed at most once per
/// (workload, seed, length) and binary: later runs read the cached digest.
fn reference(bench: Bench, seed: u64, size: Size) -> Result<Digest, String> {
    let cache = state_dir().map(|dir| {
        dir.join(format!(
            "ref-{}-s{seed}-n{}-w{}-t{}-{}.txt",
            bench.name(),
            size.points,
            size.warmup,
            size.ticks,
            build_key()
        ))
    });
    if let Some(text) = cache.as_ref().and_then(|p| fs::read_to_string(p).ok()) {
        let v: Vec<u64> = text
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        if let [result_pairs, checksum, queries, removals, inserts] = v[..] {
            return Ok(Digest {
                result_pairs,
                checksum,
                queries,
                removals,
                inserts,
            });
        }
    }
    let d = Digest::of(&run_episode(bench, bench.reference(), seed, size, false)?.stats);
    if let Some(path) = cache {
        let text = format!(
            "{} {} {} {} {}\n",
            d.result_pairs, d.checksum, d.queries, d.removals, d.inserts
        );
        // A cache that cannot be written only costs the next run time.
        let _ = path
            .parent()
            .map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| fs::write(&path, text));
    }
    Ok(d)
}

fn write_spans(path: &Path, traced: &[Episode]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    for (episode, e) in traced.iter().enumerate() {
        for (id, s) in e.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"episode\": {episode}, \"id\": {id}, \"name\": \"{}\", \"tick\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"thread\": {}, \"count\": {}}}",
                s.name,
                opt(s.tick.map(u64::from)),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                s.thread,
                s.count
            )?;
        }
    }
    out.flush()
}

fn run(opts: &Opts) -> Result<(), String> {
    let bench = opts.bench;
    let host = Host::detect();
    let comparable = host.nproc >= bench.workers();
    if !comparable {
        eprintln!(
            "perfbench: {} uses {} workers but this host has {} CPU(s): its timings are \
             not comparable with a host that has {}",
            bench.name(),
            bench.workers(),
            host.nproc,
            bench.workers()
        );
    }

    // The measured section: cycles over the input instances, back to back,
    // until one more cycle would exceed the budget and enough ticks are in. Whole cycles keep every
    // instance equally represented. A traced run alternates untraced and
    // traced episodes of each instance, so both see the same host
    // conditions.
    let size = opts.size;
    let technique = bench.technique();
    let seeds: Vec<u64> = (0..size.instances)
        .map(|i| Bench::instance_seed(opts.seed, size, i))
        .collect();
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    loop {
        let cycle = Instant::now();
        for (i, &seed) in seeds.iter().enumerate() {
            plain.push((i, run_episode(bench, technique, seed, size, false)?));
            if opts.trace {
                traced.push((i, run_episode(bench, technique, seed, size, true)?));
            }
        }
        // The first cycle has run every instance once: its peak is the
        // run's working peak. Later cycles repeat the same work, and only
        // add allocator fragmentation from repeating it in one process.
        if peak_rss.is_none() {
            peak_rss =
                Some(host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?);
        }
        let ticks: usize = plain.iter().map(|(_, e)| e.stats.ticks.len()).sum();
        if ticks >= MIN_MEASURED_TICKS && started.elapsed() + cycle.elapsed() > budget {
            break;
        }
    }
    let measured_for = started.elapsed();
    let peak_rss = peak_rss.expect("the loop runs at least one cycle");

    // Outside the measured section: the independent reference per instance.
    let t0 = Instant::now();
    let mut expected = seeds
        .iter()
        .map(|&seed| reference(bench, seed, size))
        .collect::<Result<Vec<Digest>, String>>()?;
    let reference_s = t0.elapsed().as_secs_f64();
    if opts.perturb_reference {
        expected[0].checksum ^= 1;
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut runs = Vec::new();
    for (i, e, is_traced) in plain
        .iter()
        .map(|(i, e)| (*i, e, false))
        .chain(traced.iter().map(|(i, e)| (*i, e, true)))
    {
        let got = Digest::of(&e.stats);
        attempted += got.queries;
        if got != expected[i] {
            failed += got.queries;
        }
        runs.push(format!(
            "{{\"instance\": {i}, \"traced\": {is_traced}, \"digest\": {}}}",
            got.to_json()
        ));
    }
    let instances: Vec<String> = seeds
        .iter()
        .zip(&expected)
        .map(|(&seed, d)| {
            format!(
                "{{\"seed\": {seed}, \"inputs\": \"{:016x}\", \"reference\": {}}}",
                input_digest(bench, seed, size),
                d.to_json()
            )
        })
        .collect();
    let (plain, traced): (Vec<Episode>, Vec<Episode>) = (
        plain.into_iter().map(|(_, e)| e).collect(),
        traced.into_iter().map(|(_, e)| e).collect(),
    );

    let spans_file = if opts.trace {
        let path = opts
            .spans_out
            .clone()
            .or_else(|| {
                state_dir().map(|d| d.join(format!("spans-{}-s{}.jsonl", bench.name(), opts.seed)))
            })
            .ok_or("no place to write spans")?;
        write_spans(&path, &traced).map_err(|e| format!("{}: {e}", path.display()))?;
        host::json_string(&path.display().to_string())
    } else {
        "null".to_string()
    };

    let ticks: usize = plain.iter().map(|e| e.stats.ticks.len()).sum();
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"technique\": \"{}\", \"join\": \"{}\", \
         \"points\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \"comparable\": {comparable}, \
         \"episodes\": {}, \"measured_ticks\": {ticks}, \"measured_s\": {}, \"reference_s\": {reference_s}, \
         \"reference_technique\": \"{}\", \"instances\": [{}], \"runs\": [{}], \"spans_file\": {spans_file}}}}}",
        bench.name(),
        technique,
        bench.join(),
        size.points,
        opts.seed,
        opts.trace,
        host.to_json(),
        plain.len(),
        measured_for.as_secs_f64(),
        bench.reference(),
        instances.join(", "),
        runs.join(", "),
    );
    let metrics = if opts.trace {
        metrics::per_layer(&traced, &plain, size.warmup)
    } else {
        metrics::end_to_end(&plain, peak_rss)
    };
    println!("{}", metrics::result_line(attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

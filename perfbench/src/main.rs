//! The RTR benchmark: three workloads, end-to-end metrics from timed runs
//! and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//! `serve-tcp-open`, `eval-table2`, `churn-as3549`. With `--trace 0` the
//! run measures one workload and prints its end-to-end metrics. With
//! `--trace 1` it replays the inputs of all three workloads through the layers' public functions with a
//! span around each call, and prints every per-layer metric, each named
//! `<workload>.<layer>.<metric>`. The last line of standard output is the
//! JSON result; notes and the run context go to standard error. Any
//! output-check mismatch makes the exit code non-zero.

mod churn;
mod eval;
mod gen;
mod layers;
mod serve;
mod stats;
mod trace;

use stats::Samples;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// Threads of every parallel build and of the eval driver: the host
/// budget the benchmark is designed for (`nproc` = 2).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Untraced/traced replay pairs behind `trace.overhead_pct`.
const OVERHEAD_REPEATS: usize = 3;

const WORKLOADS: [&str; 3] = [serve::NAME, eval::NAME, churn::NAME];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports: operation counts, metrics and notes.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Outcome {
    /// An outcome of `attempted` operations, `failed` of which failed.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// Adds operations and failures.
    pub fn add_failed(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds the `q`-quantile of `s` as a metric. A quantile without
    /// [`stats::MIN_BEYOND`] samples beyond it is not reported: it reads
    /// 0 and the run is marked incorrect.
    pub fn quantile(&mut self, name: String, s: &Samples, q: f64, unit: &'static str) {
        let value = s.quantile(q).unwrap_or_else(|| {
            self.problems
                .push(format!("{name}: {} samples cannot support q={q}", s.len()));
            0.0
        });
        self.metric(name, value, unit);
    }

    /// Adds the end-to-end metrics of a timed run.
    pub fn end_to_end(&mut self, setup_s: f64, lat_p50_us: f64, lat_p99_us: f64, per_s: f64) {
        self.metric("setup_s", setup_s, "s");
        self.metric("latency_p50_us", lat_p50_us, "us");
        self.metric("latency_p99_us", lat_p99_us, "us");
        self.metric("throughput_per_s", per_s, "1/s");
        self.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }

    /// Adds a human-readable note for standard error.
    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Checks the metric names against the list in `BENCHMARK.json`.
    fn check_names(&mut self, section: &str) {
        let listed = match std::fs::read_to_string("BENCHMARK.json") {
            Ok(text) => listed_names(&text, section),
            Err(e) => {
                self.problems.push(format!("reading BENCHMARK.json: {e}"));
                return;
            }
        };
        let mut emitted: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        emitted.sort_unstable();
        let mut listed_sorted: Vec<&str> = listed.iter().map(String::as_str).collect();
        listed_sorted.sort_unstable();
        if emitted != listed_sorted {
            let missing: Vec<_> = listed_sorted
                .iter()
                .filter(|n| !emitted.contains(n))
                .collect();
            let extra: Vec<_> = emitted
                .iter()
                .filter(|n| !listed_sorted.contains(n))
                .collect();
            self.problems.push(format!(
                "metrics differ from BENCHMARK.json {section}: missing {missing:?}, extra {extra:?}"
            ));
        }
    }

    fn print(&self) {
        for n in &self.notes {
            eprintln!("  {n}");
        }
        for m in &self.metrics {
            eprintln!("  {:<58} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let error_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "  error_ratio {error_ratio} ({} failed / {} attempted)",
            self.failed, self.attempted
        );
        for p in &self.problems {
            eprintln!("  PROBLEM: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The `name` values of the objects in array `section` of
/// `BENCHMARK.json`. The file is flat enough that a scan suffices.
fn listed_names(text: &str, section: &str) -> Vec<String> {
    let key = format!("\"{section}\"");
    let Some(start) = text.find(&key) else {
        return Vec::new();
    };
    let body = &text[start + key.len()..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Runs `f` `n` times and returns the median wall time in seconds.
pub fn median_of(n: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..n {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64());
    }
    s.median()
}

/// Replays untraced and traced, alternating, [`OVERHEAD_REPEATS`] times
/// each, on fresh state from `prepare` (not timed). Returns the last
/// traced recorder, its replay's result, and the tracing overhead:
/// traced minus untraced median wall time, in percent of untraced.
pub fn overhead<S, R>(
    mut prepare: impl FnMut() -> S,
    mut replay: impl FnMut(&mut Recorder, S) -> R,
) -> (Recorder, R, f64) {
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut last = None;
    for _ in 0..OVERHEAD_REPEATS {
        let state = prepare();
        let mut rec = Recorder::new(false);
        let t = Instant::now();
        std::hint::black_box(replay(&mut rec, state));
        plain.push(t.elapsed().as_secs_f64());

        let state = prepare();
        let mut rec = Recorder::new(true);
        let t = Instant::now();
        let out = replay(&mut rec, state);
        traced.push(t.elapsed().as_secs_f64());
        last = Some((rec, out));
    }
    let pct = (traced.median() - plain.median()) / plain.median() * 100.0;
    let (rec, out) = last.expect("OVERHEAD_REPEATS > 0");
    (rec, out, pct)
}

/// Writes a recorder's spans under the build directory.
pub fn save_spans(rec: &Recorder, workload: &str) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{workload}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => eprintln!("  spans written to {}", path.display()),
        Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        // Every traced run covers all three workloads, so each reports
        // every per-layer metric; the live serving phase takes a quarter
        // of the run's seconds.
        let mut out = Outcome::default();
        serve::traced(args.seed, args.seconds / 4.0, &mut out)?;
        eval::traced(args.seed, &mut out)?;
        churn::traced(args.seed, &mut out)?;
        out.check_names("per_layer");
        return Ok(out);
    }
    let mut out = match args.workload.as_str() {
        "serve-tcp-open" => serve::timed(args.seed, args.seconds)?,
        "eval-table2" => eval::timed(args.seed, args.seconds)?,
        "churn-as3549" => churn::timed(args.seed, args.seconds)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.check_names("end_to_end");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "perfbench: {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"threads\": {THREADS}, \"service_workers\": {}, \
         \"setup_repeats\": {SETUP_REPEATS}}}",
        args.workload,
        args.trace,
        args.seed,
        args.seconds,
        serve::WORKERS
    );
    match run(&args) {
        Ok(out) => {
            out.print();
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

//! Minimal shared CLI argument handling for the experiment binaries.
//!
//! Every binary accepts:
//!
//! ```text
//! --cases N        test cases per class per topology (default 2000)
//! --paper          paper scale (10000 cases, 1000 areas per radius)
//! --quick          quick scale (500 cases, 100 areas per radius)
//! --seed S         base RNG seed
//! --topos A,B,...  comma-separated Table II names (default: all eight);
//!                  an unknown name is a usage error
//! --json PATH      also write the report as JSON
//! --trace PATH     replay every scenario with a live trace sink and
//!                  write one JSONL metrics line per scenario
//! --threads N      driver worker threads (0 = auto via RTR_THREADS or
//!                  available parallelism, 1 = serial; results are
//!                  byte-identical at every setting)
//! ```
//!
//! All output is routed through [`crate::writer`]: the report goes to
//! stdout in one locked write, JSON/JSONL artifacts go to files, and
//! status notices go to stderr — so `--trace` and report output can
//! never interleave.

use crate::config::ExperimentConfig;
use crate::json::ToJson;
use rtr_topology::isp::{self, IspProfile};
use std::fmt;

/// A requested topology name that is not one of the Table II twins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTopology(pub String);

impl fmt::Display for UnknownTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown topology {:?} (expected one of", self.0)?;
        for (i, p) in isp::TABLE2.iter().enumerate() {
            write!(f, "{} {}", if i == 0 { "" } else { "," }, p.name)?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for UnknownTopology {}

/// Parsed common options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Experiment configuration assembled from the flags.
    pub config: ExperimentConfig,
    /// Selected Table II topologies, in `--topos` order (all eight when
    /// the flag is absent).
    pub topologies: Vec<IspProfile>,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional JSONL trace output path (see [`crate::trace`]).
    pub trace: Option<String>,
}

impl Options {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, malformed values, or a
    /// `--topos` name outside Table II ([`UnknownTopology`]'s message).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options {
            config: ExperimentConfig::default(),
            ..Default::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--cases" => {
                    let v = it.next().ok_or("--cases requires a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --cases value: {v}"))?;
                    opts.config.cases_per_class = n;
                }
                "--paper" => {
                    let cases = opts.config.cases_per_class;
                    opts.config = ExperimentConfig::paper()
                        .with_seed(opts.config.seed)
                        .with_threads(opts.config.threads);
                    // --cases given earlier still wins.
                    if cases != ExperimentConfig::default().cases_per_class {
                        opts.config.cases_per_class = cases;
                    }
                }
                "--quick" => {
                    opts.config = ExperimentConfig::quick()
                        .with_seed(opts.config.seed)
                        .with_threads(opts.config.threads);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed requires a value")?;
                    let s: u64 = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
                    opts.config.seed = s;
                }
                "--topos" => {
                    let v = it.next().ok_or("--topos requires a value")?;
                    opts.topologies = v
                        .split(',')
                        .map(|n| {
                            let n = n.trim();
                            isp::profile(n).ok_or_else(|| UnknownTopology(n.to_string()))
                        })
                        .collect::<Result<_, _>>()
                        .map_err(|e| e.to_string())?;
                }
                "--json" => {
                    opts.json = Some(it.next().ok_or("--json requires a path")?);
                }
                "--trace" => {
                    opts.trace = Some(it.next().ok_or("--trace requires a path")?);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --threads value: {v}"))?;
                    opts.config.threads = n;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        if opts.topologies.is_empty() {
            opts.topologies = isp::TABLE2.to_vec();
        }
        Ok(opts)
    }

    /// Parses from the process environment.
    ///
    /// # Errors
    ///
    /// Same as [`Options::parse`].
    pub fn from_env() -> Result<Options, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Emits everything a binary owes for one run, all through
    /// [`crate::writer`]: the text report to stdout, the pretty JSON to
    /// the `--json` path, and the per-scenario JSONL metrics replay to
    /// the `--trace` path.
    pub fn emit<R: ToJson + std::fmt::Display>(&self, report: &R) {
        crate::writer::print_report(report);
        if let Some(path) = &self.json {
            let json = crate::json::to_string_pretty(report);
            crate::writer::write_file(path, &json).unwrap_or_else(|e| panic!("{e}"));
            crate::writer::notice(format!("wrote {path}"));
        }
        if let Some(path) = &self.trace {
            crate::trace::write_trace(&self.topologies, &self.config, path)
                .unwrap_or_else(|e| panic!("{e}"));
            crate::writer::notice(format!("wrote {path}"));
        }
    }
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "\
usage: <experiment> [--cases N] [--paper|--quick] [--seed S] [--topos AS209,AS701,...] \
[--json PATH] [--trace PATH] [--threads N]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.config.cases_per_class, 2000);
        assert_eq!(o.topologies, isp::TABLE2);
        assert!(o.json.is_none());
    }

    #[test]
    fn flags_combine() {
        let o = parse(&[
            "--cases",
            "42",
            "--seed",
            "7",
            "--topos",
            "AS209,AS701",
            "--json",
            "/tmp/x.json",
            "--trace",
            "/tmp/x.jsonl",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(o.config.cases_per_class, 42);
        assert_eq!(o.config.seed, 7);
        let names: Vec<&str> = o.topologies.iter().map(|p| p.name).collect();
        assert_eq!(names, ["AS209", "AS701"]);
        assert_eq!(o.json.as_deref(), Some("/tmp/x.json"));
        assert_eq!(o.trace.as_deref(), Some("/tmp/x.jsonl"));
        assert_eq!(o.config.threads, 4);
    }

    #[test]
    fn paper_and_quick_presets() {
        assert_eq!(parse(&["--paper"]).unwrap().config.cases_per_class, 10_000);
        assert_eq!(parse(&["--quick"]).unwrap().config.cases_per_class, 500);
        // --cases before --paper is preserved.
        assert_eq!(
            parse(&["--cases", "123", "--paper"])
                .unwrap()
                .config
                .cases_per_class,
            123
        );
        // --threads before a preset is preserved too.
        assert_eq!(
            parse(&["--threads", "2", "--quick"])
                .unwrap()
                .config
                .threads,
            2
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(parse(&["--cases"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--cases", "xyz"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "-2"]).is_err());
    }

    #[test]
    fn unknown_topology_is_a_usage_error() {
        let err = parse(&["--topos", "AS209,ASnope"]).unwrap_err();
        assert_eq!(err, UnknownTopology("ASnope".to_string()).to_string());
        assert!(err.contains("ASnope") && err.contains("AS1239"), "{err}");
        assert!(parse(&["--topos", "ASnope"]).is_err());
    }

    #[test]
    fn threads_defaults_to_auto() {
        assert_eq!(parse(&[]).unwrap().config.threads, 0);
        assert_eq!(parse(&["--threads", "0"]).unwrap().config.threads, 0);
    }
}

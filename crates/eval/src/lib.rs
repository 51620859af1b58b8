//! Experiment harness reproducing every table and figure of the RTR paper
//! (*Optimal Recovery from Large-Scale Failures in IP Networks*, ICDCS'12).
//!
//! | Experiment | Builder | Binary |
//! |---|---|---|
//! | Table II  | [`reports::table2`]  | `table2` |
//! | Figure 7  | [`reports::fig7`]    | `fig7` |
//! | Table III | [`reports::table3`]  | `table3` |
//! | Figure 8  | [`reports::fig8`]    | `fig8` |
//! | Figure 9  | [`reports::fig9`]    | `fig9` |
//! | Figure 10 | [`reports::fig10`]   | `fig10` |
//! | Figure 11 | [`fig11::fig11`]     | `fig11` |
//! | Figure 12 | [`reports::fig12`]   | `fig12` |
//! | Figure 13 | [`reports::fig13`]   | `fig13` |
//! | Table IV  | [`reports::table4`]  | `table4` |
//!
//! Extensions beyond the paper:
//!
//! | Extension | Builder | Binary |
//! |---|---|---|
//! | Ablations A/B (thoroughness, embedding) | [`ablations`] | `ablation` |
//! | S — recovery rate vs radius | [`sensitivity`] | `sensitivity` |
//! | L — concurrent-recovery network load | [`netload`] | `netload` |
//! | F — equal-area failure shapes | [`shapes`] | `shapes` |
//! | M — scenario-class × scheme matrix | [`matrix`] | `matrix` |
//! | O — per-scenario trace metrics + recovery narrative | [`trace`] | `explain` |
//! | C — dynamic failure timelines + incremental baseline | [`churn`] | `churn` |
//!
//! The `repro` binary runs every paper experiment plus the ablations and
//! writes text + JSON artifacts to `results/`.
//!
//! # Examples
//!
//! ```
//! use rtr_eval::{config::ExperimentConfig, driver, reports};
//! use rtr_topology::isp;
//!
//! // A quick single-topology run (50 cases per class), serial.
//! let cfg = ExperimentConfig::quick().with_cases(50).with_threads(1);
//! let as1239 = isp::profile("AS1239").expect("AS1239 is a Table II topology");
//! let results = driver::run_topologies(&[as1239], &cfg).expect("AS1239 builds MRC");
//! let table3 = reports::table3(&results);
//! assert!(table3.to_string().contains("AS1239"));
//! ```
//!
//! The driver parallelises scenarios and topologies across the [`par`]
//! executor (`--threads` / `RTR_THREADS`); results are byte-identical at
//! every worker count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod baseline;
pub mod churn;
pub mod cli;
pub mod config;
pub mod driver;
pub mod fig11;
pub mod json;
pub mod matrix;
pub mod metrics;
pub mod netload;
pub mod par;
pub mod reports;
pub mod schemes;
pub mod sensitivity;
pub mod shapes;
pub mod testcase;
pub mod trace;
pub mod viz;
pub mod writer;

pub use cli::UnknownTopology;
pub use config::ExperimentConfig;
pub use driver::{run_topologies, TopologyResults};

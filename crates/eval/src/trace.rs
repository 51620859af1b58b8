//! Observability replay: the `--trace` JSONL dump and the `explain`
//! narrative.
//!
//! The driver's hot loops run with the no-op sink (tracing off = free);
//! when `--trace <path>` is given, this module *replays* the RTR side of
//! every scenario with a live sink — same workload, same deterministic
//! seeds — aggregating one [`MetricsRegistry`] per scenario
//! and writing it as one JSONL line. The replay walks the same
//! [`testcase::sessions`](crate::testcase::sessions) layout as the driver,
//! so the event-derived numbers equal the driver's metrics; the
//! golden-trace test pins that equality.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::json::{Json, ToJson};
use crate::testcase::{generate_workload_shared, sessions, ScenarioCases, Workload};
use crate::writer;
use rtr_core::{RecoveryScratch, RtrSession};
use rtr_obs::{CollectingSink, Event, Histogram, MetricsRegistry, Phase, TraceSink};
use rtr_topology::{isp, NodeId};
use std::time::Instant;

/// Replays every recovery session of one scenario (both case classes, in
/// the [`sessions`] layout the driver walks) into `sink`, reporting each
/// session's `(hops, header_bytes, sp_calculations, phase1, phase2)`
/// through `per_session`.
fn replay_scenario_into<S: TraceSink>(
    w: &Workload,
    sc: &ScenarioCases,
    sink: &mut S,
    mut per_session: impl FnMut(&mut S, SessionStats),
) {
    let mut scratch = RecoveryScratch::default();
    for class in [&sc.recoverable, &sc.irrecoverable] {
        for (initiator, failed_link, cases) in sessions(class) {
            let phase1_start = Instant::now();
            // Infeasible starts are skipped (they cannot occur for
            // harvested cases).
            let Ok(mut session) = RtrSession::start_traced_in(
                w.topo(),
                w.crosslinks(),
                &sc.scenario,
                initiator,
                failed_link,
                &mut scratch,
                sink,
            ) else {
                continue;
            };
            let phase1_micros = phase1_start.elapsed().as_micros() as u64;
            let phase2_start = Instant::now();
            for case in cases {
                let _ = session.recover_traced(case.dest, sink);
            }
            let phase2_micros = phase2_start.elapsed().as_micros() as u64;
            let stats = SessionStats {
                initiator,
                hops: session.phase1().trace.hops(),
                header_bytes: session.phase1().header.overhead_bytes(),
                sp_calculations: session.sp_calculations(),
                phase1_micros,
                phase2_micros,
            };
            session.recycle(&mut scratch);
            per_session(sink, stats);
        }
    }
}

/// Ground-truth per-session quantities reported alongside the replayed
/// event stream (used by the registry's histograms and by the golden
/// test to cross-check the events).
#[derive(Debug, Clone, Copy)]
pub struct SessionStats {
    /// The session's recovery initiator.
    pub initiator: NodeId,
    /// Phase-1 collection-walk hops ([`rtr_sim::ForwardingTrace::hops`]).
    pub hops: usize,
    /// Final collection-header overhead in bytes.
    pub header_bytes: usize,
    /// Shortest-path calculations the session performed (always 1).
    pub sp_calculations: usize,
    /// Measured phase-1 wall time, µs.
    pub phase1_micros: u64,
    /// Measured phase-2 wall time (recompute + all case walks), µs.
    pub phase2_micros: u64,
}

/// Replays one scenario into a fresh [`MetricsRegistry`]: counters from
/// the event stream, per-session histograms and phase wall time from the
/// session boundaries.
pub fn scenario_registry(w: &Workload, sc: &ScenarioCases) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    replay_scenario_into(w, sc, &mut reg, |reg, s| {
        reg.record_phase_micros(Phase::Collect, s.phase1_micros);
        reg.record_phase_micros(Phase::Recompute, s.phase2_micros);
        reg.finish_session(
            s.hops as u64,
            s.header_bytes as u64,
            s.sp_calculations as u64,
        );
    });
    reg
}

/// One replayed recovery session with its buffered event stream.
#[derive(Debug, Clone)]
pub struct SessionReplay {
    /// Ground-truth session quantities (from the session itself, not the
    /// events — the golden test asserts both agree).
    pub stats: SessionStats,
    /// The session's events in emission order: the phase-1 sweep, the
    /// [`Event::SptRecompute`], then per-case route/discard events.
    pub events: Vec<Event>,
}

/// Replays every session of one scenario with a [`CollectingSink`],
/// returning the per-session event streams in the driver's deterministic
/// order (recoverable initiators ascending, then irrecoverable).
pub fn replay_scenario(w: &Workload, sc: &ScenarioCases) -> Vec<SessionReplay> {
    let mut sink = CollectingSink::new();
    let mut replays: Vec<SessionReplay> = Vec::new();
    replay_scenario_into(w, sc, &mut sink, |sink, stats| {
        replays.push(SessionReplay {
            stats,
            events: sink.events().to_vec(),
        });
        sink.clear();
    });
    replays
}

/// Renders one session's event stream as a numbered, phase-labelled
/// recovery narrative (the `explain` binary's core).
pub fn narrate(events: &[Event]) -> String {
    let mut out = String::new();
    for (i, e) in events.iter().enumerate() {
        let phase = if e.is_phase1() { 1 } else { 2 };
        out.push_str(&format!("{:>4}  [phase {phase}] {e}\n", i + 1));
    }
    out
}

fn histogram_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("count", Json::Num(h.count() as f64)),
        ("sum", Json::Num(h.sum() as f64)),
        (
            "buckets",
            Json::Arr(
                h.nonempty_prefix()
                    .iter()
                    .map(|&b| Json::Num(b as f64))
                    .collect(),
            ),
        ),
    ])
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sessions", Json::Num(self.sessions() as f64)),
            ("sweep_hops", Json::Num(self.sweep_hops() as f64)),
            (
                "failed_links_appended",
                Json::Num(self.failed_links_appended() as f64),
            ),
            (
                "cross_links_excluded",
                Json::Num(self.cross_links_excluded() as f64),
            ),
            ("spt_recomputes", Json::Num(self.spt_recomputes() as f64)),
            (
                "spt_nodes_touched",
                Json::Num(self.spt_nodes_touched() as f64),
            ),
            (
                "source_routes_installed",
                Json::Num(self.source_routes_installed() as f64),
            ),
            (
                "packets_discarded",
                Json::Num(self.packets_discarded() as f64),
            ),
            ("hops_per_session", histogram_json(self.hops_per_session())),
            ("header_bytes", histogram_json(self.header_bytes())),
            ("sp_calculations", histogram_json(self.sp_calculations())),
            ("phase1_micros", histogram_json(self.phase1_micros())),
            ("phase2_micros", histogram_json(self.phase2_micros())),
        ])
    }
}

/// Regenerates the workloads of `profiles` (deterministically, from the
/// shared per-topology baselines) and replays every scenario into a
/// per-scenario [`MetricsRegistry`], written to `path` as one JSONL line
/// per scenario.
///
/// # Errors
///
/// A human-readable message for an I/O failure writing `path`.
pub fn write_trace(
    profiles: &[isp::IspProfile],
    cfg: &ExperimentConfig,
    path: &str,
) -> Result<(), String> {
    let mut lines = String::new();
    for &p in profiles {
        let w = workload_for(p, cfg);
        for (i, sc) in w.scenarios.iter().enumerate() {
            let reg = scenario_registry(&w, sc);
            let line = Json::Obj(vec![
                ("topology", Json::Str(p.name.to_string())),
                ("scenario", Json::Num(i as f64)),
                ("recoverable_cases", Json::Num(sc.recoverable.len() as f64)),
                (
                    "irrecoverable_cases",
                    Json::Num(sc.irrecoverable.len() as f64),
                ),
                ("metrics", reg.to_json()),
            ]);
            lines.push_str(&line.compact());
            lines.push('\n');
        }
    }
    writer::write_file(path, &lines)
}

/// The first scenario of `w` that has at least one recoverable case (the
/// `explain` default), with its index.
pub fn first_recoverable_scenario(w: &Workload) -> Option<(usize, &ScenarioCases)> {
    w.scenarios
        .iter()
        .enumerate()
        .find(|(_, sc)| !sc.recoverable.is_empty())
}

/// Regenerates the workload for one Table II profile exactly as the
/// driver would.
pub fn workload_for(p: isp::IspProfile, cfg: &ExperimentConfig) -> Workload {
    generate_workload_shared(
        p.name,
        Baseline::for_profile(&p),
        cfg,
        cfg.seed ^ u64::from(p.asn),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::generate_workload;
    use rtr_topology::generate;

    fn fixture() -> Workload {
        let cfg = ExperimentConfig::quick().with_cases(30).with_threads(1);
        let topo = generate::isp_like(30, 70, 2000.0, 8).unwrap();
        generate_workload("t", topo, &cfg, 2)
    }

    #[test]
    fn registry_counters_match_collected_events() {
        let w = fixture();
        let (_, sc) = first_recoverable_scenario(&w).expect("30 cases hit something");
        let reg = scenario_registry(&w, sc);
        let replays = replay_scenario(&w, sc);
        assert_eq!(reg.sessions(), replays.len() as u64);

        let count = |f: fn(&Event) -> bool| -> u64 {
            replays
                .iter()
                .flat_map(|r| r.events.iter())
                .filter(|e| f(e))
                .count() as u64
        };
        assert_eq!(
            reg.sweep_hops(),
            count(|e| matches!(e, Event::SweepHop { .. }))
        );
        assert_eq!(
            reg.spt_recomputes(),
            count(|e| matches!(e, Event::SptRecompute { .. }))
        );
        assert_eq!(
            reg.source_routes_installed(),
            count(|e| matches!(e, Event::SourceRouteInstalled { .. }))
        );
        assert_eq!(
            reg.packets_discarded(),
            count(|e| matches!(e, Event::PacketDiscarded { .. }))
        );
        // Per-session ground truth agrees with the event stream.
        for r in &replays {
            let hops = r
                .events
                .iter()
                .filter(|e| matches!(e, Event::SweepHop { .. }))
                .count();
            assert_eq!(hops, r.stats.hops);
        }
    }

    #[test]
    fn narrate_produces_one_labelled_line_per_event() {
        let w = fixture();
        let (_, sc) = first_recoverable_scenario(&w).unwrap();
        let replays = replay_scenario(&w, sc);
        let r = replays.first().unwrap();
        let text = narrate(&r.events);
        assert_eq!(text.lines().count(), r.events.len());
        assert!(text.contains("[phase 1]"));
        assert!(text.contains("[phase 2]"));
    }

    #[test]
    fn write_trace_emits_one_jsonl_line_per_scenario() {
        let cfg = ExperimentConfig::quick().with_cases(10).with_threads(1);
        let dir = std::env::temp_dir().join("rtr-eval-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path = path.to_str().unwrap();
        let as209 = isp::profile("AS209").unwrap();
        write_trace(&[as209], &cfg, path).unwrap();
        let contents = std::fs::read_to_string(path).unwrap();
        let w = workload_for(as209, &cfg);
        assert_eq!(contents.lines().count(), w.scenarios.len());
        for line in contents.lines() {
            assert!(line.starts_with("{\"topology\":\"AS209\""));
            assert!(line.contains("\"sweep_hops\""));
        }
    }
}

//! Per-layer metrics shared by several workloads: the RTR phases and the
//! topology/routing substrate.

use crate::trace::Profile;
use crate::{median_of, Outcome};
use rtr_core::{Phase1Result, RecoveryComputer};
use rtr_routing::RoutingTable;
use rtr_topology::{CrossLinkTable, FullView, Topology};

/// Work counted while replaying RTR sessions.
#[derive(Debug, Default)]
pub struct PhaseCounts {
    /// Sessions started (phase 1 ran).
    pub sessions: u64,
    /// Phase-1 walk hops, summed.
    pub hops: u64,
    /// Links recorded in phase-1 headers (failed + crossing), summed.
    pub header_links: u64,
    /// Nodes the recovery SPT re-examined, summed.
    pub nodes_touched: u64,
    /// Destinations recovered.
    pub dests: u64,
    /// Destinations delivered.
    pub delivered: u64,
}

impl PhaseCounts {
    /// Counts one session: its phase-1 walk and recovery SPT.
    pub fn session(&mut self, phase1: &Phase1Result, computer: &RecoveryComputer<'_>) {
        let header = &phase1.header;
        self.sessions += 1;
        self.hops += phase1.trace.hops() as u64;
        self.header_links += (header.failed_links().len() + header.cross_links().len()) as u64;
        self.nodes_touched += computer.nodes_touched() as u64;
    }

    /// Counts one recovered destination.
    pub fn dest(&mut self, delivered: bool) {
        self.dests += 1;
        self.delivered += u64::from(delivered);
    }
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `phase1.*` and `phase2.*` metrics from spans named `phase1.sweep`,
/// `phase2.spt`, `phase2.path` and `phase2.walk`.
pub fn phase_metrics(out: &mut Outcome, wl: &str, p: &Profile, c: &PhaseCounts) {
    let m = |name: &str| format!("{wl}.{name}");
    let sweep = p.total("phase1.sweep");
    out.quantile(m("phase1.sweep_p50_us"), &sweep, 0.50, "us");
    out.quantile(m("phase1.sweep_p99_us"), &sweep, 0.99, "us");
    out.metric(m("phase1.hops"), per(c.hops, c.sessions), "count");
    out.metric(
        m("phase1.header_links"),
        per(c.header_links, c.sessions),
        "count",
    );
    let spt = p.total("phase2.spt");
    out.quantile(m("phase2.spt_p50_us"), &spt, 0.50, "us");
    out.quantile(m("phase2.spt_p99_us"), &spt, 0.99, "us");
    out.metric(
        m("phase2.nodes_touched"),
        per(c.nodes_touched, c.sessions),
        "count",
    );
    out.metric(m("phase2.path_us"), p.total("phase2.path").mean(), "us");
    out.metric(m("phase2.walk_us"), p.total("phase2.walk").mean(), "us");
    out.metric(
        m("phase2.dests_per_session"),
        per(c.dests, c.sessions),
        "count",
    );
    out.metric(
        m("phase2.delivered_ratio"),
        per(c.delivered, c.dests),
        "ratio",
    );
}

/// `topology.crosslinks_s`, `topology.crossing_pairs` and
/// `routing.table_s`, summed over `topos`; each build is timed three
/// times and its median taken.
pub fn substrate_metrics(out: &mut Outcome, wl: &str, topos: &[&Topology]) {
    let mut crosslinks_s = 0.0;
    let mut table_s = 0.0;
    let mut pairs = 0usize;
    for topo in topos {
        let mut crosslinks = None;
        crosslinks_s += median_of(3, || crosslinks = Some(CrossLinkTable::new(topo)));
        pairs += crosslinks.map_or(0, |c| c.crossing_pair_count());
        table_s += median_of(3, || {
            std::hint::black_box(RoutingTable::compute(topo, &FullView));
        });
    }
    out.metric(format!("{wl}.topology.crosslinks_s"), crosslinks_s, "s");
    out.metric(
        format!("{wl}.topology.crossing_pairs"),
        pairs as f64,
        "count",
    );
    out.metric(format!("{wl}.routing.table_s"), table_s, "s");
}

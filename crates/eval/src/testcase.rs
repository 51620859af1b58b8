//! Test-case generation per §IV-A.
//!
//! A *test case* is a (recovery initiator, destination, failure area)
//! triple: failed routing paths sharing initiator and destination have
//! identical recovery processes and count once. Failure areas are circles
//! with the center uniform in the 2000 × 2000 plane and the radius uniform
//! in [100, 300]; nodes inside and links crossing the circle fail. Cases
//! are *recoverable* when the destination is still reachable from the
//! initiator in the ground truth, *irrecoverable* otherwise.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_routing::RoutingTable;
use rtr_topology::{CrossLinkTable, FailureScenario, GraphView, LinkId, NodeId, Region, Topology};
use std::sync::Arc;

/// One test case: the recovery starts at `initiator` (whose default next
/// hop over `failed_link` is unreachable) toward `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestCase {
    /// The recovery initiator.
    pub initiator: NodeId,
    /// The unusable default next-hop link that triggered recovery.
    pub failed_link: LinkId,
    /// The destination of the failed routing path.
    pub dest: NodeId,
}

/// All test cases produced by one failure area.
///
/// Both case lists are sorted by initiator, so each initiator's cases
/// form one contiguous run: [`cases_for_scenario`], the only
/// constructor, walks initiators in ascending order, and the workload
/// generators only truncate its output to a prefix. [`sessions`] relies
/// on this invariant.
#[derive(Debug, Clone)]
pub struct ScenarioCases {
    /// The failure region that was applied.
    pub region: Region,
    /// Ground truth of the failure.
    pub scenario: FailureScenario,
    /// Recoverable cases (destination still reachable from the initiator).
    pub recoverable: Vec<TestCase>,
    /// Irrecoverable cases (destination failed or partitioned away).
    pub irrecoverable: Vec<TestCase>,
}

/// A full per-topology workload: the shared baseline (topology, routing
/// table, crossing table, first-hop buckets) plus enough failure scenarios
/// to fill both case classes.
#[derive(Debug)]
pub struct Workload {
    /// Display name (e.g. `"AS209"`).
    pub name: String,
    /// Immutable per-topology baseline, shared read-only across workers
    /// (and across workloads of the same topology).
    pub baseline: Arc<Baseline>,
    /// Scenarios with their test cases.
    pub scenarios: Vec<ScenarioCases>,
}

impl Workload {
    /// The topology under test.
    pub fn topo(&self) -> &Topology {
        self.baseline.topo()
    }

    /// Pre-failure routing tables (shared by all scenarios).
    pub fn table(&self) -> &RoutingTable {
        self.baseline.table()
    }

    /// Precomputed link-crossing table for RTR's first phase.
    pub fn crosslinks(&self) -> &CrossLinkTable {
        self.baseline.crosslinks()
    }

    /// The scheme-routing context of the shared baseline.
    pub fn scheme_ctx(&self) -> rtr_baselines::SchemeCtx<'_> {
        self.baseline.scheme_ctx()
    }

    /// Total recoverable cases across scenarios.
    pub fn recoverable_count(&self) -> usize {
        self.scenarios.iter().map(|s| s.recoverable.len()).sum()
    }

    /// Total irrecoverable cases across scenarios.
    pub fn irrecoverable_count(&self) -> usize {
        self.scenarios.iter().map(|s| s.irrecoverable.len()).sum()
    }
}

/// The recovery sessions of one case class: one
/// `(initiator, failed_link, cases)` per initiator, in ascending initiator
/// order, with the initiator's cases in list order. `failed_link` is the
/// first case's link, which starts the session's phase-1 sweep.
///
/// This is the one session layout every consumer (driver, trace replay,
/// extensions, serving mix) walks. It borrows runs of `cases` without
/// allocating, relying on the [`ScenarioCases`] ordering invariant.
pub fn sessions(cases: &[TestCase]) -> impl Iterator<Item = (NodeId, LinkId, &[TestCase])> {
    debug_assert!(cases.is_sorted_by_key(|c| c.initiator));
    cases
        .chunk_by(|a, b| a.initiator == b.initiator)
        .filter_map(|group| group.first().map(|c| (c.initiator, c.failed_link, group)))
}

/// Connected-component labels of the live subgraph (failed nodes get the
/// sentinel `usize::MAX`).
pub fn component_labels(topo: &Topology, scenario: &FailureScenario) -> Vec<usize> {
    let mut comp = vec![usize::MAX; topo.node_count()];
    let mut next = 0usize;
    for start in topo.node_ids() {
        if scenario.is_node_failed(start) || comp[start.index()] != usize::MAX {
            continue;
        }
        comp[start.index()] = next;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &(v, l) in topo.neighbors(u) {
                if comp[v.index()] == usize::MAX && scenario.is_link_usable(topo, l) {
                    comp[v.index()] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Extracts every test case induced by one failure scenario: all pairs
/// `(u, t)` where live router `u`'s default next hop toward `t` is
/// unreachable. (Any failed routing path through `u` toward `t` yields this
/// same recovery process, so the pair *is* the test case.)
///
/// A destination's default first hop from `u` is always one of `u`'s
/// incident links, so instead of probing `next_hop(u, t)` for all n² pairs
/// this walks only the *unusable* incident links' precomputed destination
/// buckets — O(failed × affected). Re-sorting the harvested pairs by
/// destination restores the exact `(u` ascending`, t` ascending`)` emission
/// order of the former full probe, keeping outputs byte-identical.
pub fn cases_for_scenario(
    base: &Baseline,
    region: Region,
    scenario: FailureScenario,
) -> ScenarioCases {
    let topo = base.topo();
    let comp = component_labels(topo, &scenario);
    let mut recoverable = Vec::new();
    let mut irrecoverable = Vec::new();
    let mut affected: Vec<(NodeId, LinkId)> = Vec::new();
    for u in topo.node_ids() {
        if scenario.is_node_failed(u) {
            continue;
        }
        // A node with no live neighbor cannot even start recovery; the
        // evaluation skips it like a failed source.
        let mut has_live = false;
        affected.clear();
        for (slot, &(_, link)) in topo.neighbors(u).iter().enumerate() {
            if scenario.is_link_usable(topo, link) {
                has_live = true;
            } else {
                affected.extend(base.dests_via(u, slot).iter().map(|&t| (t, link)));
            }
        }
        if !has_live {
            continue;
        }
        // Each destination lives in exactly one bucket, so this sort is a
        // permutation back to ascending-destination order.
        affected.sort_unstable_by_key(|&(t, _)| t);
        for &(t, link) in &affected {
            let case = TestCase {
                initiator: u,
                failed_link: link,
                dest: t,
            };
            let rec = !scenario.is_node_failed(t) && comp[u.index()] == comp[t.index()];
            if rec {
                recoverable.push(case);
            } else {
                irrecoverable.push(case);
            }
        }
    }
    ScenarioCases {
        region,
        scenario,
        recoverable,
        irrecoverable,
    }
}

/// Draws one random circular failure region per §IV-A.
pub fn random_region(cfg: &ExperimentConfig, rng: &mut StdRng) -> Region {
    let cx = rng.gen_range(0.0..cfg.area_extent);
    let cy = rng.gen_range(0.0..cfg.area_extent);
    let r = rng.gen_range(cfg.radius_min..=cfg.radius_max);
    Region::circle((cx, cy), r)
}

/// A family of failure scenarios for the scheme-comparison matrix: the
/// paper evaluates only correlated areas (§IV-A), but the schemes differ
/// most sharply in *how* failures are distributed, so the matrix
/// experiment crosses every scheme with four scenario classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioClass {
    /// Exactly one failed link, drawn uniformly — the classic fast-reroute
    /// regime where every proactive scheme is at its best.
    SingleLink,
    /// Three independently drawn failed links — uncorrelated multi-failure,
    /// the regime eMRC's re-switching targets.
    SparseMultiLink,
    /// One random circular failure area per §IV-A — the paper's regime.
    CorrelatedArea,
    /// Two independently placed circular areas — compound disasters that
    /// stress every scheme's multi-failure handling at once.
    MultiArea,
}

impl ScenarioClass {
    /// All classes in matrix row order.
    pub const ALL: [ScenarioClass; 4] = [
        ScenarioClass::SingleLink,
        ScenarioClass::SparseMultiLink,
        ScenarioClass::CorrelatedArea,
        ScenarioClass::MultiArea,
    ];

    /// Stable kebab-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioClass::SingleLink => "single-link",
            ScenarioClass::SparseMultiLink => "sparse-multi-link",
            ScenarioClass::CorrelatedArea => "correlated-area",
            ScenarioClass::MultiArea => "multi-area",
        }
    }

    /// Draws one scenario of this class. The region is the drawn area for
    /// the area classes and an empty union for the link classes (which
    /// have no geometric footprint).
    fn draw(
        self,
        topo: &Topology,
        cfg: &ExperimentConfig,
        rng: &mut StdRng,
    ) -> (Region, FailureScenario) {
        let link_count = topo.link_count() as u32;
        match self {
            ScenarioClass::SingleLink => {
                let l = LinkId(rng.gen_range(0..link_count));
                (
                    Region::Union(Vec::new()),
                    FailureScenario::single_link(topo, l),
                )
            }
            ScenarioClass::SparseMultiLink => {
                let mut links = Vec::with_capacity(3);
                while links.len() < 3 {
                    let l = LinkId(rng.gen_range(0..link_count));
                    if !links.contains(&l) {
                        links.push(l);
                    }
                }
                (
                    Region::Union(Vec::new()),
                    FailureScenario::from_parts(topo, [], links),
                )
            }
            ScenarioClass::CorrelatedArea => {
                let region = random_region(cfg, rng);
                let scenario = FailureScenario::from_region(topo, &region);
                (region, scenario)
            }
            ScenarioClass::MultiArea => {
                let a = random_region(cfg, rng);
                let b = random_region(cfg, rng);
                let region = Region::Union(vec![a, b]);
                let scenario = FailureScenario::from_region(topo, &region);
                (region, scenario)
            }
        }
    }
}

/// Generates a workload whose scenarios all belong to one
/// [`ScenarioClass`], filling `cfg.cases_per_class` *recoverable* cases.
/// Irrecoverable cases are collected as a by-product (capped at the same
/// target) but do not gate termination: single-link failures on
/// well-connected topologies produce almost none, and the matrix compares
/// delivery on recoverable cases.
pub fn generate_class_workload(
    name: impl Into<String>,
    baseline: Arc<Baseline>,
    cfg: &ExperimentConfig,
    seed: u64,
    class: ScenarioClass,
) -> Workload {
    let topo = baseline.topo();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenarios = Vec::new();
    let (mut rec, mut irr) = (0usize, 0usize);
    let target = cfg.cases_per_class;
    let max_scenarios = 200 * target + 1000;
    for _ in 0..max_scenarios {
        if rec >= target {
            break;
        }
        let (region, scenario) = class.draw(topo, cfg, &mut rng);
        if scenario.failed_node_count() == 0 && scenario.failed_link_count() == 0 {
            continue;
        }
        let mut cases = cases_for_scenario(&baseline, region, scenario);
        cases.recoverable.truncate(target - rec);
        cases.irrecoverable.truncate(target.saturating_sub(irr));
        if cases.recoverable.is_empty() && cases.irrecoverable.is_empty() {
            continue;
        }
        rec += cases.recoverable.len();
        irr += cases.irrecoverable.len();
        scenarios.push(cases);
    }
    Workload {
        name: name.into(),
        baseline,
        scenarios,
    }
}

/// Generates a workload for `topo`: random circular failure areas are drawn
/// until `cfg.cases_per_class` recoverable *and* irrecoverable cases are
/// collected (surplus cases in the final scenarios are trimmed so both
/// classes have exactly the requested size).
///
/// Computes a fresh [`Baseline`] for `topo`; callers that already hold one
/// (e.g. via [`Baseline::for_profile`]) should use
/// [`generate_workload_shared`] instead.
pub fn generate_workload(
    name: impl Into<String>,
    topo: Topology,
    cfg: &ExperimentConfig,
    seed: u64,
) -> Workload {
    generate_workload_shared(name, Arc::new(Baseline::new(topo)), cfg, seed)
}

/// Like [`generate_workload`], over an already-computed shared baseline.
pub fn generate_workload_shared(
    name: impl Into<String>,
    baseline: Arc<Baseline>,
    cfg: &ExperimentConfig,
    seed: u64,
) -> Workload {
    let topo = baseline.topo();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenarios = Vec::new();
    let (mut rec, mut irr) = (0usize, 0usize);
    let target = cfg.cases_per_class;
    // Bound the number of attempts defensively; every region that touches
    // the network yields cases, so this bound is never reached in practice.
    let max_scenarios = 200 * target + 1000;
    for _ in 0..max_scenarios {
        if rec >= target && irr >= target {
            break;
        }
        let region = random_region(cfg, &mut rng);
        let scenario = FailureScenario::from_region(topo, &region);
        if scenario.failed_node_count() == 0 && scenario.failed_link_count() == 0 {
            continue;
        }
        let mut cases = cases_for_scenario(&baseline, region, scenario);
        cases.recoverable.truncate(target.saturating_sub(rec));
        cases.irrecoverable.truncate(target.saturating_sub(irr));
        if cases.recoverable.is_empty() && cases.irrecoverable.is_empty() {
            continue;
        }
        rec += cases.recoverable.len();
        irr += cases.irrecoverable.len();
        scenarios.push(cases);
    }
    Workload {
        name: name.into(),
        baseline,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::generate;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig::quick().with_cases(50)
    }

    #[test]
    fn workload_fills_both_classes_exactly() {
        let topo = generate::isp_like(40, 90, 2000.0, 5).unwrap();
        let w = generate_workload("test", topo, &quick_cfg(), 1);
        assert_eq!(w.recoverable_count(), 50);
        assert_eq!(w.irrecoverable_count(), 50);
        assert!(!w.scenarios.is_empty());
    }

    #[test]
    fn workload_is_deterministic() {
        let mk = || {
            let topo = generate::isp_like(30, 70, 2000.0, 9).unwrap();
            generate_workload("t", topo, &quick_cfg(), 77)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.scenarios.len(), b.scenarios.len());
        for (sa, sb) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(sa.recoverable, sb.recoverable);
            assert_eq!(sa.irrecoverable, sb.irrecoverable);
        }
    }

    #[test]
    fn every_case_is_well_formed() {
        let topo = generate::isp_like(35, 80, 2000.0, 3).unwrap();
        let w = generate_workload("t", topo, &quick_cfg(), 5);
        for sc in &w.scenarios {
            for case in sc.recoverable.iter().chain(&sc.irrecoverable) {
                // The initiator is live and its default next hop is dead.
                assert!(!sc.scenario.is_node_failed(case.initiator));
                assert!(!sc.scenario.is_link_usable(w.topo(), case.failed_link));
                assert!(w
                    .topo()
                    .link(case.failed_link)
                    .is_incident_to(case.initiator));
                let (nh, l) = w.table().next_hop(case.initiator, case.dest).unwrap();
                assert_eq!(l, case.failed_link);
                assert_eq!(
                    w.topo().link(case.failed_link).other_end(case.initiator),
                    nh
                );
            }
            // Class labels match ground-truth reachability.
            for case in &sc.recoverable {
                assert!(rtr_topology::is_reachable(
                    w.topo(),
                    &sc.scenario,
                    case.initiator,
                    case.dest
                ));
            }
            for case in &sc.irrecoverable {
                assert!(!rtr_topology::is_reachable(
                    w.topo(),
                    &sc.scenario,
                    case.initiator,
                    case.dest
                ));
            }
        }
    }

    #[test]
    fn component_labels_partition_live_nodes() {
        let topo = generate::path(5, 10.0).unwrap();
        let s = FailureScenario::from_parts(&topo, [NodeId(2)], []);
        let comp = component_labels(&topo, &s);
        assert_eq!(comp[2], usize::MAX);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn cases_for_scenario_classifies_grid() {
        let topo = generate::grid(3, 3, 10.0);
        let base = Baseline::new(topo);
        let region = Region::circle((10.0, 10.0), 1.0); // centre node only
        let scenario = FailureScenario::from_region(base.topo(), &region);
        let cases = cases_for_scenario(&base, region, scenario);
        // Centre node failed: neighbors lose routes *through* it but every
        // live destination stays reachable; the only irrecoverable dest is
        // the centre itself.
        assert!(!cases.recoverable.is_empty());
        assert!(cases.irrecoverable.iter().all(|c| c.dest == NodeId(4)));
        assert!(!cases.irrecoverable.is_empty());
    }

    #[test]
    fn bucket_walk_matches_full_next_hop_probe() {
        // Reference: the former O(n²) probe of `next_hop(u, t)` for every
        // pair. The bucket walk must reproduce its case lists exactly —
        // same membership, same order.
        let topo = generate::isp_like(35, 80, 2000.0, 3).unwrap();
        let base = Baseline::new(topo);
        let topo = base.topo();
        let cfg = quick_cfg();
        let mut rng = StdRng::seed_from_u64(42);
        let mut scenarios_seen = 0;
        while scenarios_seen < 10 {
            let region = random_region(&cfg, &mut rng);
            let scenario = FailureScenario::from_region(topo, &region);
            if scenario.failed_node_count() == 0 && scenario.failed_link_count() == 0 {
                continue;
            }
            scenarios_seen += 1;
            let comp = component_labels(topo, &scenario);
            let (mut ref_rec, mut ref_irr) = (Vec::new(), Vec::new());
            for u in topo.node_ids() {
                if scenario.is_node_failed(u) {
                    continue;
                }
                let has_live = topo
                    .neighbors(u)
                    .iter()
                    .any(|&(_, l)| scenario.is_link_usable(topo, l));
                if !has_live {
                    continue;
                }
                for t in topo.node_ids() {
                    if t == u {
                        continue;
                    }
                    let Some((_, link)) = base.table().next_hop(u, t) else {
                        continue;
                    };
                    if scenario.is_link_usable(topo, link) {
                        continue;
                    }
                    let case = TestCase {
                        initiator: u,
                        failed_link: link,
                        dest: t,
                    };
                    if !scenario.is_node_failed(t) && comp[u.index()] == comp[t.index()] {
                        ref_rec.push(case);
                    } else {
                        ref_irr.push(case);
                    }
                }
            }
            let fast = cases_for_scenario(&base, region, scenario);
            assert_eq!(fast.recoverable, ref_rec);
            assert_eq!(fast.irrecoverable, ref_irr);
        }
    }

    #[test]
    fn class_workloads_fill_recoverable_and_match_their_class() {
        let topo = generate::isp_like(40, 90, 2000.0, 5).unwrap();
        let base = Arc::new(Baseline::new(topo));
        let cfg = quick_cfg();
        for class in ScenarioClass::ALL {
            let w = generate_class_workload(class.name(), Arc::clone(&base), &cfg, 3, class);
            assert_eq!(w.recoverable_count(), 50, "{}", class.name());
            for sc in &w.scenarios {
                let nodes = sc.scenario.failed_node_count();
                let links = sc.scenario.failed_link_count();
                match class {
                    ScenarioClass::SingleLink => {
                        assert_eq!((nodes, links), (0, 1));
                    }
                    ScenarioClass::SparseMultiLink => {
                        assert_eq!(nodes, 0);
                        assert_eq!(links, 3);
                    }
                    ScenarioClass::CorrelatedArea | ScenarioClass::MultiArea => {
                        assert!(nodes + links > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn class_workloads_are_deterministic() {
        let topo = generate::isp_like(30, 70, 2000.0, 9).unwrap();
        let base = Arc::new(Baseline::new(topo));
        let cfg = quick_cfg();
        let mk = || {
            generate_class_workload(
                "t",
                Arc::clone(&base),
                &cfg,
                11,
                ScenarioClass::SparseMultiLink,
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.scenarios.len(), b.scenarios.len());
        for (sa, sb) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(sa.recoverable, sb.recoverable);
            assert_eq!(sa.irrecoverable, sb.irrecoverable);
        }
    }

    #[test]
    fn sessions_match_a_btreemap_regroup() {
        // Reference: the per-initiator BTreeMap regroup every consumer
        // used to build. `sessions` must yield the same groups in the same
        // order, case for case, each started on its first case's link.
        use std::collections::BTreeMap;
        fn regroup(cases: &[TestCase]) -> BTreeMap<NodeId, Vec<&TestCase>> {
            let mut map: BTreeMap<NodeId, Vec<&TestCase>> = BTreeMap::new();
            for c in cases {
                map.entry(c.initiator).or_default().push(c);
            }
            map
        }
        let check = |w: &Workload| {
            let mut groups = 0;
            for sc in &w.scenarios {
                for class in [&sc.recoverable, &sc.irrecoverable] {
                    let got: Vec<_> = sessions(class)
                        .map(|(u, l, cases)| (u, l, cases.iter().collect::<Vec<_>>()))
                        .collect();
                    let want: Vec<_> = regroup(class)
                        .into_iter()
                        .map(|(u, cases)| (u, cases[0].failed_link, cases))
                        .collect();
                    assert_eq!(got, want, "{}", w.name);
                    groups += got.len();
                }
            }
            assert!(groups > 0, "{} produced no sessions", w.name);
        };
        let cfg = quick_cfg();
        let topos = [
            ("isp_like", generate::isp_like(40, 90, 2000.0, 5).unwrap()),
            (
                "waxman",
                generate::waxman(60, 120, 2000.0, 0.15, 0.6, 3).unwrap(),
            ),
            (
                "barabasi_albert",
                generate::barabasi_albert(60, 2, 2000.0, 3).unwrap(),
            ),
            (
                "hierarchical_isp",
                generate::hierarchical_isp(6, 8, 2000.0, 3).unwrap(),
            ),
            ("grid", generate::grid(7, 7, 300.0)),
        ];
        for (name, topo) in topos {
            let base = Arc::new(Baseline::new(topo));
            check(&generate_workload_shared(name, Arc::clone(&base), &cfg, 7));
            for class in ScenarioClass::ALL {
                check(&generate_class_workload(
                    format!("{name}/{}", class.name()),
                    Arc::clone(&base),
                    &cfg,
                    7,
                    class,
                ));
            }
        }
    }

    #[test]
    fn class_names_are_stable() {
        let names: Vec<&str> = ScenarioClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "single-link",
                "sparse-multi-link",
                "correlated-area",
                "multi-area"
            ]
        );
    }

    #[test]
    fn random_region_respects_bounds() {
        let cfg = ExperimentConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = random_region(&cfg, &mut rng);
            let Region::Circle(c) = r else {
                panic!("expected a circle")
            };
            assert!(c.radius >= cfg.radius_min && c.radius <= cfg.radius_max);
            assert!(c.center.x >= 0.0 && c.center.x <= cfg.area_extent);
            assert!(c.center.y >= 0.0 && c.center.y <= cfg.area_extent);
        }
    }
}

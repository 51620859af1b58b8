//! MRC — Multiple Routing Configurations (Kvalbein et al., INFOCOM 2006).
//!
//! The proactive comparator of Table III. MRC precomputes a small set of
//! backup *configurations*; configuration `i` *isolates* a subset of nodes
//! (they carry no transit traffic) and a subset of links (they carry no
//! traffic at all), such that every node and every link is isolated in some
//! configuration and every configuration still connects the rest of the
//! network. On a failure, the detecting router switches the packet to the
//! configuration isolating the failed element and forwards along that
//! configuration's (pre-failure!) shortest paths. A packet switches
//! configuration at most once; encountering a second failure drops it —
//! which is exactly why MRC collapses under large-scale failures (§IV-C:
//! "a routing path and its backup paths may fail simultaneously").
//!
//! This implementation follows the published scheme's semantics with a
//! simplified greedy construction (see DESIGN.md §4): nodes are assigned
//! round-robin to configurations subject to a connectivity check; each
//! link is isolated in the configuration of one of its endpoints when that
//! keeps the configuration connected.

use rtr_routing::{DijkstraScratch, Path};
use rtr_topology::{GraphView, LinkId, NodeId, Topology};
use std::fmt;

/// Errors from MRC configuration generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrcError {
    /// The topology is disconnected; MRC requires a connected base graph.
    Disconnected,
    /// Fewer than 2 configurations requested.
    TooFewConfigurations,
}

impl fmt::Display for MrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrcError::Disconnected => write!(f, "topology must be connected"),
            MrcError::TooFewConfigurations => write!(f, "at least 2 configurations required"),
        }
    }
}

impl std::error::Error for MrcError {}

/// The precomputed MRC state: per-node and per-link isolation assignments.
#[derive(Debug, Clone)]
pub struct Mrc {
    k: usize,
    /// Configuration isolating each node; `None` for nodes that cannot be
    /// isolated without disconnecting the network (articulation points) —
    /// real MRC has the same limitation and leaves them unprotected.
    node_config: Vec<Option<usize>>,
    /// Configuration isolating each link, when one could be found.
    link_config: Vec<Option<usize>>,
}

/// A view of one configuration for a concrete (source, destination) pair:
/// isolated nodes other than the endpoints carry no transit traffic, and
/// links isolated in this configuration carry nothing.
struct ConfigView<'a> {
    mrc: &'a Mrc,
    config: usize,
    src: NodeId,
    dest: NodeId,
    topo: &'a Topology,
}

impl GraphView for ConfigView<'_> {
    fn is_node_live(&self, _n: NodeId) -> bool {
        true
    }

    fn is_link_live(&self, l: LinkId) -> bool {
        if assigned(&self.mrc.link_config, l.index()) == Some(self.config) {
            return false;
        }
        let (a, b) = self.topo.link(l).endpoints();
        // A link incident to an isolated node is restricted: usable only
        // as the first/last hop of this packet's path.
        for x in [a, b] {
            if assigned(&self.mrc.node_config, x.index()) == Some(self.config)
                && x != self.src
                && x != self.dest
            {
                return false;
            }
        }
        true
    }
}

/// The assignment at `i`, total over out-of-range indices.
fn assigned(v: &[Option<usize>], i: usize) -> Option<usize> {
    v.get(i).copied().flatten()
}

/// Sets the assignment at `i` (no-op when out of range).
fn assign(v: &mut [Option<usize>], i: usize, cfg: usize) {
    if let Some(slot) = v.get_mut(i) {
        *slot = Some(cfg);
    }
}

impl Mrc {
    /// Builds `k` configurations for `topo`.
    ///
    /// # Errors
    ///
    /// Fails when the topology is disconnected, `k < 2`, or some node
    /// cannot be isolated without disconnecting every configuration.
    pub fn build(topo: &Topology, k: usize) -> Result<Self, MrcError> {
        if k < 2 {
            return Err(MrcError::TooFewConfigurations);
        }
        if !topo.is_connected() {
            return Err(MrcError::Disconnected);
        }
        let n = topo.node_count();
        let mut node_config: Vec<Option<usize>> = vec![None; n];

        // Greedy node isolation: try configurations round-robin; a node may
        // join configuration i when the graph stays connected with group i
        // (plus this node) removed, and the node keeps a neighbor outside
        // group i (its restricted last-hop link). Nodes that fit nowhere
        // (articulation points) stay unprotected, as in published MRC.
        for node in topo.node_ids() {
            for attempt in 0..k {
                let cfg = (node.index() + attempt) % k;
                if Self::isolation_ok(topo, &node_config, node, cfg) {
                    assign(&mut node_config, node.index(), cfg);
                    break;
                }
            }
        }

        // Greedy link isolation: prefer the configurations of the link's
        // endpoints; accept one that keeps that configuration's transit
        // subgraph connected.
        let mut link_config: Vec<Option<usize>> = vec![None; topo.link_count()];
        for l in topo.link_ids() {
            let (a, b) = topo.link(l).endpoints();
            for cfg in [
                assigned(&node_config, a.index()),
                assigned(&node_config, b.index()),
            ]
            .into_iter()
            .flatten()
            {
                if Self::link_isolation_ok(topo, &node_config, &link_config, l, cfg) {
                    assign(&mut link_config, l.index(), cfg);
                    break;
                }
            }
        }

        Ok(Mrc {
            k,
            node_config,
            link_config,
        })
    }

    /// Connectivity check for isolating `node` in configuration `cfg`.
    fn isolation_ok(
        topo: &Topology,
        node_config: &[Option<usize>],
        node: NodeId,
        cfg: usize,
    ) -> bool {
        let in_group = |x: NodeId| assigned(node_config, x.index()) == Some(cfg) || x == node;
        // The transit subgraph (everything not isolated in cfg, with this
        // node added to the group) must stay connected, and every router —
        // isolated or not — must keep at least one usable link in cfg so a
        // packet switching to cfg anywhere is never stranded.
        Self::transit_connected(topo, &in_group, &|_| false)
            && Self::all_nodes_keep_access(topo, &in_group, &|_| false)
    }

    /// Connectivity check for isolating link `l` in configuration `cfg`.
    fn link_isolation_ok(
        topo: &Topology,
        node_config: &[Option<usize>],
        link_config: &[Option<usize>],
        l: LinkId,
        cfg: usize,
    ) -> bool {
        let in_group = |x: NodeId| assigned(node_config, x.index()) == Some(cfg);
        let link_dead = |x: LinkId| x == l || assigned(link_config, x.index()) == Some(cfg);
        Self::transit_connected(topo, &in_group, &link_dead)
            && Self::all_nodes_keep_access(topo, &in_group, &link_dead)
    }

    /// Returns true when every router keeps at least one link usable in the
    /// configuration: isolated routers need any live link to a transit
    /// neighbor (their restricted last-hop link); transit routers need a
    /// non-dead link to another transit router.
    fn all_nodes_keep_access(
        topo: &Topology,
        isolated: &dyn Fn(NodeId) -> bool,
        dead_link: &dyn Fn(LinkId) -> bool,
    ) -> bool {
        topo.node_ids().all(|u| {
            topo.neighbors(u)
                .iter()
                .any(|&(v, l)| !isolated(v) && !dead_link(l))
        })
    }

    /// Returns true when the subgraph of non-isolated nodes joined by
    /// non-dead links is connected (and non-empty).
    fn transit_connected(
        topo: &Topology,
        isolated: &dyn Fn(NodeId) -> bool,
        dead_link: &dyn Fn(LinkId) -> bool,
    ) -> bool {
        let Some(start) = topo.node_ids().find(|&x| !isolated(x)) else {
            return false;
        };
        let total = topo.node_ids().filter(|&x| !isolated(x)).count();
        let mut seen = vec![false; topo.node_count()];
        let mut stack = vec![start];
        if let Some(s) = seen.get_mut(start.index()) {
            *s = true;
        }
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, l) in topo.neighbors(u) {
                if seen.get(v.index()).copied() == Some(false) && !isolated(v) && !dead_link(l) {
                    if let Some(s) = seen.get_mut(v.index()) {
                        *s = true;
                    }
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == total
    }

    /// Number of configurations.
    pub fn configurations(&self) -> usize {
        self.k
    }

    /// The configuration isolating `node`, or `None` when the node could
    /// not be protected (articulation points).
    pub fn node_configuration(&self, node: NodeId) -> Option<usize> {
        assigned(&self.node_config, node.index())
    }

    /// Fraction of nodes that could be isolated in some configuration.
    pub fn node_coverage(&self) -> f64 {
        if self.node_config.is_empty() {
            return 1.0;
        }
        self.node_config.iter().filter(|c| c.is_some()).count() as f64
            / self.node_config.len() as f64
    }

    /// The configuration isolating `link`, when one was found.
    pub fn link_configuration(&self, link: LinkId) -> Option<usize> {
        assigned(&self.link_config, link.index())
    }

    /// Fraction of links that could be isolated (protected against
    /// link-only failures of their own).
    pub fn link_coverage(&self) -> f64 {
        if self.link_config.is_empty() {
            return 1.0;
        }
        self.link_config.iter().filter(|c| c.is_some()).count() as f64
            / self.link_config.len() as f64
    }

    /// The backup path from `src` to `dest` in configuration `config`, on
    /// the *intact* topology (MRC is proactive: backup paths never learn
    /// about failures beyond the configuration switch).
    pub fn backup_path(
        &self,
        topo: &Topology,
        config: usize,
        src: NodeId,
        dest: NodeId,
    ) -> Option<Path> {
        self.backup_path_in(topo, config, src, dest, &mut DijkstraScratch::new())
    }

    /// Like [`backup_path`](Self::backup_path), but reuses the caller's
    /// Dijkstra buffers — the per-case MRC computation in the evaluation
    /// hot loop.
    pub fn backup_path_in(
        &self,
        topo: &Topology,
        config: usize,
        src: NodeId,
        dest: NodeId,
        scratch: &mut DijkstraScratch,
    ) -> Option<Path> {
        let view = ConfigView {
            mrc: self,
            config,
            src,
            dest,
            topo,
        };
        // Early-exit at `dest`: only `path_to(dest)` is consumed.
        scratch.run_to(topo, &view, src, dest).path_to(dest)
    }
}

/// Why an MRC packet stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrcOutcome {
    /// Delivered over the backup configuration.
    Delivered,
    /// The backup path hit a second failure; MRC cannot switch twice.
    HitSecondFailure {
        /// The dead link the backup path ran into.
        at_link: LinkId,
    },
    /// The backup configuration has no path for this pair.
    NoBackupPath,
}

/// The result of recovering one packet with MRC.
#[derive(Debug, Clone)]
pub struct MrcAttempt {
    /// Delivery or the failure mode.
    pub outcome: MrcOutcome,
    /// The configuration the packet switched to.
    pub config_used: Option<usize>,
    /// The backup path attempted, if any.
    pub path: Option<Path>,
    /// Hops actually traversed before delivery/drop.
    pub hops_traversed: usize,
    /// Routing cost actually traversed (for stretch on delivery).
    pub cost_traversed: u64,
}

impl MrcAttempt {
    /// Returns true when the packet was delivered.
    pub fn is_delivered(&self) -> bool {
        self.outcome == MrcOutcome::Delivered
    }
}

/// The MRC switching rule at `at` observing dead `trigger` toward `dest`:
/// the configuration isolating the link when the lost next hop *is* the
/// destination, else the one isolating the next-hop node. Shared with
/// eMRC, whose every re-switch applies the same rule.
pub(crate) fn switching_config(
    topo: &Topology,
    mrc: &Mrc,
    at: NodeId,
    trigger: LinkId,
    dest: NodeId,
) -> Option<usize> {
    let next_hop = topo.link(trigger).other_end(at);
    if next_hop == dest {
        mrc.link_configuration(trigger)
    } else {
        mrc.node_configuration(next_hop)
    }
}

/// Recovers one packet at `initiator` whose default next hop over
/// `failed_link` is unreachable, destined to `dest`, over ground truth
/// `view`, reusing the caller's Dijkstra buffers across cases.
///
/// Per the MRC switching rule: if the unreachable next hop *is* the
/// destination, switch to the configuration isolating the link; otherwise
/// switch to the configuration isolating the next-hop node. Uniform callers
/// route through the [`RecoveryScheme`](crate::RecoveryScheme) trait
/// (implemented by [`Mrc`] itself) instead.
pub fn mrc_recover_in(
    topo: &Topology,
    mrc: &Mrc,
    view: &impl GraphView,
    initiator: NodeId,
    failed_link: LinkId,
    dest: NodeId,
    scratch: &mut DijkstraScratch,
) -> MrcAttempt {
    let config = switching_config(topo, mrc, initiator, failed_link, dest);
    let Some(config) = config else {
        return MrcAttempt {
            outcome: MrcOutcome::NoBackupPath,
            config_used: None,
            path: None,
            hops_traversed: 0,
            cost_traversed: 0,
        };
    };

    let Some(path) = mrc.backup_path_in(topo, config, initiator, dest, scratch) else {
        return MrcAttempt {
            outcome: MrcOutcome::NoBackupPath,
            config_used: Some(config),
            path: None,
            hops_traversed: 0,
            cost_traversed: 0,
        };
    };

    let mut hops = 0usize;
    let mut cost = 0u64;
    for (&l, &from) in path.links().iter().zip(path.nodes()) {
        if !view.is_link_usable(topo, l) {
            return MrcAttempt {
                outcome: MrcOutcome::HitSecondFailure { at_link: l },
                config_used: Some(config),
                path: Some(path.clone()),
                hops_traversed: hops,
                cost_traversed: cost,
            };
        }
        cost += u64::from(topo.cost_from(l, from));
        hops += 1;
    }
    MrcAttempt {
        outcome: MrcOutcome::Delivered,
        config_used: Some(config),
        path: Some(path),
        hops_traversed: hops,
        cost_traversed: cost,
    }
}

/// Sanity check used by tests and benches: in every configuration the
/// transit subgraph is connected.
pub fn validate(topo: &Topology, mrc: &Mrc) -> bool {
    (0..mrc.configurations()).all(|cfg| {
        Mrc::transit_connected(topo, &|x| mrc.node_configuration(x) == Some(cfg), &|l| {
            mrc.link_configuration(l) == Some(cfg)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, Region};

    #[test]
    fn build_assigns_every_node() {
        let topo = generate::isp_like(30, 70, 2000.0, 42).unwrap();
        let mrc = Mrc::build(&topo, 5).unwrap();
        assert_eq!(mrc.configurations(), 5);
        for n in topo.node_ids() {
            if let Some(cfg) = mrc.node_configuration(n) {
                assert!(cfg < 5);
            }
        }
        assert!(
            mrc.node_coverage() > 0.7,
            "most nodes should be protectable"
        );
        assert!(validate(&topo, &mrc));
        assert!(mrc.link_coverage() > 0.5, "most links should be isolatable");
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let topo = generate::isp_like(10, 20, 2000.0, 1).unwrap();
        assert_eq!(
            Mrc::build(&topo, 1).unwrap_err(),
            MrcError::TooFewConfigurations
        );

        let mut b = Topology::builder();
        b.add_node(rtr_topology::Point::new(0.0, 0.0));
        b.add_node(rtr_topology::Point::new(1.0, 0.0));
        let disconnected = b.build().unwrap();
        assert_eq!(
            Mrc::build(&disconnected, 3).unwrap_err(),
            MrcError::Disconnected
        );
    }

    #[test]
    fn backup_path_avoids_isolated_transit() {
        let topo = generate::isp_like(25, 60, 2000.0, 7).unwrap();
        let mrc = Mrc::build(&topo, 4).unwrap();
        for cfg in 0..4 {
            for s in topo.node_ids().take(6) {
                for t in topo.node_ids().take(6) {
                    if s == t {
                        continue;
                    }
                    if let Some(p) = mrc.backup_path(&topo, cfg, s, t) {
                        for &mid in &p.nodes()[1..p.nodes().len() - 1] {
                            assert_ne!(
                                mrc.node_configuration(mid),
                                Some(cfg),
                                "isolated node {mid} used as transit in config {cfg}"
                            );
                        }
                        for &l in p.links() {
                            assert_ne!(mrc.link_configuration(l), Some(cfg));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_failure_recovers() {
        let topo = generate::isp_like(30, 80, 2000.0, 11).unwrap();
        let mrc = Mrc::build(&topo, 5).unwrap();
        // Fail one protected (non-articulation) node and recover around it.
        let victim = topo
            .node_ids()
            .find(|&n| mrc.node_configuration(n).is_some())
            .expect("some node is protectable");
        let s = FailureScenario::from_parts(&topo, [victim], []);
        // Pick a live neighbor as initiator.
        let &(initiator, failed_link) = topo
            .neighbors(victim)
            .iter()
            .find(|&&(nbr, _)| !s.is_node_failed(nbr))
            .unwrap();
        // Note adjacency stores (neighbor, link) from victim's perspective;
        // swap roles: initiator's failed link to victim.
        let failed_link = topo.link_between(initiator, victim).unwrap_or(failed_link);
        for dest in topo.node_ids() {
            if dest == initiator || dest == victim {
                continue;
            }
            if !rtr_topology::is_reachable(&topo, &s, initiator, dest) {
                continue;
            }
            let a = mrc_recover_in(
                &topo,
                &mrc,
                &s,
                initiator,
                failed_link,
                dest,
                &mut DijkstraScratch::new(),
            );
            assert!(
                a.is_delivered(),
                "single node failure must recover to {dest} (config {:?})",
                a.config_used
            );
        }
    }

    #[test]
    fn large_scale_failure_often_drops() {
        let topo = generate::isp_like(40, 100, 2000.0, 13).unwrap();
        let mrc = Mrc::build(&topo, 5).unwrap();
        let s = FailureScenario::from_region(&topo, &Region::circle((1000.0, 1000.0), 400.0));
        let mut attempts = 0;
        let mut failures = 0;
        for n in topo.node_ids() {
            if s.is_node_failed(n) {
                continue;
            }
            for &(_, l) in topo.neighbors(n) {
                if s.is_neighbor_reachable(&topo, n, l) {
                    continue;
                }
                for dest in topo.node_ids().step_by(5) {
                    if dest == n {
                        continue;
                    }
                    let a =
                        mrc_recover_in(&topo, &mrc, &s, n, l, dest, &mut DijkstraScratch::new());
                    attempts += 1;
                    if !a.is_delivered() {
                        failures += 1;
                    }
                }
            }
        }
        assert!(attempts > 0);
        assert!(
            failures > 0,
            "large-scale failures should defeat MRC in some cases ({attempts} attempts)"
        );
    }

    #[test]
    fn destination_next_hop_uses_link_configuration() {
        let topo = generate::isp_like(20, 50, 2000.0, 3).unwrap();
        let mrc = Mrc::build(&topo, 4).unwrap();
        // Take a link with an isolation config; fail it; recover from one
        // endpoint to the other.
        let l = topo
            .link_ids()
            .find(|&l| mrc.link_configuration(l).is_some())
            .unwrap();
        let (a, b) = topo.link(l).endpoints();
        let s = FailureScenario::single_link(&topo, l);
        let attempt = mrc_recover_in(&topo, &mrc, &s, a, l, b, &mut DijkstraScratch::new());
        assert_eq!(attempt.config_used, mrc.link_configuration(l));
        assert!(
            attempt.is_delivered(),
            "link-only failure to a live destination"
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            MrcError::Disconnected.to_string(),
            "topology must be connected"
        );
        assert_eq!(
            MrcError::TooFewConfigurations.to_string(),
            "at least 2 configurations required"
        );
    }
}

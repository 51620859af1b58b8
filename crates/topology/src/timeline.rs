//! Dynamic failure timelines: ordered fail/repair event streams.
//!
//! The paper evaluates one static failure area, but real large-scale
//! failures evolve — a storm front moves across the plane, repaired
//! routers come back, a second area fails while the first is still being
//! recovered. A [`Timeline`] captures that regime as an ordered sequence
//! of timestamped [`TimelineEvent`]s, each a batch of links going down
//! and links coming back up. Applying the prefix of a timeline to a
//! [`LinkMask`] yields the converged routing view after
//! that many events; the eval layer patches its per-topology baseline
//! incrementally from event to event instead of recomputing it.
//!
//! Everything here is deterministic: the generators derive every choice
//! from their explicit seed or geometry, so a timeline can be
//! regenerated bit-for-bit from its parameters.
//!
//! # Examples
//!
//! ```
//! use rtr_topology::{generate, timeline::Timeline, LinkMask, Point};
//!
//! let topo = generate::grid(6, 6, 100.0);
//! // A circular damage front sweeping left-to-right across the grid.
//! let tl = Timeline::moving_front(&topo, Point::new(0.0, 250.0), (120.0, 0.0), 150.0, 8, 1_000);
//! assert!(!tl.is_empty());
//! // Replaying the full timeline yields the final converged link view.
//! let mask = tl.mask_after(&topo, tl.len());
//! assert_eq!(mask.removed_count(), tl.mask_after(&topo, tl.len()).removed_count());
//! ```

use crate::failure::{FailureScenario, LinkMask, Region};
use crate::graph::{LinkId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One timestamped churn step: a batch of links failing and a batch of
/// links coming back.
///
/// Both lists may mention links in any state — failing an already-failed
/// link and repairing a never-failed link are no-ops when the event is
/// applied ([`apply_to`](Self::apply_to)), so raw event streams from
/// external observations replay without pre-normalization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Event time in milliseconds from the timeline origin.
    pub at_ms: u64,
    /// Links going down at this instant.
    pub down: Vec<LinkId>,
    /// Links restored at this instant.
    pub up: Vec<LinkId>,
}

impl TimelineEvent {
    /// Applies this event to a converged link view: removes every `down`
    /// link and restores every `up` link. Out-of-range ids and links
    /// already in the target state are no-ops.
    pub fn apply_to(&self, mask: &mut LinkMask) {
        for &l in &self.down {
            mask.remove(l);
        }
        for &l in &self.up {
            mask.restore(l);
        }
    }

    /// True when the event changes nothing (both batches empty).
    pub fn is_empty(&self) -> bool {
        self.down.is_empty() && self.up.is_empty()
    }
}

/// An ordered sequence of timestamped fail/repair events over one
/// topology's links.
///
/// Events are kept sorted by [`TimelineEvent::at_ms`] (stable: ties keep
/// insertion order), so replaying `events()[..k]` always yields the
/// converged state "k events in".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Builds a timeline from explicit events, sorting them by time
    /// (stable, so same-instant events keep their given order).
    pub fn from_events(mut events: Vec<TimelineEvent>) -> Self {
        events.sort_by_key(|e| e.at_ms);
        Timeline { events }
    }

    /// The ordered event sequence.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the timeline has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The converged link view after the first `k` events (clamped to the
    /// timeline length): every `down` link of the prefix removed unless a
    /// later `up` of the prefix restored it.
    pub fn mask_after(&self, topo: &Topology, k: usize) -> LinkMask {
        let mut mask = LinkMask::none(topo);
        for ev in self.events.iter().take(k) {
            ev.apply_to(&mut mask);
        }
        mask
    }

    /// A circular damage front of the given `radius` starting at `start`
    /// and moving by `velocity` (plane units per step) for `steps` steps,
    /// `dt_ms` apart. Links entering the front's footprint (failed links
    /// and links incident to failed nodes, the area-failure semantics of
    /// [`FailureScenario::from_region`]) go down; links the front has
    /// passed beyond are repaired. Steps that change nothing emit no
    /// event. Deterministic in its geometry.
    pub fn moving_front(
        topo: &Topology,
        start: crate::geometry::Point,
        velocity: (f64, f64),
        radius: f64,
        steps: usize,
        dt_ms: u64,
    ) -> Self {
        let stages: Vec<(u64, Region)> = (0..steps)
            .map(|k| {
                let c = crate::geometry::Point::new(
                    start.x + velocity.0 * k as f64,
                    start.y + velocity.1 * k as f64,
                );
                (k as u64 * dt_ms, Region::circle(c, radius))
            })
            .collect();
        Self::from_region_stages(topo, &stages)
    }

    /// A timeline whose state at each timestamped stage is exactly the
    /// unusable-link set of that stage's region: the first stage is the
    /// area onset, a stage whose region is a grown
    /// [`Region::Union`](Region) models expansion or a second
    /// overlapping area, and a stage whose region shrank repairs what it
    /// no longer covers. Consecutive identical footprints emit no event.
    pub fn from_region_stages(topo: &Topology, stages: &[(u64, Region)]) -> Self {
        let mut prev = vec![false; topo.link_count()];
        let mut events = Vec::new();
        for (at_ms, region) in stages {
            let scenario = FailureScenario::from_region(topo, region);
            let mut cur = vec![false; topo.link_count()];
            for l in scenario.unusable_links(topo) {
                if let Some(c) = cur.get_mut(l.index()) {
                    *c = true;
                }
            }
            push_delta(&mut events, *at_ms, &prev, &cur);
            prev = cur;
        }
        Timeline { events }
    }

    /// A random-churn stream: each of the `steps` steps (spaced `dt_ms`
    /// apart) first repairs each currently-down link with probability
    /// `repair_prob`, then fails `fail_per_step` links drawn uniformly
    /// from the still-live ones. Deterministic in `seed`. Steps that
    /// change nothing emit no event.
    pub fn random_churn(
        topo: &Topology,
        steps: usize,
        dt_ms: u64,
        fail_per_step: usize,
        repair_prob: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4u64.rotate_left(32));
        let mut down = vec![false; topo.link_count()];
        let mut events = Vec::new();
        for k in 0..steps {
            let mut up_batch: Vec<LinkId> = Vec::new();
            for l in topo.link_ids() {
                if down.get(l.index()).copied().unwrap_or(false)
                    && rng.gen_range(0.0..1.0) < repair_prob
                {
                    up_batch.push(l);
                }
            }
            for &l in &up_batch {
                if let Some(d) = down.get_mut(l.index()) {
                    *d = false;
                }
            }
            let live: Vec<LinkId> = topo
                .link_ids()
                .filter(|l| !down.get(l.index()).copied().unwrap_or(false))
                .collect();
            let mut down_batch: Vec<LinkId> = Vec::new();
            let take = fail_per_step.min(live.len());
            // Partial Fisher-Yates over the live list: the first `take`
            // positions end up holding a uniform distinct sample.
            let mut live = live;
            for i in 0..take {
                let j = rng.gen_range(i..live.len());
                live.swap(i, j);
                let Some(&l) = live.get(i) else { break };
                down_batch.push(l);
                if let Some(d) = down.get_mut(l.index()) {
                    *d = true;
                }
            }
            down_batch.sort_unstable_by_key(|l| l.index());
            if !down_batch.is_empty() || !up_batch.is_empty() {
                events.push(TimelineEvent {
                    at_ms: k as u64 * dt_ms,
                    down: down_batch,
                    up: up_batch,
                });
            }
        }
        Timeline { events }
    }
}

/// Pushes the delta event between two link-down states (ascending link
/// order in both batches), skipping empty deltas.
fn push_delta(events: &mut Vec<TimelineEvent>, at_ms: u64, prev: &[bool], cur: &[bool]) {
    let mut down = Vec::new();
    let mut up = Vec::new();
    for (i, (&was, &is)) in prev.iter().zip(cur.iter()).enumerate() {
        match (was, is) {
            (false, true) => down.push(LinkId(i as u32)),
            (true, false) => up.push(LinkId(i as u32)),
            _ => {}
        }
    }
    if !down.is_empty() || !up.is_empty() {
        events.push(TimelineEvent { at_ms, down, up });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::geometry::Point;

    #[test]
    fn from_events_sorts_stably() {
        let topo = generate::grid(3, 3, 10.0);
        let e = |at_ms, l: u32| TimelineEvent {
            at_ms,
            down: vec![LinkId(l)],
            up: vec![],
        };
        let tl = Timeline::from_events(vec![e(5, 0), e(1, 1), e(5, 2), e(0, 3)]);
        let order: Vec<u64> = tl.events().iter().map(|e| e.at_ms).collect();
        assert_eq!(order, [0, 1, 5, 5]);
        // Stable: the two at_ms == 5 events keep insertion order.
        assert_eq!(tl.events()[2].down, [LinkId(0)]);
        assert_eq!(tl.events()[3].down, [LinkId(2)]);
        let mask = tl.mask_after(&topo, tl.len());
        assert_eq!(mask.removed_count(), 4);
    }

    #[test]
    fn apply_is_idempotent_and_total() {
        let topo = generate::grid(3, 3, 10.0);
        let mut mask = LinkMask::none(&topo);
        let ev = TimelineEvent {
            at_ms: 0,
            down: vec![LinkId(1), LinkId(1), LinkId(9999)],
            up: vec![LinkId(2), LinkId(9999)], // repair of a never-failed link: no-op
        };
        ev.apply_to(&mut mask);
        assert!(mask.is_removed(LinkId(1)));
        assert!(!mask.is_removed(LinkId(2)));
        assert_eq!(mask.removed_count(), 1);
        // Re-applying changes nothing.
        ev.apply_to(&mut mask);
        assert_eq!(mask.removed_count(), 1);
    }

    #[test]
    fn moving_front_fails_then_repairs() {
        let topo = generate::grid(8, 4, 100.0);
        let tl =
            Timeline::moving_front(&topo, Point::new(0.0, 150.0), (150.0, 0.0), 180.0, 10, 500);
        assert!(!tl.is_empty());
        assert!(
            tl.events().iter().any(|e| !e.up.is_empty()),
            "a passing front must repair links behind it"
        );
        // Once the front has left the grid, everything is repaired.
        let end = tl.mask_after(&topo, tl.len());
        assert_eq!(end.removed_count(), 0, "front exits to the right");
        // Timestamps ascend in dt steps.
        let mut prev = None;
        for e in tl.events() {
            assert!(prev <= Some(e.at_ms));
            assert_eq!(e.at_ms % 500, 0);
            prev = Some(e.at_ms);
        }
    }

    #[test]
    fn moving_front_prefix_state_matches_region_harvest() {
        let topo = generate::grid(6, 6, 100.0);
        let (start, vel, radius, steps) = (Point::new(50.0, 250.0), (110.0, 0.0), 160.0, 7);
        let tl = Timeline::moving_front(&topo, start, vel, radius, steps, 1_000);
        // Replaying k events must equal the k-th front footprint directly.
        let mut event_idx = 0;
        for k in 0..steps {
            let c = Point::new(start.x + vel.0 * k as f64, start.y + vel.1 * k as f64);
            let scenario = FailureScenario::from_region(&topo, &Region::circle(c, radius));
            // Advance past every event at or before this step's timestamp.
            while event_idx < tl.len() && tl.events()[event_idx].at_ms <= k as u64 * 1_000 {
                event_idx += 1;
            }
            let mask = tl.mask_after(&topo, event_idx);
            for l in topo.link_ids() {
                let in_front = scenario.unusable_links(&topo).any(|u| u == l);
                assert_eq!(mask.is_removed(l), in_front, "link {l} at step {k}");
            }
        }
    }

    #[test]
    fn region_stages_model_onset_expansion_overlap() {
        let topo = generate::grid(8, 8, 100.0);
        let a = Region::circle((150.0, 150.0), 140.0);
        let b = Region::circle((150.0, 150.0), 260.0); // expansion of a
        let c = Region::circle((550.0, 550.0), 180.0); // second, disjoint area
        let tl = Timeline::from_region_stages(
            &topo,
            &[
                (0, a.clone()),
                (1_000, Region::Union(vec![a.clone(), b.clone()])),
                (2_000, Region::Union(vec![b, c])),
            ],
        );
        assert!(tl.len() >= 2, "onset and at least one growth event");
        // The onset fails links, never repairs.
        assert!(tl.events()[0].up.is_empty());
        assert!(!tl.events()[0].down.is_empty());
        // Expansion only adds failures (a union containing the old area).
        assert!(tl.events()[1].up.is_empty());
    }

    #[test]
    fn random_churn_is_deterministic_and_consistent() {
        let topo = generate::isp_like(30, 70, 2000.0, 3).unwrap();
        let tl = Timeline::random_churn(&topo, 12, 250, 4, 0.3, 42);
        let again = Timeline::random_churn(&topo, 12, 250, 4, 0.3, 42);
        assert_eq!(tl, again, "same seed, same stream");
        let other = Timeline::random_churn(&topo, 12, 250, 4, 0.3, 43);
        assert_ne!(tl, other, "different seed diverges");

        // Internal consistency: a link never fails while already down or
        // repairs while already up.
        let mut down = vec![false; topo.link_count()];
        for ev in tl.events() {
            for &l in &ev.up {
                assert!(down[l.index()], "repairing a live link at {}", ev.at_ms);
                down[l.index()] = false;
            }
            for &l in &ev.down {
                assert!(!down[l.index()], "failing a dead link at {}", ev.at_ms);
                down[l.index()] = true;
            }
        }
    }

    #[test]
    fn mask_after_clamps_and_accumulates() {
        let topo = generate::grid(4, 4, 10.0);
        let tl = Timeline::from_events(vec![
            TimelineEvent {
                at_ms: 0,
                down: vec![LinkId(0), LinkId(1)],
                up: vec![],
            },
            TimelineEvent {
                at_ms: 10,
                down: vec![],
                up: vec![LinkId(0)],
            },
        ]);
        assert_eq!(tl.mask_after(&topo, 0).removed_count(), 0);
        assert_eq!(tl.mask_after(&topo, 1).removed_count(), 2);
        let end = tl.mask_after(&topo, 99);
        assert_eq!(end.removed_count(), 1);
        assert!(end.is_removed(LinkId(1)));
        assert!(!end.is_removed(LinkId(0)));
    }
}

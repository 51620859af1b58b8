//! Failure-area shape extension.
//!
//! The paper's model allows "a continuous area of any shape and location"
//! (§II-A) but its evaluation only draws circles (§IV-A). This extension
//! re-runs the recoverable-case evaluation with equal-*area* squares and
//! 4:1 elongated rectangles, checking that RTR's behaviour (recovery rate,
//! optimality, phase-1 length) is a property of the damage, not of the
//! circle.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::metrics::percentage;
use crate::reports::TableReport;
use crate::testcase::{cases_for_scenario, sessions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_core::RtrSession;
use rtr_routing::shortest_path;
use rtr_topology::{isp, FailureScenario, Point, Polygon, Region};

/// The failure-area shapes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's circle of radius r.
    Circle,
    /// An axis-aligned square of equal area (side r·√π).
    Square,
    /// A 4:1 rectangle of equal area, horizontally elongated.
    Elongated,
}

impl Shape {
    /// All shapes, circle first.
    pub const ALL: [Shape; 3] = [Shape::Circle, Shape::Square, Shape::Elongated];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Shape::Circle => "circle",
            Shape::Square => "square",
            Shape::Elongated => "rect 4:1",
        }
    }

    /// Builds the region centred at `(cx, cy)` with the same area as a
    /// circle of radius `r`.
    pub fn region(self, cx: f64, cy: f64, r: f64) -> Region {
        match self {
            Shape::Circle => Region::circle((cx, cy), r),
            Shape::Square => {
                let half = r * std::f64::consts::PI.sqrt() / 2.0;
                rect_region(cx, cy, half, half)
            }
            Shape::Elongated => {
                // width × height = π r², width = 4 · height.
                let height = (std::f64::consts::PI * r * r / 4.0).sqrt();
                let width = 4.0 * height;
                rect_region(cx, cy, width / 2.0, height / 2.0)
            }
        }
    }
}

fn rect_region(cx: f64, cy: f64, hw: f64, hh: f64) -> Region {
    Region::Polygon(
        Polygon::new(vec![
            Point::new(cx - hw, cy - hh),
            Point::new(cx + hw, cy - hh),
            Point::new(cx + hw, cy + hh),
            Point::new(cx - hw, cy + hh),
        ])
        .expect("four finite vertices"),
    )
}

/// Per-shape aggregate over one topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeStats {
    /// RTR recovery rate on recoverable cases (%).
    pub recovery_rate: f64,
    /// Share of delivered recoveries that are ground-truth optimal (%).
    pub optimal_share: f64,
    /// Mean phase-1 walk hops per initiator.
    pub mean_walk_hops: f64,
    /// Recoverable cases evaluated.
    pub cases: usize,
}

/// Evaluates RTR under one shape on one topology (via its shared
/// [`Baseline`]), over `cfg.cases_per_class` recoverable cases.
pub fn evaluate_shape(
    base: &Baseline,
    shape: Shape,
    cfg: &ExperimentConfig,
    seed: u64,
) -> ShapeStats {
    let topo = base.topo();
    let crosslinks = base.crosslinks();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = 0usize;
    let mut delivered = 0usize;
    let mut optimal = 0usize;
    let mut walk_hops = Vec::new();

    let mut guard = 0;
    while cases < cfg.cases_per_class && guard < 100_000 {
        guard += 1;
        let cx = rng.gen_range(0.0..cfg.area_extent);
        let cy = rng.gen_range(0.0..cfg.area_extent);
        let r = rng.gen_range(cfg.radius_min..=cfg.radius_max);
        let region = shape.region(cx, cy, r);
        let scenario = FailureScenario::from_region(topo, &region);
        let sc = cases_for_scenario(base, region, scenario);
        for (initiator, failed_link, group) in sessions(&sc.recoverable) {
            if cases >= cfg.cases_per_class {
                break;
            }
            let mut session =
                RtrSession::start(topo, crosslinks, &sc.scenario, initiator, failed_link)
                    .expect("recoverable case: live initiator with a failed incident link");
            walk_hops.push(session.phase1().trace.hops() as f64);
            for case in group {
                if cases >= cfg.cases_per_class {
                    break;
                }
                cases += 1;
                let attempt = session.recover(case.dest);
                if attempt.is_delivered() {
                    delivered += 1;
                    let opt = shortest_path(topo, &sc.scenario, initiator, case.dest)
                        .expect("recoverable")
                        .cost();
                    if attempt.path.as_ref().map(|p| p.cost()) == Some(opt) {
                        optimal += 1;
                    }
                }
            }
        }
    }

    ShapeStats {
        recovery_rate: percentage(delivered, cases),
        optimal_share: percentage(optimal, delivered.max(1)),
        mean_walk_hops: walk_hops.iter().sum::<f64>() / walk_hops.len().max(1) as f64,
        cases,
    }
}

/// Builds the shape-comparison table over the given topologies.
pub fn shapes(profiles: &[isp::IspProfile], cfg: &ExperimentConfig) -> TableReport {
    let mut rows = Vec::new();
    for p in profiles {
        eprintln!("[rtr-eval] shape comparison on {}...", p.name);
        let base = Baseline::for_profile(p);
        let mut row = vec![p.name.to_string()];
        for shape in Shape::ALL {
            let s = evaluate_shape(&base, shape, cfg, cfg.seed ^ u64::from(p.asn) ^ 0x5AFE);
            row.push(format!("{:.1}", s.recovery_rate));
            row.push(format!("{:.1}", s.mean_walk_hops));
        }
        rows.push(row);
    }
    TableReport {
        id: "Extension F".into(),
        title: "RTR under equal-area failure shapes: recovery % and mean phase-1 hops".into(),
        headers: vec![
            "Topology".into(),
            "Rec% circle".into(),
            "Hops circle".into(),
            "Rec% square".into(),
            "Hops square".into(),
            "Rec% rect4:1".into(),
            "Hops rect4:1".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_equal_area() {
        // Sample each region on a fine grid and compare hit counts.
        let r = 200.0;
        let mut areas = Vec::new();
        for shape in Shape::ALL {
            let region = shape.region(1000.0, 1000.0, r);
            let mut hits = 0usize;
            let step = 10.0;
            let mut x = 0.0;
            while x < 2000.0 {
                let mut y = 0.0;
                while y < 2000.0 {
                    if region.contains(Point::new(x, y)) {
                        hits += 1;
                    }
                    y += step;
                }
                x += step;
            }
            areas.push(hits as f64 * step * step);
        }
        let circle_area = std::f64::consts::PI * r * r;
        for (shape, &a) in Shape::ALL.iter().zip(&areas) {
            assert!(
                (a - circle_area).abs() / circle_area < 0.05,
                "{} area {a} vs circle {circle_area}",
                shape.label()
            );
        }
    }

    #[test]
    fn every_shape_recovers_most_cases() {
        let cfg = ExperimentConfig::quick().with_cases(80);
        let base = Baseline::for_profile(&isp::profile("AS1239").unwrap());
        for shape in Shape::ALL {
            let s = evaluate_shape(&base, shape, &cfg, 1);
            assert_eq!(s.cases, 80, "{}", shape.label());
            assert!(
                s.recovery_rate > 80.0,
                "{}: recovery {}",
                shape.label(),
                s.recovery_rate
            );
            assert!(s.optimal_share > 99.0, "Theorem 2 is shape-independent");
        }
    }

    #[test]
    fn report_renders() {
        let cfg = ExperimentConfig::quick().with_cases(30);
        let t = shapes(&[isp::profile("AS1239").unwrap()], &cfg);
        assert_eq!(t.rows.len(), 1);
        assert!(t.to_string().contains("rect4:1"));
    }
}

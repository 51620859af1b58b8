//! Sensitivity extension: recovery rate as a function of failure radius.
//!
//! The paper fixes the radius distribution to U[100, 300] for Tables III/IV
//! and sweeps radius only for the irrecoverable share (Fig. 11). This
//! extension sweeps the radius for the *recovery rates* of all three
//! schemes, showing where each one starts to break down as disasters grow.

use crate::baseline::Baseline;
use crate::config::ExperimentConfig;
use crate::metrics::percentage;
use crate::reports::{FigureReport, Series};
use crate::testcase::{generate_workload_shared, sessions};
use rtr_baselines::{SchemeId, SchemeMask};
use rtr_core::{RtrSession, SchemeScratch};
use rtr_topology::isp;

/// Recovery rates of the three schemes at one radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Failure-area radius.
    pub radius: f64,
    /// RTR recovery rate (%) over recoverable cases.
    pub rtr: f64,
    /// FCP recovery rate (%).
    pub fcp: f64,
    /// MRC recovery rate (%).
    pub mrc: f64,
}

/// Sweeps the failure radius on one topology. `radii` are evaluated with
/// `cfg.cases_per_class` recoverable cases each.
pub fn sweep_radius(
    profile: isp::IspProfile,
    radii: &[f64],
    cfg: &ExperimentConfig,
) -> Vec<RatePoint> {
    let mut points = Vec::with_capacity(radii.len());
    // One baseline for the whole sweep — only the failure radius varies.
    let baseline = Baseline::for_profile(&profile);
    let mask = SchemeMask::none().with(SchemeId::Fcp).with(SchemeId::Mrc);
    let comparators = baseline
        .comparators(mask, cfg.mrc_configurations)
        .expect("twins are connected");
    let ctx = baseline.scheme_ctx();
    let mut scratch = SchemeScratch::new();
    for &radius in radii {
        let fixed = ExperimentConfig {
            radius_min: radius,
            radius_max: radius,
            ..cfg.clone()
        };
        let w = generate_workload_shared(
            profile.name,
            std::sync::Arc::clone(&baseline),
            &fixed,
            cfg.seed ^ u64::from(profile.asn) ^ radius.to_bits(),
        );
        let mut cases = 0usize;
        let (mut rtr_ok, mut fcp_ok, mut mrc_ok) = (0usize, 0usize, 0usize);
        for sc in &w.scenarios {
            for (initiator, failed_link, group) in sessions(&sc.recoverable) {
                let mut session = RtrSession::start(
                    w.topo(),
                    w.crosslinks(),
                    &sc.scenario,
                    initiator,
                    failed_link,
                )
                .expect("recoverable case: live initiator with a failed incident link");
                for case in group {
                    cases += 1;
                    if session.recover(case.dest).is_delivered() {
                        rtr_ok += 1;
                    }
                    for scheme in &comparators {
                        let delivered = scheme
                            .route_in(
                                ctx,
                                &sc.scenario,
                                initiator,
                                case.failed_link,
                                case.dest,
                                &mut scratch,
                            )
                            .is_delivered();
                        match scheme.id() {
                            SchemeId::Fcp => fcp_ok += usize::from(delivered),
                            SchemeId::Mrc => mrc_ok += usize::from(delivered),
                            _ => {}
                        }
                    }
                }
            }
        }
        points.push(RatePoint {
            radius,
            rtr: percentage(rtr_ok, cases),
            fcp: percentage(fcp_ok, cases),
            mrc: percentage(mrc_ok, cases),
        });
    }
    points
}

/// Builds the radius-sensitivity figure over the given topologies.
pub fn sensitivity(profiles: &[isp::IspProfile], cfg: &ExperimentConfig) -> FigureReport {
    let radii: Vec<f64> = (1..=8).map(|i| i as f64 * 50.0).collect();
    let mut series = Vec::new();
    for &p in profiles {
        eprintln!("[rtr-eval] radius sensitivity on {}...", p.name);
        let pts = sweep_radius(p, &radii, cfg);
        for (label, get) in [
            (
                "RTR",
                &(|x: &RatePoint| x.rtr) as &dyn Fn(&RatePoint) -> f64,
            ),
            ("FCP", &|x: &RatePoint| x.fcp),
            ("MRC", &|x: &RatePoint| x.mrc),
        ] {
            series.push(Series {
                label: format!("{label} ({})", p.name),
                points: pts.iter().map(|x| (x.radius, get(x))).collect(),
            });
        }
    }
    FigureReport {
        id: "Extension S".into(),
        title: "Recovery rate on recoverable test cases vs failure radius".into(),
        xlabel: "radius".into(),
        ylabel: "recovery rate (%)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_fcp_dominates_mrc() {
        let cfg = ExperimentConfig::quick().with_cases(60);
        let p = isp::profile("AS1239").unwrap();
        let pts = sweep_radius(p, &[100.0, 300.0], &cfg);
        assert_eq!(pts.len(), 2);
        for pt in &pts {
            assert_eq!(pt.fcp, 100.0, "FCP delivers all recoverable cases");
            assert!(pt.rtr > pt.mrc, "RTR beats MRC at radius {}", pt.radius);
            assert!((0.0..=100.0).contains(&pt.rtr));
        }
        // MRC never reaches FCP's recovery rate under area failures.
        assert!(pts.iter().all(|pt| pt.mrc < pt.fcp));
    }

    #[test]
    fn report_renders() {
        let cfg = ExperimentConfig::quick().with_cases(25);
        let fig = sensitivity(&[isp::profile("AS1239").unwrap()], &cfg);
        assert_eq!(fig.series.len(), 3);
        assert!(fig.to_string().contains("RTR (AS1239)"));
    }
}

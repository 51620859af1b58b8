//! Scenario-class × scheme matrix (Extension M).
//!
//! The paper's evaluation draws only correlated circular areas (§IV-A),
//! which is exactly the regime RTR was designed for. The five schemes
//! behind [`RecoveryScheme`](rtr_baselines::RecoveryScheme) differ most in
//! how they degrade as the failure *distribution* changes, so this
//! extension crosses every scheme with the four
//! [`ScenarioClass`]es — single link,
//! sparse multi-link, one correlated area, two areas — and reports each
//! scheme's delivery rate and mean stretch on recoverable cases,
//! aggregated over the selected topologies.
//!
//! Expected shape: every scheme is near-perfect on single links (that is
//! what proactive schemes precompute for); MRC and FEP fall off as soon
//! as failures compound; eMRC tracks MRC on single failures and recovers
//! a slice of the multi-failure cases; FCP stays at 100% delivery but
//! pays stretch; RTR delivers optimally everywhere it delivers at all.

use crate::config::ExperimentConfig;
use crate::driver::{run_workload, MrcUnavailable};
use crate::json::{Json, ToJson};
use crate::metrics::percentage;
use crate::testcase::{generate_class_workload, ScenarioClass};
use rtr_baselines::SchemeId;
use rtr_topology::isp;
use std::fmt;

/// One scheme's aggregate over one scenario class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixCell {
    /// The scheme.
    pub scheme: SchemeId,
    /// Delivery rate on recoverable cases (%).
    pub delivery_pct: f64,
    /// Share of recoverable cases recovered on a ground-truth shortest
    /// path (%).
    pub optimal_pct: f64,
    /// Mean stretch over the *delivered* cases (NaN when none delivered;
    /// serializes as `null`).
    pub mean_stretch: f64,
}

/// One scenario class's row: the evaluated case count plus one cell per
/// scheme.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// The scenario class.
    pub class: ScenarioClass,
    /// Recoverable cases aggregated into this row.
    pub cases: usize,
    /// Per-scheme aggregates, in [`SchemeId::ALL`] order.
    pub cells: Vec<MatrixCell>,
}

/// The full matrix report.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Report identifier.
    pub id: String,
    /// Caption.
    pub title: String,
    /// Topologies aggregated into the matrix.
    pub topologies: Vec<String>,
    /// One row per scenario class, in [`ScenarioClass::ALL`] order.
    pub rows: Vec<MatrixRow>,
}

/// Per-(class, scheme) accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct CellAcc {
    cases: usize,
    delivered: usize,
    optimal: usize,
    stretch_sum: f64,
    stretch_count: usize,
}

/// Runs the matrix over the given topologies.
///
/// # Errors
///
/// Propagates [`MrcUnavailable`] from the driver.
pub fn matrix(
    profiles: &[isp::IspProfile],
    cfg: &ExperimentConfig,
) -> Result<MatrixReport, MrcUnavailable> {
    let mut acc = vec![[CellAcc::default(); SchemeId::COUNT]; ScenarioClass::ALL.len()];
    let mut case_counts = vec![0usize; ScenarioClass::ALL.len()];
    for p in profiles {
        let baseline = crate::baseline::Baseline::for_profile(p);
        for (ci, class) in ScenarioClass::ALL.into_iter().enumerate() {
            crate::writer::notice(format!("matrix: {} × {}...", p.name, class.name()));
            // Per-(topology, class) seed stream, disjoint from the paper
            // experiments' `seed ^ asn` streams.
            let seed = cfg.seed ^ u64::from(p.asn) ^ (0x9E37_79B9 << (ci as u64 + 1));
            let w = generate_class_workload(p.name, baseline.clone(), cfg, seed, class);
            let r = run_workload(&w, cfg)?;
            case_counts[ci] += r.recoverable.len();
            for row in &r.recoverable {
                for id in SchemeId::ALL {
                    let Some(outcome) = row.outcome(id) else {
                        continue;
                    };
                    let cell = &mut acc[ci][id.index()];
                    cell.cases += 1;
                    if outcome.delivered {
                        cell.delivered += 1;
                    }
                    if outcome.optimal {
                        cell.optimal += 1;
                    }
                    if let Some(s) = outcome.stretch {
                        cell.stretch_sum += s;
                        cell.stretch_count += 1;
                    }
                }
            }
        }
    }

    let rows = ScenarioClass::ALL
        .into_iter()
        .enumerate()
        .map(|(ci, class)| MatrixRow {
            class,
            cases: case_counts[ci],
            cells: SchemeId::ALL
                .into_iter()
                .filter(|id| cfg.schemes.with(SchemeId::Rtr).contains(*id))
                .map(|id| {
                    let c = acc[ci][id.index()];
                    MatrixCell {
                        scheme: id,
                        delivery_pct: percentage(c.delivered, c.cases),
                        optimal_pct: percentage(c.optimal, c.cases),
                        mean_stretch: if c.stretch_count > 0 {
                            c.stretch_sum / c.stretch_count as f64
                        } else {
                            f64::NAN
                        },
                    }
                })
                .collect(),
        })
        .collect();

    Ok(MatrixReport {
        id: "Extension M".into(),
        title: "Delivery rate and mean stretch per scheme across failure scenario classes".into(),
        topologies: profiles.iter().map(|p| p.name.to_string()).collect(),
        rows,
    })
}

impl fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.id, self.title)?;
        writeln!(f, "topologies: {}", self.topologies.join(", "))?;
        let mut headers = vec!["Class".to_string(), "Cases".to_string()];
        for cell in self.rows.first().map_or(&[][..], |r| &r.cells) {
            headers.push(format!("Rec% {}", cell.scheme.name()));
        }
        for cell in self.rows.first().map_or(&[][..], |r| &r.cells) {
            headers.push(format!("Str {}", cell.scheme.name()));
        }
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                let mut cells = vec![row.class.name().to_string(), row.cases.to_string()];
                for c in &row.cells {
                    cells.push(format!("{:.1}", c.delivery_pct));
                }
                for c in &row.cells {
                    cells.push(if c.mean_stretch.is_nan() {
                        "-".into()
                    } else {
                        format!("{:.2}", c.mean_stretch)
                    });
                }
                cells
            })
            .collect();
        crate::reports::render_table(f, &headers, &rows)
    }
}

impl ToJson for MatrixCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scheme", Json::Str(self.scheme.name().to_string())),
            ("delivery_pct", Json::Num(self.delivery_pct)),
            ("optimal_pct", Json::Num(self.optimal_pct)),
            ("mean_stretch", Json::Num(self.mean_stretch)),
        ])
    }
}

impl ToJson for MatrixRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("class", Json::Str(self.class.name().to_string())),
            ("cases", Json::Num(self.cases as f64)),
            (
                "schemes",
                Json::Arr(self.cells.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl ToJson for MatrixReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id", self.id.to_json()),
            ("title", self.title.to_json()),
            ("topologies", self.topologies.to_json()),
            (
                "classes",
                Json::Arr(self.rows.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_matrix() -> MatrixReport {
        let cfg = ExperimentConfig::quick().with_cases(60);
        matrix(&[isp::profile("AS209").unwrap()], &cfg).expect("AS209 supports MRC")
    }

    #[test]
    fn matrix_is_four_classes_by_five_schemes() {
        let m = quick_matrix();
        assert_eq!(m.rows.len(), 4);
        for row in &m.rows {
            assert_eq!(row.cells.len(), SchemeId::COUNT);
            assert!(row.cases > 0, "{}", row.class.name());
            for cell in &row.cells {
                assert!(cell.delivery_pct.is_finite());
                assert!((0.0..=100.0).contains(&cell.delivery_pct));
            }
        }
    }

    #[test]
    fn matrix_shape_matches_scheme_design() {
        let m = quick_matrix();
        let cell = |class: ScenarioClass, id: SchemeId| {
            *m.rows
                .iter()
                .find(|r| r.class == class)
                .and_then(|r| r.cells.iter().find(|c| c.scheme == id))
                .expect("full matrix")
        };
        // Single links: every scheme is near its best; MRC == eMRC there.
        let sl_mrc = cell(ScenarioClass::SingleLink, SchemeId::Mrc);
        let sl_emrc = cell(ScenarioClass::SingleLink, SchemeId::Emrc);
        assert_eq!(sl_mrc.delivery_pct, sl_emrc.delivery_pct);
        // FCP delivers every recoverable case in every class.
        for class in ScenarioClass::ALL {
            assert_eq!(cell(class, SchemeId::Fcp).delivery_pct, 100.0);
        }
        // Correlated areas separate the proactive schemes from RTR.
        let area_rtr = cell(ScenarioClass::CorrelatedArea, SchemeId::Rtr);
        let area_mrc = cell(ScenarioClass::CorrelatedArea, SchemeId::Mrc);
        let area_emrc = cell(ScenarioClass::CorrelatedArea, SchemeId::Emrc);
        assert!(area_mrc.delivery_pct < area_rtr.delivery_pct);
        assert!(area_emrc.delivery_pct >= area_mrc.delivery_pct);
        // RTR is optimal wherever it delivers (Theorem 2).
        for class in ScenarioClass::ALL {
            let rtr = cell(class, SchemeId::Rtr);
            assert_eq!(rtr.delivery_pct, rtr.optimal_pct);
        }
    }

    #[test]
    fn matrix_renders_and_serializes() {
        let m = quick_matrix();
        let text = m.to_string();
        assert!(text.contains("single-link"));
        assert!(text.contains("Rec% eMRC"));
        let json = crate::json::to_string(&m);
        assert!(json.contains("\"classes\""));
        assert!(json.contains("\"delivery_pct\""));
        assert!(json.contains("sparse-multi-link"));
    }
}

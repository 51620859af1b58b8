//! Experiment configuration: the §IV-A simulation setup with scale knobs.

use rtr_baselines::SchemeMask;
use rtr_sim::DelayModel;

/// Parameters of the paper's simulation setup (§IV-A) plus scale knobs so
/// quick runs and full paper-scale runs share one code path.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Test cases to collect per class (recoverable / irrecoverable) per
    /// topology. The paper uses 10 000 of each.
    pub cases_per_class: usize,
    /// Base RNG seed; every topology derives its own stream from this.
    pub seed: u64,
    /// Minimum failure-area radius (paper: 100).
    pub radius_min: f64,
    /// Maximum failure-area radius (paper: 300).
    pub radius_max: f64,
    /// Side of the placement area (paper: 2000).
    pub area_extent: f64,
    /// Per-hop delay model (paper: 100 µs + 1.7 ms).
    pub delay: DelayModel,
    /// Number of MRC configurations (5, the reference implementation's
    /// typical value).
    pub mrc_configurations: usize,
    /// Failure areas per radius step in the Fig. 11 sweep (paper: 1000).
    pub fig11_areas_per_radius: usize,
    /// Worker threads for the driver (`0` = auto: the `RTR_THREADS`
    /// environment variable, else available parallelism; `1` = serial).
    /// Results are byte-identical at every setting.
    pub threads: usize,
    /// Recovery schemes to evaluate (default: all five). RTR itself — the
    /// system under test — always runs regardless of its bit here; the
    /// mask selects which *comparators* (FCP, MRC, eMRC, FEP) are built
    /// and evaluated alongside it. Schemes are always evaluated
    /// independently per case, so restricting the mask never changes the
    /// numbers of the schemes that remain.
    pub schemes: SchemeMask,
}

impl ExperimentConfig {
    /// The paper's full-scale setup: 10 000 cases per class per topology.
    pub fn paper() -> Self {
        ExperimentConfig {
            cases_per_class: 10_000,
            ..Self::default()
        }
    }

    /// A reduced setup for fast runs (CI, benches, examples).
    pub fn quick() -> Self {
        ExperimentConfig {
            cases_per_class: 500,
            fig11_areas_per_radius: 100,
            ..Self::default()
        }
    }

    /// Overrides the number of cases per class.
    pub fn with_cases(mut self, cases: usize) -> Self {
        self.cases_per_class = cases;
        self
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count (`0` = auto, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the evaluated scheme set (RTR always runs; see
    /// [`schemes`](Self::schemes)).
    pub fn with_schemes(mut self, schemes: SchemeMask) -> Self {
        self.schemes = schemes;
        self
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            cases_per_class: 2_000,
            seed: 0x5274_5221, // "RtR!"
            radius_min: 100.0,
            radius_max: 300.0,
            area_extent: 2000.0,
            delay: DelayModel::PAPER,
            mrc_configurations: 5,
            fig11_areas_per_radius: 1000,
            threads: 0,
            schemes: SchemeMask::ALL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.cases_per_class, 10_000);
        assert_eq!(c.radius_min, 100.0);
        assert_eq!(c.radius_max, 300.0);
        assert_eq!(c.area_extent, 2000.0);
        assert_eq!(c.fig11_areas_per_radius, 1000);
    }

    #[test]
    fn builders() {
        let c = ExperimentConfig::quick()
            .with_cases(42)
            .with_seed(7)
            .with_threads(3);
        assert_eq!(c.cases_per_class, 42);
        assert_eq!(c.seed, 7);
        assert_eq!(c.threads, 3);
        assert_eq!(ExperimentConfig::default().threads, 0, "auto by default");
        assert_eq!(ExperimentConfig::default().schemes, SchemeMask::ALL);
    }

    #[test]
    fn scheme_mask_builder() {
        use rtr_baselines::SchemeId;
        let c = ExperimentConfig::quick()
            .with_schemes(SchemeMask::none().with(SchemeId::Fcp).with(SchemeId::Fep));
        assert!(c.schemes.contains(SchemeId::Fcp));
        assert!(c.schemes.contains(SchemeId::Fep));
        assert!(!c.schemes.contains(SchemeId::Mrc));
    }
}

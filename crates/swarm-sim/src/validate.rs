//! Model-vs-simulation validation helpers.
//!
//! The test suites and the reproduction harness repeatedly ask the same
//! question: does the analytic model of [`swarm_core`] predict what the
//! simulator measures? These helpers package the comparison.

use crate::config::{Patience, SimConfig};
use crate::experiment::{replicate, Replicated};
use serde::{Deserialize, Serialize};
use swarm_stats::parallel::cores;

/// A model-vs-simulation comparison for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Analytic prediction.
    pub model: f64,
    /// Simulated estimate.
    pub simulated: f64,
}

impl Comparison {
    /// Relative error `|sim − model| / model`.
    pub fn relative_error(&self) -> f64 {
        ((self.simulated - self.model) / self.model).abs()
    }
}

/// Compare the patient-peer model (eq. 11) against simulation: mean
/// download time.
pub fn patient_download_time(
    p: &swarm_core::SwarmParams,
    horizon: f64,
    reps: usize,
    seed: u64,
) -> (Comparison, Replicated) {
    let cfg = SimConfig {
        warmup: horizon * 0.05,
        ..SimConfig::from_params(p, Patience::Patient, 0, horizon, seed)
    };
    let rep = replicate(&cfg, reps, cores());
    let cmp = Comparison {
        model: swarm_core::patient::download_time(p),
        simulated: rep.pooled.mean_download_time(),
    };
    (cmp, rep)
}

/// Compare the impatient-peer model (eq. 10) against simulation: blocking
/// probability (empirical unavailability by PASTA).
pub fn impatient_unavailability(
    p: &swarm_core::SwarmParams,
    horizon: f64,
    reps: usize,
    seed: u64,
) -> (Comparison, Replicated) {
    let cfg = SimConfig {
        warmup: horizon * 0.05,
        ..SimConfig::from_params(p, Patience::Impatient, 0, horizon, seed)
    };
    let rep = replicate(&cfg, reps, cores());
    let cmp = Comparison {
        model: swarm_core::impatient::unavailability(p),
        simulated: rep.pooled.blocked_fraction(),
    };
    (cmp, rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swarm() -> swarm_core::SwarmParams {
        swarm_core::SwarmParams {
            lambda: 1.0 / 60.0,
            size: 4000.0,
            mu: 50.0,
            r: 1.0 / 900.0,
            u: 300.0,
        }
    }

    #[test]
    fn patient_model_predicts_simulation() {
        let (cmp, _) = patient_download_time(&swarm(), 400_000.0, 8, 11);
        assert!(
            cmp.relative_error() < 0.15,
            "model {} vs sim {} (rel {})",
            cmp.model,
            cmp.simulated,
            cmp.relative_error()
        );
    }

    #[test]
    fn impatient_model_predicts_blocking() {
        let (cmp, _) = impatient_unavailability(&swarm(), 400_000.0, 8, 13);
        assert!(
            cmp.relative_error() < 0.15,
            "model {} vs sim {} (rel {})",
            cmp.model,
            cmp.simulated,
            cmp.relative_error()
        );
    }

    #[test]
    fn bundling_gain_visible_in_simulation() {
        // The headline claim end-to-end: a K=4 bundle of this unpopular
        // file downloads faster than the file alone.
        let single = swarm_core::SwarmParams {
            r: 1.0 / 5000.0,
            ..swarm()
        };
        let bundle = single.bundle(4, swarm_core::PublisherScaling::Fixed);
        let (cs, _) = patient_download_time(&single, 300_000.0, 6, 17);
        let (cb, _) = patient_download_time(&bundle, 300_000.0, 6, 19);
        assert!(
            cb.simulated < cs.simulated,
            "bundle sim {} must beat single sim {}",
            cb.simulated,
            cs.simulated
        );
    }
}

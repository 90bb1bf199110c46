//! The naive fluid-model baseline (Qiu–Srikant style).
//!
//! Related Work: "A naive adaptation of the fluid model in \[17\] to bundles
//! suggests strictly longer download times under bundling, whereas our
//! model shows that bundling can decrease download times by improving
//! availability."
//!
//! This module implements that strawman faithfully so the ablation benches
//! can show exactly where it breaks. The Qiu–Srikant fluid model describes
//! a swarm in steady state with abundant availability: leechers arrive at
//! rate λ, upload at rate μ_up with effectiveness η, download at most
//! c_down, and seeds depart at rate γ_s. In steady state (no abandonment)
//! the mean download time is
//!
//! `T = max( s/c_down , s·(1/μ_up − 1/γ_s)/η )`
//!
//! (uplink-constrained unless the downlink cap binds). The model has **no
//! notion of availability**: the publisher never matters, so bundling K
//! files simply multiplies `s` — and therefore `T` — by K.

use serde::{Deserialize, Serialize};

/// Parameters of the fluid steady-state model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidParams {
    /// Content size `s`.
    pub size: f64,
    /// Per-peer upload capacity `μ_up` (size units per time).
    pub upload: f64,
    /// Per-peer download cap `c_down`.
    pub download_cap: f64,
    /// Upload effectiveness `η ∈ (0, 1]` (fraction of upload capacity
    /// actually utilized; Qiu–Srikant argue η ≈ 1 for BitTorrent).
    pub eta: f64,
    /// Seed departure rate `γ_s` (seeds linger `1/γ_s` on average).
    pub seed_departure: f64,
}

impl FluidParams {
    fn validate(&self) {
        assert!(self.size > 0.0 && self.size.is_finite());
        assert!(self.upload > 0.0 && self.upload.is_finite());
        assert!(self.download_cap > 0.0 && self.download_cap.is_finite());
        assert!(
            self.eta > 0.0 && self.eta <= 1.0,
            "eta in (0,1], got {}",
            self.eta
        );
        assert!(self.seed_departure > 0.0 && self.seed_departure.is_finite());
    }

    /// Steady-state mean download time of the fluid model.
    ///
    /// `1/μ_up − 1/γ_s` can be negative when seeds linger so long that
    /// capacity is effectively infinite; the downlink cap then binds.
    pub fn download_time(&self) -> f64 {
        self.validate();
        let uplink_limited = self.size * (1.0 / self.upload - 1.0 / self.seed_departure) / self.eta;
        let downlink_limited = self.size / self.download_cap;
        uplink_limited.max(downlink_limited)
    }

    /// The naive bundle adaptation: K files of this size in one swarm —
    /// only `size` changes, so `T(K) = K·T(1)`, *strictly increasing*.
    pub fn bundle_download_time(&self, k: u32) -> f64 {
        assert!(k >= 1);
        let bundled = FluidParams {
            size: self.size * k as f64,
            ..*self
        };
        bundled.download_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FluidParams {
        FluidParams {
            size: 4000.0,
            upload: 50.0,
            download_cap: 400.0,
            eta: 1.0,
            seed_departure: 1.0 / 10.0,
        }
    }

    #[test]
    fn uplink_limited_regime() {
        let p = params();
        // 1/50 - 10 < 0 → wait, seed_departure = 0.1 → 1/γ = 10 s linger.
        // uplink: 4000·(0.02 - 10) < 0 → downlink binds: 4000/400 = 10 s.
        assert_eq!(p.download_time(), 10.0);
    }

    #[test]
    fn seeds_leaving_fast_slows_downloads() {
        let fast_leaving = FluidParams {
            seed_departure: 1000.0, // seeds vanish instantly
            ..params()
        };
        let lingering = FluidParams {
            seed_departure: 0.01, // seeds stay ~100 s
            ..params()
        };
        assert!(fast_leaving.download_time() >= lingering.download_time());
        // With no seed help the time approaches s/μ_up.
        let t = fast_leaving.download_time();
        assert!((t - 4000.0 * (1.0 / 50.0 - 1.0 / 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn naive_bundling_is_strictly_linear_in_k() {
        let p = params();
        let t1 = p.bundle_download_time(1);
        for k in 2..=8u32 {
            let tk = p.bundle_download_time(k);
            assert!((tk - k as f64 * t1).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn fluid_model_never_predicts_bundling_gains() {
        // The whole point of the baseline: it cannot see availability, so
        // bundling monotonically hurts.
        let p = params();
        let mut prev = 0.0;
        for k in 1..=10u32 {
            let t = p.bundle_download_time(k);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn eta_scales_uplink_limited_time() {
        let p = FluidParams {
            eta: 0.5,
            seed_departure: 1000.0,
            download_cap: 1e9,
            ..params()
        };
        let full = FluidParams { eta: 1.0, ..p };
        assert!((p.download_time() - 2.0 * full.download_time()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "eta in (0,1]")]
    fn rejects_bad_eta() {
        FluidParams {
            eta: 1.5,
            ..params()
        }
        .download_time();
    }
}

//! Weighted multi-snapshot traffic splitting.
//!
//! Sessions are **sticky-assigned** to an arm of the
//! [`crate::snapshot::SnapshotRegistry`] when they are created: a seeded
//! hash of the session id drives one weighted draw, and the session
//! scores against that arm's snapshot for its whole life (re-splitting a
//! live session would tear its context cache and mix models inside one
//! persuasion path).  The draw is a pure function of `(seed, session
//! id, weights)` — reproducible across restarts and property-testable —
//! and honors the weights in expectation.
//!
//! Each arm keeps its own metric counters: requests served, feedback
//! outcomes (for the acceptance rate) and a log-bucketed latency
//! histogram (for p50/p95), all lock-free on the hot path.  The handles
//! are [`irs_obs`] registry handles, so the same counters the hot path
//! bumps are the ones `/metrics` and `/v1/stats` render — no shadow
//! copies.  Alongside the lifetime totals every arm keeps
//! **sliding-window** variants ([`ARM_WINDOW_BUCKETS`] ring buckets of
//! [`ARM_WINDOW_BUCKET`] each): a young canary's last-minute rate is
//! comparable to a long-lived stable arm's, which lifetime totals
//! structurally are not.

use std::time::Duration;

use parking_lot::RwLock;

use irs_obs::{Counter, Histogram, WindowedCounter};

use crate::snapshot::NUM_ARMS;

/// Log-bucketed latency histogram (re-exported from the observability
/// crate; bucket = bit width of the duration in microseconds).
pub use irs_obs::Histogram as LatencyHistogram;

/// Ring length of the per-arm sliding windows.
pub const ARM_WINDOW_BUCKETS: usize = 12;
/// Width of one window bucket; the full window is
/// `ARM_WINDOW_BUCKETS × ARM_WINDOW_BUCKET` = 60 s.
pub const ARM_WINDOW_BUCKET: Duration = Duration::from_secs(5);

/// `splitmix64` — tiny, well-mixed, seedable; the standard choice for
/// turning a counter-like id into uniform bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-arm serving counters: lifetime totals plus sliding-window
/// variants.  Cloning shares the underlying atomics, so a clone handed
/// to the metrics registry observes the same traffic.
#[derive(Clone)]
pub struct ArmMetrics {
    requests: Counter,
    accepted: Counter,
    rejected: Counter,
    latency: Histogram,
    window_requests: WindowedCounter,
    window_accepted: WindowedCounter,
    window_rejected: WindowedCounter,
    window_latency_us: WindowedCounter,
}

impl Default for ArmMetrics {
    /// Detached handles (not registered anywhere) — for tests and
    /// standalone [`TrafficSplit`]s.
    fn default() -> Self {
        ArmMetrics::with_handles(
            Counter::default(),
            Counter::default(),
            Counter::default(),
            Histogram::default(),
        )
    }
}

impl ArmMetrics {
    /// Build around registry-owned lifetime handles; the sliding
    /// windows are created fresh (they are this struct's own state).
    pub fn with_handles(
        requests: Counter,
        accepted: Counter,
        rejected: Counter,
        latency: Histogram,
    ) -> Self {
        let window = || WindowedCounter::new(ARM_WINDOW_BUCKETS, ARM_WINDOW_BUCKET);
        ArmMetrics {
            requests,
            accepted,
            rejected,
            latency,
            window_requests: window(),
            window_accepted: window(),
            window_rejected: window(),
            window_latency_us: window(),
        }
    }

    /// Record one scheduler round-trip and its latency.
    pub fn record_request(&self, latency: Duration) {
        self.requests.inc();
        self.latency.record(latency);
        self.window_requests.add(1);
        self.window_latency_us.add(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one feedback outcome.
    pub fn record_feedback(&self, accepted: bool) {
        if accepted {
            self.accepted.inc();
            self.window_accepted.add(1);
        } else {
            self.rejected.inc();
            self.window_rejected.add(1);
        }
    }

    /// Proposals served through this arm (lifetime).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Accepted feedback events (lifetime).
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Rejected feedback events (lifetime).
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// `accepted / (accepted + rejected)`, 0 before any feedback.
    pub fn acceptance_rate(&self) -> f64 {
        let a = self.accepted() as f64;
        let r = self.rejected() as f64;
        if a + r == 0.0 {
            0.0
        } else {
            a / (a + r)
        }
    }

    /// Estimated latency quantile in microseconds (lifetime).
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        self.latency.quantile_us(q)
    }

    /// Proposals served inside the sliding window.
    pub fn window_requests(&self) -> u64 {
        self.window_requests.total()
    }

    /// Feedback accepted inside the sliding window.
    pub fn window_accepted(&self) -> u64 {
        self.window_accepted.total()
    }

    /// Feedback rejected inside the sliding window.
    pub fn window_rejected(&self) -> u64 {
        self.window_rejected.total()
    }

    /// Acceptance rate over the sliding window, 0 when it is empty.
    pub fn window_acceptance_rate(&self) -> f64 {
        let a = self.window_accepted() as f64;
        let r = self.window_rejected() as f64;
        if a + r == 0.0 {
            0.0
        } else {
            a / (a + r)
        }
    }

    /// Mean round-trip latency in microseconds over the sliding window,
    /// 0 when it is empty.
    pub fn window_mean_latency_us(&self) -> f64 {
        let n = self.window_requests();
        if n == 0 {
            0.0
        } else {
            self.window_latency_us.total() as f64 / n as f64
        }
    }

    /// Width of the sliding window in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.window_requests.window_ms()
    }
}

/// Sticky weighted session→arm assignment plus per-arm metrics.
pub struct TrafficSplit {
    /// Normalised weights (sum 1).  An `RwLock` rather than atomics so a
    /// reader always sees one coherent weight vector; writes only happen
    /// on admin routes.
    weights: RwLock<[f64; NUM_ARMS]>,
    seed: u64,
    metrics: [ArmMetrics; NUM_ARMS],
}

impl TrafficSplit {
    /// All traffic to arm 0 (the stable snapshot) until an admin sets
    /// weights; `seed` fixes the assignment hash.  Metrics are detached
    /// handles; servers that export them use
    /// [`TrafficSplit::with_metrics`].
    pub fn new(seed: u64) -> Self {
        TrafficSplit::with_metrics(seed, Default::default())
    }

    /// Like [`TrafficSplit::new`] but recording into caller-provided
    /// (typically registry-backed) per-arm metrics.
    pub fn with_metrics(seed: u64, metrics: [ArmMetrics; NUM_ARMS]) -> Self {
        let mut weights = [0.0; NUM_ARMS];
        weights[0] = 1.0;
        TrafficSplit { weights: RwLock::new(weights), seed, metrics }
    }

    /// The arm a session id belongs to under the current weights: one
    /// seeded uniform draw in `[0, 1)` walked through the cumulative
    /// weights.  Deterministic per `(seed, id, weights)`.
    pub fn assign(&self, session_id: u64) -> usize {
        let bits = splitmix64(self.seed ^ session_id.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // 53 high bits → uniform f64 in [0, 1).
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let weights = self.weights.read();
        let mut acc = 0.0;
        for (arm, &w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return arm;
            }
        }
        // Floating-point shortfall (acc summed to < 1): last arm with
        // any weight.
        weights.iter().rposition(|&w| w > 0.0).unwrap_or(0)
    }

    /// Replace the weights.  Rejects negative/non-finite entries, a
    /// zero-sum vector, or a wrong-length one; accepted weights are
    /// normalised to sum 1 and returned.  They are divided by the largest
    /// weight before summing, so finite weights whose sum would overflow
    /// (`[1e308, 1e308]`) still normalise.
    pub fn set_weights(&self, weights: &[f64]) -> Result<[f64; NUM_ARMS], String> {
        if weights.len() != NUM_ARMS {
            return Err(format!("expected {NUM_ARMS} weights, got {}", weights.len()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err("weights must be finite and non-negative".into());
        }
        let max = weights.iter().copied().fold(0.0, f64::max);
        if max <= 0.0 {
            return Err("weights must not all be zero".into());
        }
        let sum: f64 = weights.iter().map(|w| w / max).sum();
        let mut normalised = [0.0; NUM_ARMS];
        for (slot, &w) in normalised.iter_mut().zip(weights) {
            *slot = w / max / sum;
        }
        *self.weights.write() = normalised;
        Ok(normalised)
    }

    /// Current normalised weights.
    pub fn weights(&self) -> [f64; NUM_ARMS] {
        *self.weights.read()
    }

    /// The metric counters for `arm` (clamped into range).
    pub fn metrics(&self, arm: usize) -> &ArmMetrics {
        &self.metrics[arm.min(NUM_ARMS - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_sticky() {
        let a = TrafficSplit::new(42);
        let b = TrafficSplit::new(42);
        a.set_weights(&[0.5, 0.5]).unwrap();
        b.set_weights(&[0.5, 0.5]).unwrap();
        for id in 0..1000u64 {
            assert_eq!(a.assign(id), b.assign(id), "same seed must reproduce the draw");
            assert_eq!(a.assign(id), a.assign(id), "the draw must be stable per id");
        }
        let c = TrafficSplit::new(43);
        c.set_weights(&[0.5, 0.5]).unwrap();
        let diverges = (0..1000u64).any(|id| a.assign(id) != c.assign(id));
        assert!(diverges, "a different seed must shuffle assignments");
    }

    #[test]
    fn weights_are_honored_within_tolerance() {
        let split = TrafficSplit::new(7);
        for &(w0, w1) in &[(0.5, 0.5), (0.9, 0.1), (0.25, 0.75)] {
            split.set_weights(&[w0, w1]).unwrap();
            let n = 20_000u64;
            let to_canary = (0..n).filter(|&id| split.assign(id) == 1).count() as f64;
            let frac = to_canary / n as f64;
            assert!((frac - w1).abs() < 0.02, "weight {w1} drew fraction {frac} over {n} sessions");
        }
    }

    #[test]
    fn degenerate_weights_route_everything_one_way() {
        let split = TrafficSplit::new(1);
        assert!((0..500u64).all(|id| split.assign(id) == 0), "default is 100% stable");
        split.set_weights(&[0.0, 1.0]).unwrap();
        assert!((0..500u64).all(|id| split.assign(id) == 1));
        split.set_weights(&[1.0, 0.0]).unwrap();
        assert!((0..500u64).all(|id| split.assign(id) == 0));
    }

    #[test]
    fn set_weights_validates_and_normalises() {
        let split = TrafficSplit::new(0);
        assert!(split.set_weights(&[1.0]).is_err(), "wrong length");
        assert!(split.set_weights(&[-1.0, 2.0]).is_err(), "negative");
        assert!(split.set_weights(&[f64::NAN, 1.0]).is_err(), "non-finite");
        assert!(split.set_weights(&[0.0, 0.0]).is_err(), "zero sum");
        let w = split.set_weights(&[1.0, 3.0]).unwrap();
        assert!((w[0] - 0.25).abs() < 1e-12 && (w[1] - 0.75).abs() < 1e-12);
        assert_eq!(split.weights(), w);
        // The 50/50 split stays exact, and weights whose sum overflows
        // still normalise to a vector summing to 1.
        assert_eq!(split.set_weights(&[0.5, 0.5]).unwrap(), [0.5, 0.5]);
        assert_eq!(split.set_weights(&[1e308, 1e308]).unwrap(), [0.5, 0.5]);
        let w = split.set_weights(&[f64::MAX, 1.0]).unwrap();
        assert_eq!(w[0], 1.0);
        assert!(w[1] > 0.0 && w[1] < 1e-300, "{w:?}");
        assert_eq!(w.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn metrics_accumulate_and_rate_is_defined() {
        let split = TrafficSplit::new(0);
        let m = split.metrics(1);
        assert_eq!(m.acceptance_rate(), 0.0, "no feedback yet");
        m.record_request(Duration::from_micros(100));
        m.record_request(Duration::from_micros(200));
        m.record_feedback(true);
        m.record_feedback(true);
        m.record_feedback(false);
        assert_eq!(m.requests(), 2);
        assert_eq!(m.accepted(), 2);
        assert_eq!(m.rejected(), 1);
        assert!((m.acceptance_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(split.metrics(0).requests(), 0, "arms are independent");
    }

    #[test]
    fn windowed_counters_track_fresh_traffic() {
        let m = ArmMetrics::default();
        m.record_request(Duration::from_micros(100));
        m.record_request(Duration::from_micros(300));
        m.record_feedback(true);
        m.record_feedback(false);
        // Just recorded, so everything is inside the 60 s window.
        assert_eq!(m.window_requests(), 2);
        assert_eq!(m.window_accepted(), 1);
        assert_eq!(m.window_rejected(), 1);
        assert!((m.window_acceptance_rate() - 0.5).abs() < 1e-12);
        assert!((m.window_mean_latency_us() - 200.0).abs() < 1e-12);
        assert_eq!(m.window_ms(), 60_000);
    }

    #[test]
    fn clones_share_the_underlying_counters() {
        let m = ArmMetrics::default();
        let clone = m.clone();
        m.record_request(Duration::from_micros(50));
        assert_eq!(clone.requests(), 1);
        assert_eq!(clone.window_requests(), 1);
    }
}

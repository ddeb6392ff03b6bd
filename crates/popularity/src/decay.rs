//! Exponential decay via the *inflated increment* technique (paper §2.3).
//!
//! The paper weights each request by a factor that decays exponentially
//! with age. Discounting every counter on every request would be `O(n)` per
//! access, so instead the *increment* is inflated: at tick `t` an access
//! adds `g^t` (where `g` is the decay rate, `g ≥ 1`), and popularity is the
//! stored sum normalized by `g^t`. Older contributions are therefore worth
//! `g^(t_old - t_now) ≤ 1` of a fresh access — exactly exponential decay —
//! at `O(1)` per access.
//!
//! Inflated weights grow without bound, so the schedule signals when
//! counters must be *rescaled* (everything divided by the current weight):
//! the paper's "reset counters from time to time, at some loss of
//! precision".

/// Decay bookkeeping shared by a family of counters.
#[derive(Debug, Clone)]
pub struct DecaySchedule {
    rate: f64,
    weight: f64,
    ticks: u64,
    rescale_threshold: f64,
    rescales: u64,
}

impl DecaySchedule {
    /// A schedule with per-event decay `rate` (`1.0` = no decay). Rates
    /// slightly above 1 (e.g. `1.000001`) decay slowly; the paper sweeps
    /// `1.0..=1.00002` for per-request decay and `1.0..=5.0` for per-week
    /// decay.
    ///
    /// # Panics
    /// If `rate < 1.0` or is not finite.
    pub fn new(rate: f64) -> DecaySchedule {
        assert!(rate.is_finite() && rate >= 1.0, "decay rate must be >= 1.0");
        DecaySchedule {
            rate,
            weight: 1.0,
            ticks: 0,
            rescale_threshold: 1e100,
            rescales: 0,
        }
    }

    /// No decay: every access counts equally forever.
    pub fn none() -> DecaySchedule {
        DecaySchedule::new(1.0)
    }

    /// Override the weight threshold that triggers rescaling (testing and
    /// precision experiments).
    pub fn with_rescale_threshold(mut self, threshold: f64) -> DecaySchedule {
        assert!(threshold > 1.0);
        self.rescale_threshold = threshold;
        self
    }

    /// The decay rate `g`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Current increment weight `g^ticks`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of ticks elapsed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Number of rescales performed so far.
    pub fn rescales(&self) -> u64 {
        self.rescales
    }

    /// Advance time by one event; subsequent increments weigh more.
    pub fn tick(&mut self) {
        self.ticks += 1;
        self.weight *= self.rate;
    }

    /// Advance time by `n` events at once (e.g. a weekly boundary in the
    /// box-office workload applies the decay factor once per week).
    pub fn tick_many(&mut self, n: u64) {
        self.ticks += n;
        // powi is exact enough and much faster than n multiplications.
        self.weight *= self.rate.powi(n.min(i32::MAX as u64) as i32);
    }

    /// Whether counters sharing this schedule must be rescaled now to
    /// avoid precision loss / overflow.
    pub fn needs_rescale(&self) -> bool {
        self.weight >= self.rescale_threshold
    }

    /// Consume the accumulated weight for a rescale: returns the factor by
    /// which all counters must be divided, and resets the weight to 1.
    pub fn take_rescale_factor(&mut self) -> f64 {
        let f = self.weight;
        self.weight = 1.0;
        self.rescales += 1;
        f
    }

    /// Normalize a raw (inflated) count into "equivalent fresh accesses".
    pub fn normalize(&self, raw: f64) -> f64 {
        raw / self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_decay_keeps_weight_one() {
        let mut s = DecaySchedule::none();
        for _ in 0..1000 {
            s.tick();
        }
        assert_eq!(s.weight(), 1.0);
        assert_eq!(s.ticks(), 1000);
        assert!(!s.needs_rescale());
    }

    #[test]
    fn weight_grows_geometrically() {
        let mut s = DecaySchedule::new(2.0);
        s.tick();
        s.tick();
        s.tick();
        assert_eq!(s.weight(), 8.0);
        assert_eq!(s.normalize(8.0), 1.0);
        assert_eq!(s.normalize(4.0), 0.5, "one-tick-old access worth 1/g");
    }

    #[test]
    fn tick_many_matches_repeated_tick() {
        let mut a = DecaySchedule::new(1.01);
        let mut b = DecaySchedule::new(1.01);
        for _ in 0..50 {
            a.tick();
        }
        b.tick_many(50);
        assert!((a.weight() - b.weight()).abs() / a.weight() < 1e-12);
    }

    #[test]
    fn rescale_cycle() {
        let mut s = DecaySchedule::new(10.0).with_rescale_threshold(1e6);
        let mut raw = 0.0; // one access per tick
        while !s.needs_rescale() {
            s.tick();
            raw += s.weight();
        }
        let before = s.normalize(raw);
        let f = s.take_rescale_factor();
        raw /= f;
        let after = s.normalize(raw);
        assert!(
            (before - after).abs() / before < 1e-9,
            "rescale preserves normalized value"
        );
        assert_eq!(s.rescales(), 1);
        assert_eq!(s.weight(), 1.0);
    }

    #[test]
    #[should_panic]
    fn sub_one_rate_rejected() {
        DecaySchedule::new(0.5);
    }
}

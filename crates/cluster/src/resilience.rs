//! Opt-in resilience policies: bounded retries with deterministic
//! backoff, per-tenant retry budgets, request hedging, and brownout
//! load-shedding.
//!
//! The default fleet front end retries displaced work **immediately
//! and unboundedly** — the retry-storm anti-pattern this module
//! exists to study. Attaching a [`RetryPolicy`] to a
//! [`crate::fleet::FleetSpec`] (`with_retry`) replaces that with:
//!
//! * **bounded attempts** — a request that fails `max_attempts` times
//!   is dropped (reported per tenant, never silently lost);
//! * **deterministic exponential backoff** — attempt `k` waits
//!   `min(backoff_base_ms · 2^(k-1), backoff_max_ms)` scaled by
//!   `1 + jitter_frac · u`, where `u` is drawn from a per-tenant
//!   seeded stream (`0xB0FF_0000 + tenant` off the fleet seed). No
//!   wall clock anywhere: the same seed replays the same backoffs bit
//!   for bit, on either engine at any worker count;
//! * **retry budgets** ([`RetryBudget`]) — a per-tenant token bucket
//!   spent on every retry; when it runs dry the circuit breaks and the
//!   request is dropped instead of amplifying the storm;
//! * **hedging** ([`HedgeConfig`]) — an opt-in tied request: if a
//!   request has neither dispatched nor failed after a p99-derived
//!   delay, a copy is enqueued on a second replica and whichever copy
//!   *dispatches first* cancels the other at queue level (first-wins;
//!   only one copy ever executes, so no capacity is double-spent on
//!   the same request's service).
//!
//! [`BrownoutConfig`] is the graceful-degradation side: a per-cell
//! controller watching the recent over-SLO completion fraction (and
//! retry-budget exhaustion) that sheds **lowest-priority** admissions
//! while tripped, so overload degrades the bulk tier instead of
//! collapsing every tenant's tail.
//!
//! Everything here is opt-in and report-gated: a spec with neither
//! policy runs byte-identical to a build without this module.

use serde::{Deserialize, Serialize};

/// Bounded, backed-off retries for displaced requests (host or die
/// crashes, dead-host deliveries). Attach with
/// [`crate::fleet::FleetSpec::with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per request including the first (≥ 1). A request
    /// failing this many times is dropped and reported.
    pub max_attempts: u32,
    /// Backoff before retry attempt `k` (the `k`-th failure) starts at
    /// this base, ms (> 0).
    pub backoff_base_ms: f64,
    /// Exponential backoff ceiling, ms (≥ base).
    pub backoff_max_ms: f64,
    /// Uniform jitter fraction in `[0, 1]`: the backoff is scaled by
    /// `1 + jitter_frac · u` with `u ~ U[0,1)` from the tenant's
    /// seeded retry stream.
    pub jitter_frac: f64,
    /// Optional per-tenant retry budget (circuit breaker).
    pub budget: Option<RetryBudget>,
    /// Optional request hedging.
    pub hedge: Option<HedgeConfig>,
}

impl RetryPolicy {
    /// A conservative default: 4 attempts, 1 ms base doubling to 8 ms,
    /// 20% jitter, no budget, no hedging.
    pub fn backoff() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 1.0,
            backoff_max_ms: 8.0,
            jitter_frac: 0.2,
            budget: None,
            hedge: None,
        }
    }

    /// Attach a retry budget.
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attach hedging.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// The deterministic backoff before retry attempt `k` (1-based),
    /// given the jitter draw `u ∈ [0, 1)`.
    pub fn backoff_ms(&self, attempt: u32, u: f64) -> f64 {
        let exp = self.backoff_base_ms * 2f64.powi(attempt.saturating_sub(1).min(62) as i32);
        exp.min(self.backoff_max_ms) * (1.0 + self.jitter_frac * u)
    }

    /// Check invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero attempts, nonpositive/non-finite backoff bounds,
    /// a ceiling below the base, or jitter outside `[0, 1]`; also
    /// validates any attached budget and hedge config.
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "at least one attempt");
        assert!(
            self.backoff_base_ms > 0.0 && self.backoff_base_ms.is_finite(),
            "backoff base must be positive and finite"
        );
        assert!(
            self.backoff_max_ms >= self.backoff_base_ms && self.backoff_max_ms.is_finite(),
            "backoff ceiling must be >= base and finite"
        );
        assert!(
            (0.0..=1.0).contains(&self.jitter_frac),
            "jitter fraction must be in [0, 1]"
        );
        if let Some(b) = &self.budget {
            b.validate();
        }
        if let Some(h) = &self.hedge {
            h.validate();
        }
    }
}

/// A per-tenant retry token bucket: each retry spends one token;
/// tokens refill continuously at `refill_per_ms` up to `tokens`. A
/// retry arriving to an empty bucket is **dropped** (circuit broken)
/// and counts toward brownout pressure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryBudget {
    /// Bucket capacity, tokens (> 0). Also the starting level.
    pub tokens: f64,
    /// Continuous refill rate, tokens per simulated ms (≥ 0).
    pub refill_per_ms: f64,
}

impl RetryBudget {
    /// Check invariants.
    ///
    /// # Panics
    ///
    /// Panics on a nonpositive/non-finite capacity or a negative/
    /// non-finite refill rate.
    pub fn validate(&self) {
        assert!(
            self.tokens > 0.0 && self.tokens.is_finite(),
            "budget capacity must be positive and finite"
        );
        assert!(
            self.refill_per_ms >= 0.0 && self.refill_per_ms.is_finite(),
            "refill rate must be non-negative and finite"
        );
    }
}

/// Opt-in request hedging ("tied requests"): a request that has
/// neither dispatched nor failed `delay` after its first enqueue gets
/// a copy on a second replica; whichever copy dispatches first cancels
/// the other in its queue. The delay is the tenant's recent
/// completion-latency `quantile` over a `window`-completion ring,
/// floored at `min_delay_ms` (and equal to the floor until the ring
/// has enough samples to trust).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// Hedge-delay floor, ms (> 0) — also the delay while fewer than
    /// 20 completions have been observed.
    pub min_delay_ms: f64,
    /// Which recent-latency quantile sets the delay (in `(0, 1)`,
    /// typically 0.95–0.99).
    pub quantile: f64,
    /// Ring size of recent completions the quantile is taken over
    /// (≥ 1).
    pub window: usize,
}

impl HedgeConfig {
    /// The "tail at scale" shape: hedge after the recent p99, floored
    /// at 1 ms, over the last 256 completions.
    pub fn p99() -> Self {
        HedgeConfig {
            min_delay_ms: 1.0,
            quantile: 0.99,
            window: 256,
        }
    }

    /// Check invariants.
    ///
    /// # Panics
    ///
    /// Panics on a nonpositive/non-finite floor, a quantile outside
    /// `(0, 1)`, or an empty window.
    pub fn validate(&self) {
        assert!(
            self.min_delay_ms > 0.0 && self.min_delay_ms.is_finite(),
            "hedge delay floor must be positive and finite"
        );
        assert!(
            self.quantile > 0.0 && self.quantile < 1.0,
            "hedge quantile must be in (0, 1)"
        );
        assert!(self.window >= 1, "hedge window must hold a sample");
    }
}

/// Brownout load-shedding: per placement cell (connected component of
/// the tenant↔host graph — the sharded engine's own unit, so single
/// and sharded engines agree byte for byte), a controller watches the
/// fraction of recent completions that missed their SLO. When the
/// fraction crosses `slo_burn_threshold` (or a tenant's retry budget
/// runs dry), the cell **trips**: arrivals of tenants at priority ≤
/// `max_priority_shed` are shed at admission until the burn falls back
/// under `clear_threshold` — with `min_trip_ms` of hysteresis so the
/// controller doesn't flap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrownoutConfig {
    /// Shed tenants with priority ≤ this while tripped.
    pub max_priority_shed: u8,
    /// Trip when over-SLO fraction of the window exceeds this.
    pub slo_burn_threshold: f64,
    /// Completions in the sliding window (≥ 1).
    pub window: usize,
    /// Clear when the fraction falls to or below this (≤ trip
    /// threshold).
    pub clear_threshold: f64,
    /// Minimum time tripped before clearing, ms (≥ 0).
    pub min_trip_ms: f64,
}

impl BrownoutConfig {
    /// Shed priority ≤ 1 when over 50% of the last 64 completions
    /// miss SLO; clear under 20% after at least 5 ms.
    pub fn shed_low_priority() -> Self {
        BrownoutConfig {
            max_priority_shed: 1,
            slo_burn_threshold: 0.5,
            window: 64,
            clear_threshold: 0.2,
            min_trip_ms: 5.0,
        }
    }

    /// Check invariants.
    ///
    /// # Panics
    ///
    /// Panics on thresholds outside `[0, 1]`, a clear threshold above
    /// the trip threshold, an empty window, or a negative/non-finite
    /// hysteresis.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.slo_burn_threshold),
            "trip threshold must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.clear_threshold),
            "clear threshold must be in [0, 1]"
        );
        assert!(
            self.clear_threshold <= self.slo_burn_threshold,
            "clear threshold must not exceed the trip threshold"
        );
        assert!(self.window >= 1, "brownout window must hold a sample");
        assert!(
            self.min_trip_ms >= 0.0 && self.min_trip_ms.is_finite(),
            "hysteresis must be non-negative and finite"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps_with_jitter_on_top() {
        let p = RetryPolicy {
            max_attempts: 8,
            backoff_base_ms: 1.0,
            backoff_max_ms: 8.0,
            jitter_frac: 0.5,
            budget: None,
            hedge: None,
        };
        assert_eq!(p.backoff_ms(1, 0.0), 1.0);
        assert_eq!(p.backoff_ms(2, 0.0), 2.0);
        assert_eq!(p.backoff_ms(3, 0.0), 4.0);
        assert_eq!(p.backoff_ms(4, 0.0), 8.0);
        assert_eq!(p.backoff_ms(7, 0.0), 8.0, "capped at the ceiling");
        assert_eq!(p.backoff_ms(1, 1.0), 1.5, "jitter scales, never shrinks");
        // Huge attempt counts must not overflow the exponent.
        assert!(p.backoff_ms(u32::MAX, 0.0).is_finite());
    }

    #[test]
    fn defaults_validate() {
        RetryPolicy::backoff()
            .with_budget(RetryBudget {
                tokens: 16.0,
                refill_per_ms: 0.5,
            })
            .with_hedge(HedgeConfig::p99())
            .validate();
        BrownoutConfig::shed_low_priority().validate();
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn inverted_backoff_bounds_rejected() {
        RetryPolicy {
            backoff_max_ms: 0.5,
            ..RetryPolicy::backoff()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "clear threshold")]
    fn clear_above_trip_rejected() {
        BrownoutConfig {
            clear_threshold: 0.9,
            ..BrownoutConfig::shed_low_priority()
        }
        .validate();
    }

    #[test]
    fn builders_layer_onto_the_base_policy() {
        let p = RetryPolicy::backoff()
            .with_budget(RetryBudget {
                tokens: 8.0,
                refill_per_ms: 1.0,
            })
            .with_hedge(HedgeConfig::p99());
        assert_eq!(p.max_attempts, RetryPolicy::backoff().max_attempts);
        assert_eq!(p.budget.unwrap().tokens, 8.0);
        assert_eq!(p.hedge.unwrap().quantile, 0.99);
    }
}

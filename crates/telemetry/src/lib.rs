//! # tpu-telemetry — opt-in observability for the serving simulators
//!
//! Three instruments, all recorded in **sim time** (never wall clock),
//! all strictly opt-in:
//!
//! * [`trace`] — causal request tracing: every request gets a span tree
//!   (arrival → queue → dispatch → weight-swap stall → service →
//!   complete) plus per-die activity tracks, exported as Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`;
//! * [`metrics`] — seeded-cadence time-series probes (queue depth,
//!   per-die utilization, outstanding-per-replica, resident weights,
//!   replica counts) in ring-buffered series, exportable as CSV or
//!   JSON;
//! * [`profile`] — engine self-profiling: per-event-type counts and
//!   timer-wheel occupancy / rung-spill counters behind
//!   `--engine-stats`;
//! * [`reqlog`] — a compact per-request record stream (tenant, host,
//!   die, arrival/dispatch/complete, swap stall, retries) behind
//!   `--request-log`, the analysis-ready input of `tpu_analyze`.
//!
//! [`stats`] holds the shared percentile index rule and the
//! bounded-memory [`LatencySketch`] the metrics recorder uses for
//! per-interval latency percentiles.
//!
//! The determinism contract is the point of the design: a run carries a
//! [`RunTelemetry`] whose fields are all `Option`s. With every field
//! `None` (the [`RunTelemetry::off`] default, and what the plain
//! `run`/`run_fleet` entry points pass) the engines' hot paths pay one
//! branch per hook and emit nothing, so every seeded report stays
//! byte-identical to an uninstrumented build. With telemetry on, the
//! instruments only *observe* — they never schedule events, draw from
//! an RNG, or read a clock — so the report is still bit-identical to
//! the telemetry-off run and the artifacts themselves are bit-identical
//! across same-seed runs.
//!
//! Artifacts leave the run through a [`TelemetrySink`]; the default
//! [`NoopSink`] discards everything, the CLIs install a file-writing
//! sink, and tests install collecting sinks.

#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod reqlog;
pub mod stats;
pub mod trace;

pub use metrics::{MetricsConfig, MetricsRecorder, Point};
pub use profile::{EngineProfile, WheelProfile};
pub use reqlog::{RequestLog, RequestProbe, RequestRecord};
pub use stats::{percentile, LatencySketch};
pub use trace::{HostProbe, Phase, SummaryRow, TraceEvent, Tracer};

/// What to record during a run. The default ([`TelemetryConfig::off`])
/// records nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Record a Chrome-trace span tree per request plus die tracks.
    pub trace: bool,
    /// Sample time-series probes on this cadence.
    pub metrics: Option<MetricsConfig>,
    /// Collect per-event-type counts and timer-wheel statistics.
    pub profile: bool,
    /// Record one [`RequestRecord`] per served request.
    pub requests: bool,
}

impl TelemetryConfig {
    /// Record nothing (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// True if any instrument is switched on.
    pub fn enabled(&self) -> bool {
        self.trace || self.metrics.is_some() || self.profile || self.requests
    }
}

/// A streaming consumer of the telemetry probe stream, folded *during*
/// the run (the health monitor in `tpu_monitor` is the one
/// implementation). Like every instrument it only observes: it is fed
/// sim-time state at event-pop time, never schedules events, and never
/// draws from an RNG, so a run with a sink attached reports
/// byte-identically to an uninstrumented run.
///
/// The cadence contract mirrors [`MetricsRecorder`]: the engine calls
/// [`MonitorSink::due`] at each event pop and, when true,
/// [`MonitorSink::advance`] (which returns the sample stamp — the
/// largest cadence boundary at or before `now`), then [`MonitorSink::record`]
/// for each gauge series, then [`MonitorSink::close_sample`] to fold
/// the finished interval. Completions stream in between folds through
/// [`MonitorSink::observe_latency`] / [`MonitorSink::observe_service`];
/// [`MonitorSink::finish`] closes the final partial interval.
pub trait MonitorSink: std::fmt::Debug {
    /// True when `now_ms` has reached the next cadence boundary.
    fn due(&self, now_ms: f64) -> bool;
    /// Advance the cadence past `now_ms`, returning the sample stamp.
    fn advance(&mut self, now_ms: f64) -> f64;
    /// Record one gauge value for the sample being assembled.
    fn record(&mut self, series: &str, value: f64);
    /// Fold the assembled sample (gauges plus streamed completions)
    /// at stamp `t_ms`.
    fn close_sample(&mut self, t_ms: f64);
    /// One served request's end-to-end latency against its SLO.
    fn observe_latency(&mut self, tenant: &str, latency_ms: f64, slo_ms: f64);
    /// One completed batch's per-request service time on a die,
    /// weighted by its `completions` count.
    fn observe_service(
        &mut self,
        tenant: &str,
        host: usize,
        die: usize,
        service_ms: f64,
        completions: usize,
    );
    /// End of run: fold the final partial interval.
    fn finish(&mut self);
    /// Downcast support so a CLI can recover the concrete monitor.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// The per-run instrument set threaded through an engine. Fields are
/// `None` when the corresponding instrument is off; engines check each
/// with a single branch.
#[derive(Debug, Default)]
pub struct RunTelemetry {
    /// Span recorder for the Chrome trace (fleet-level events land
    /// here; per-host spans are recorded by [`HostProbe`]s and absorbed
    /// at end of run).
    pub tracer: Option<Tracer>,
    /// Cadence sampler for the time-series probes.
    pub metrics: Option<MetricsRecorder>,
    /// Engine self-profile, filled in at end of run.
    pub profile: Option<EngineProfile>,
    /// Per-request record stream (host [`RequestProbe`]s are absorbed
    /// here at end of run, in host-index order).
    pub requests: Option<RequestLog>,
    /// Streaming health monitor (attached by the CLIs behind
    /// `--monitor`; not part of [`TelemetryConfig`]).
    pub monitor: Option<Box<dyn MonitorSink>>,
}

impl RunTelemetry {
    /// Record nothing — what the uninstrumented entry points pass.
    pub fn off() -> Self {
        Self::default()
    }

    /// Allocate instruments per `cfg`.
    pub fn from_config(cfg: &TelemetryConfig) -> Self {
        Self {
            tracer: cfg.trace.then(Tracer::new),
            metrics: cfg.metrics.as_ref().map(MetricsRecorder::new),
            profile: cfg.profile.then(EngineProfile::new),
            requests: cfg.requests.then(RequestLog::new),
            monitor: None,
        }
    }

    /// True if any instrument is live.
    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
            || self.metrics.is_some()
            || self.profile.is_some()
            || self.requests.is_some()
            || self.monitor.is_some()
    }

    /// The cadence hook, called at every event pop: when the metrics
    /// recorder or the monitor has reached its next sample boundary,
    /// `gauges` emits the engine's gauge series into it. One emitter
    /// feeds both, so an offline monitor replay from the metrics
    /// artifact sees exactly the values the online monitor saw.
    #[inline]
    pub fn sample(&mut self, now_ms: f64, gauges: impl Fn(&mut dyn FnMut(String, f64))) {
        if let Some(m) = self.metrics.as_mut() {
            if m.due(now_ms) {
                let t = m.advance(now_ms);
                gauges(&mut |name, v| m.record(&name, t, v));
            }
        }
        if let Some(mon) = self.monitor.as_mut() {
            if mon.due(now_ms) {
                let t = mon.advance(now_ms);
                gauges(&mut |name, v| mon.record(&name, v));
                mon.close_sample(t);
            }
        }
    }

    /// The completed-batch hook: one batch of `tenant` finished on
    /// `(host, die)`, committing `latencies` (one per request) after
    /// `service_ms` of per-request service. Feeds the tenant's metrics
    /// latency sketch and the monitor.
    #[inline]
    pub fn observe_batch(
        &mut self,
        tenant: &str,
        slo_ms: f64,
        host: usize,
        die: usize,
        latencies: &[f64],
        service_ms: f64,
    ) {
        if let Some(m) = self.metrics.as_mut() {
            let series = format!("latency/{tenant}");
            for &l in latencies {
                m.observe(&series, l);
            }
        }
        if let Some(mon) = self.monitor.as_mut() {
            for &l in latencies {
                mon.observe_latency(tenant, l, slo_ms);
            }
            mon.observe_service(tenant, host, die, service_ms, latencies.len());
        }
    }

    /// The end-of-run hook: absorb each host's trace and request probes
    /// in host-index order, then the `front_end` trace track; flush the
    /// metrics recorder's final partial interval at `makespan_ms`; close
    /// the monitor; and fill the engine profile with `event_counts` and
    /// the `wheel` statistics (read only when profiling).
    pub fn finish_run(
        &mut self,
        host_probes: impl IntoIterator<Item = (Option<HostProbe>, Option<RequestProbe>)>,
        front_end: Option<HostProbe>,
        makespan_ms: f64,
        event_counts: impl IntoIterator<Item = (&'static str, u64)>,
        wheel: impl FnOnce() -> Option<WheelProfile>,
    ) {
        for (trace, requests) in host_probes {
            if let (Some(tr), Some(p)) = (self.tracer.as_mut(), trace) {
                tr.absorb(p.into_tracer());
            }
            if let (Some(log), Some(p)) = (self.requests.as_mut(), requests) {
                log.absorb(p);
            }
        }
        if let (Some(tr), Some(p)) = (self.tracer.as_mut(), front_end) {
            tr.absorb(p.into_tracer());
        }
        if let Some(m) = self.metrics.as_mut() {
            m.flush_sketches(makespan_ms);
        }
        if let Some(mon) = self.monitor.as_mut() {
            mon.finish();
        }
        if let Some(p) = self.profile.as_mut() {
            p.event_counts = event_counts
                .into_iter()
                .map(|(n, c)| (n.to_string(), c))
                .collect();
            p.wheel = wheel();
        }
    }

    /// Hand every recorded artifact to `sink`, tagged with the run
    /// `label`.
    pub fn emit(&self, label: &str, sink: &mut dyn TelemetrySink) {
        if let Some(t) = &self.tracer {
            sink.on_trace(label, t);
        }
        if let Some(m) = &self.metrics {
            sink.on_metrics(label, m);
        }
        if let Some(p) = &self.profile {
            sink.on_profile(label, p);
        }
        if let Some(r) = &self.requests {
            sink.on_requests(label, r);
        }
    }
}

/// Receives a run's artifacts. Every method defaults to a no-op so a
/// sink implements only what it consumes.
pub trait TelemetrySink {
    /// Called once per run with the completed trace.
    fn on_trace(&mut self, _label: &str, _tracer: &Tracer) {}
    /// Called once per run with the sampled series.
    fn on_metrics(&mut self, _label: &str, _metrics: &MetricsRecorder) {}
    /// Called once per run with the engine profile.
    fn on_profile(&mut self, _label: &str, _profile: &EngineProfile) {}
    /// Called once per run with the request log.
    fn on_requests(&mut self, _label: &str, _log: &RequestLog) {}
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_allocates_nothing() {
        let t = RunTelemetry::from_config(&TelemetryConfig::off());
        assert!(!t.enabled());
        assert!(t.tracer.is_none() && t.metrics.is_none() && t.profile.is_none());
        assert!(t.requests.is_none());
    }

    #[test]
    fn full_config_allocates_every_instrument() {
        let cfg = TelemetryConfig {
            trace: true,
            metrics: Some(MetricsConfig::default()),
            profile: true,
            requests: true,
        };
        assert!(cfg.enabled());
        let t = RunTelemetry::from_config(&cfg);
        assert!(t.tracer.is_some() && t.metrics.is_some() && t.profile.is_some());
        assert!(t.requests.is_some());
    }

    #[test]
    fn emit_routes_each_instrument_to_the_sink() {
        #[derive(Default)]
        struct Counting {
            traces: usize,
            metrics: usize,
            profiles: usize,
            requests: usize,
        }
        impl TelemetrySink for Counting {
            fn on_trace(&mut self, label: &str, _t: &Tracer) {
                assert_eq!(label, "run-a");
                self.traces += 1;
            }
            fn on_metrics(&mut self, _label: &str, _m: &MetricsRecorder) {
                self.metrics += 1;
            }
            fn on_profile(&mut self, _label: &str, _p: &EngineProfile) {
                self.profiles += 1;
            }
            fn on_requests(&mut self, _label: &str, _r: &RequestLog) {
                self.requests += 1;
            }
        }
        let cfg = TelemetryConfig {
            trace: true,
            metrics: Some(MetricsConfig::default()),
            profile: true,
            requests: true,
        };
        let t = RunTelemetry::from_config(&cfg);
        let mut sink = Counting::default();
        t.emit("run-a", &mut sink);
        assert_eq!(
            (sink.traces, sink.metrics, sink.profiles, sink.requests),
            (1, 1, 1, 1)
        );
        RunTelemetry::off().emit("run-a", &mut NoopSink);
    }
}

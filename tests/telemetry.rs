//! The observability contract, end to end:
//!
//! * **Off is free and invisible** — the golden-snapshot suite
//!   (`tests/golden_scheduler.rs`) already pins every scenario report
//!   byte-for-byte with telemetry off; here we pin the other half of
//!   the contract:
//! * **On is inert** — instrumented runs report bit-identically to
//!   uninstrumented ones (the instruments observe, never perturb);
//! * **On is deterministic** — two same-seed runs emit bit-identical
//!   Chrome-trace and metrics artifacts (proptest over seeds);
//! * **Spans agree with counters** — in `colocate-interference`, the
//!   per-tenant WeightSwap span totals recorded by the host probes
//!   match the report's swap-stall columns to float round-off;
//! * **The wheel profile pins the queue's shape** — on a 1000-host
//!   fleet the bottom rung stays near the split threshold.

use proptest::prelude::*;
use tpu_repro::tpu_cluster;
use tpu_repro::tpu_core::TpuConfig;
use tpu_repro::tpu_serve;
use tpu_repro::tpu_serve::sim::RUNG_SPILL_THRESHOLD;
use tpu_repro::tpu_telemetry::{EngineProfile, MetricsConfig, RunTelemetry, TelemetryConfig};

/// The golden scale: small enough to be fast, large enough to batch,
/// swap, and retry.
const SCALE: f64 = 0.05;

fn full_config() -> TelemetryConfig {
    TelemetryConfig {
        trace: true,
        metrics: Some(MetricsConfig::default()),
        requests: true,
        profile: true,
    }
}

fn telemetry_for(runs: usize) -> Vec<RunTelemetry> {
    (0..runs)
        .map(|_| RunTelemetry::from_config(&full_config()))
        .collect()
}

#[test]
fn serve_reports_are_identical_with_instruments_on() {
    let cfg = TpuConfig::paper();
    for name in ["mixed-tenants", "mlp0-burst"] {
        let s = tpu_serve::scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(SCALE);
        let bare = s.execute(&cfg);
        let mut tels = telemetry_for(s.runs.len());
        let instrumented = s.execute_telemetry(&cfg, &mut tels);
        assert_eq!(bare, instrumented, "{name}: instruments perturbed the run");
        for (i, t) in tels.iter().enumerate() {
            let tracer = t.tracer.as_ref().expect("trace on");
            let requests: u64 = instrumented[i]
                .1
                .tenants
                .iter()
                .map(|r| r.requests as u64)
                .sum();
            let spans = tracer
                .summary()
                .iter()
                .filter(|r| r.cat == "request")
                .map(|r| r.count)
                .sum::<u64>();
            assert_eq!(spans, requests, "{name}: one request span per request");
            let profile = t.profile.as_ref().expect("profile on");
            assert_eq!(
                profile.total_events(),
                instrumented[i].1.events_processed,
                "{name}: profile event counts must sum to events_processed"
            );
        }
    }
}

#[test]
fn fleet_reports_are_identical_with_instruments_on() {
    let cfg = TpuConfig::paper();
    for name in ["fleet-steady", "host-failover", "colocate-interference"] {
        let s = tpu_cluster::scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(SCALE);
        let bare = s.execute(&cfg);
        let mut tels = telemetry_for(s.runs.len());
        let instrumented = s.execute_telemetry(&cfg, &mut tels);
        assert_eq!(
            bare.len(),
            instrumented.len(),
            "{name}: run count must match"
        );
        for ((label, b), (_, i)) in bare.iter().zip(&instrumented) {
            assert_eq!(b, i, "{name}/{label}: instruments perturbed the run");
        }
        for (t, (label, run)) in tels.iter().zip(&instrumented) {
            let profile = t.profile.as_ref().expect("profile on");
            assert_eq!(
                profile.total_events(),
                run.report.events_processed,
                "{name}/{label}: profile event counts must sum to events_processed"
            );
            assert!(
                profile.wheel.as_ref().is_some_and(|w| w.advances > 0),
                "{name}/{label}: the wheel profile must show activity"
            );
        }
    }
}

/// A 1000-host fleet keeps tens of thousands of in-hop deliveries
/// pending, and a timer-wheel slot can hold most of them. Drained
/// whole, such a slot would make a bottom rung of ~15k entries at this
/// scale, and every delivery scheduled inside its key range would
/// sorted-insert across it; `advance` splits it first, so the rung
/// stays near the threshold. The profile forces the single engine,
/// where the whole fleet shares one queue.
#[test]
fn thousand_host_sweep_splits_slots_and_bounds_the_rung() {
    let cfg = TpuConfig::paper();
    let s = tpu_cluster::fleet_sweep(1000).scale_requests(SCALE);
    let r = &s.runs[0];
    let mut tel = RunTelemetry {
        profile: Some(EngineProfile::new()),
        ..RunTelemetry::off()
    };
    tpu_cluster::run_fleet_telemetry(&r.spec, &r.tenants, &cfg, &mut tel);
    let wheel = tel
        .profile
        .and_then(|p| p.wheel)
        .expect("the single engine runs on the wheel");
    assert!(wheel.splits > 0, "no slot was split: {wheel:?}");
    assert!(
        wheel.max_rung <= 2 * RUNG_SPILL_THRESHOLD,
        "bottom rung reached {} entries",
        wheel.max_rung
    );
}

#[test]
fn colocate_swap_spans_match_report_counters() {
    let cfg = TpuConfig::paper();
    let s = tpu_cluster::scenario_by_name("colocate-interference")
        .expect("scenario exists")
        .scale_requests(SCALE);
    let mut tels = telemetry_for(s.runs.len());
    let results = s.execute_telemetry(&cfg, &mut tels);
    for ((label, run), tel) in results.iter().zip(&tels) {
        let summary = tel.tracer.as_ref().expect("trace on").summary();
        let mut saw_swaps = false;
        for tr in &run.report.tenants {
            let row = summary
                .iter()
                .find(|r| r.cat == "swap" && r.name == tr.name);
            let (span_count, span_ms) = row
                .map(|r| (r.count as usize, r.total_ms))
                .unwrap_or((0, 0.0));
            assert_eq!(
                span_count, tr.swaps,
                "{label}/{}: swap span count vs report swaps",
                tr.name
            );
            assert!(
                (span_ms - tr.swap_ms).abs() < 1e-6,
                "{label}/{}: swap span total {span_ms} != report swap_ms {}",
                tr.name,
                tr.swap_ms
            );
            saw_swaps |= tr.swaps > 0;
        }
        assert!(saw_swaps, "{label}: the co-located scenario must swap");
    }
}

/// Render every artifact an instrumented scenario run produces, as the
/// CLIs would write them.
fn artifacts(seed: u64) -> Vec<String> {
    let cfg = TpuConfig::paper();
    let s = tpu_serve::scenario_by_name("mlp0-burst")
        .expect("scenario exists")
        .with_seed(seed)
        .scale_requests(0.02);
    let mut tels = telemetry_for(s.runs.len());
    s.execute_telemetry(&cfg, &mut tels);
    let mut out = Vec::new();
    for t in &tels {
        let tracer = t.tracer.as_ref().expect("trace on");
        let trace_text = tracer.render();
        serde_json::from_str(&trace_text).expect("chrome trace parses");
        out.push(trace_text);
        let m = t.metrics.as_ref().expect("metrics on");
        out.push(m.to_csv());
        let metrics_text = serde_json::to_string_pretty(&m.to_json());
        serde_json::from_str(&metrics_text).expect("metrics JSON parses");
        out.push(metrics_text);
        let log = t.requests.as_ref().expect("request log on");
        let log_text = log.render();
        tpu_repro::tpu_telemetry::RequestLog::parse(&log_text).expect("request log parses");
        out.push(log_text);
        out.push(t.profile.as_ref().expect("profile on").lines().join("\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_seed_runs_emit_bit_identical_artifacts(seed in 0u64..1_000_000) {
        prop_assert_eq!(artifacts(seed), artifacts(seed));
    }
}

//! Scheduler-swap parity: every `tpu_serve` and `tpu_cluster` scenario
//! report — text *and* JSON — is pinned byte-for-byte against snapshots
//! generated by the **pre-wheel** binaries (BinaryHeap event queue,
//! scan-based router) under `tests/golden_scheduler/`.
//!
//! Together with the wheel-vs-heap differential proptest
//! (`crates/serve/tests/event_queue_props.rs`) these snapshots are the
//! proof that replacing the future-event list with the hierarchical
//! timer wheel and the router with the delta-maintained index changed
//! no observable behaviour: pops stayed exactly `(time, sequence)`
//! ordered and routing decisions identical, so every seeded report is
//! unchanged to the last byte.
//!
//! The snapshots are deliberately *not* regenerable by an env flag:
//! they memorialize pre-refactor output. If a future PR intentionally
//! changes report content, regenerate them with the CLI (scale 0.05,
//! default seeds) and say so in the PR. Scenarios introduced *after*
//! the wheel swap (`colocate-interference`, `colocate-vs-dedicated`,
//! added with the weight-memory subsystem) are pinned by snapshots
//! generated at their introduction — same scale, same seeds — so they
//! too are frozen bit for bit from birth.

use std::path::PathBuf;
use tpu_repro::tpu_core::TpuConfig;

const SCALE: f64 = 0.05;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_scheduler")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"))
}

/// Render a serve scenario exactly as `tpu_serve run` does.
fn render_serve(name: &str, json: bool) -> String {
    let cfg = TpuConfig::paper();
    let s = tpu_repro::tpu_serve::scenario_by_name(name)
        .expect("scenario exists")
        .scale_requests(SCALE);
    let mut out = format!("== {} — {}\n", s.name, s.description);
    for (label, report) in s.execute(&cfg) {
        if json {
            out.push_str(&format!(
                "\n-- {label}\n{}\n",
                serde_json::to_string_pretty(&report.to_json())
            ));
        } else {
            out.push_str(&format!("\n-- {label}\n{report}"));
        }
    }
    out.push('\n');
    out
}

/// Render a fleet scenario at `scale` exactly as `tpu_cluster run` does.
fn render_cluster(name: &str, scale: f64, json: bool) -> String {
    let cfg = TpuConfig::paper();
    let s = tpu_repro::tpu_cluster::scenario_by_name(name)
        .expect("scenario exists")
        .scale_requests(scale);
    let mut out = format!("== {} — {}\n", s.name, s.description);
    for (label, run) in s.execute(&cfg) {
        if json {
            out.push_str(&format!(
                "\n-- {label}\n{}\n",
                serde_json::to_string_pretty(&run.report.to_json())
            ));
        } else {
            out.push_str(&format!("\n-- {label}\n{}", run.report));
        }
    }
    out.push('\n');
    out
}

#[test]
fn every_serve_scenario_matches_its_pre_wheel_snapshot() {
    for s in tpu_repro::tpu_serve::all_scenarios() {
        assert_eq!(
            render_serve(s.name, false),
            golden(&format!("serve_{}_s{SCALE}.txt", s.name)),
            "{} text drifted from the pre-wheel report",
            s.name
        );
        assert_eq!(
            render_serve(s.name, true),
            golden(&format!("serve_{}_s{SCALE}.json", s.name)),
            "{} JSON drifted from the pre-wheel report",
            s.name
        );
    }
}

/// `rack-outage` is the only scenario that hedges, and its report at
/// the golden scale is the same whether or not the hedge delay tracks
/// the completion window. At scale 0.2 a stale delay moves the median
/// and the throughput, so one more snapshot there pins the delay's
/// value.
const HEDGE_SCALE: f64 = 0.2;

/// Every cluster scenario at the golden scale, plus `rack-outage` at
/// [`HEDGE_SCALE`].
fn cluster_snapshots() -> Vec<(&'static str, f64)> {
    let mut runs: Vec<(&'static str, f64)> = tpu_repro::tpu_cluster::all_scenarios()
        .iter()
        .map(|s| (s.name, SCALE))
        .collect();
    runs.push(("rack-outage", HEDGE_SCALE));
    runs
}

#[test]
fn every_cluster_scenario_matches_its_pre_wheel_snapshot() {
    for (name, scale) in cluster_snapshots() {
        assert_eq!(
            render_cluster(name, scale, false),
            golden(&format!("cluster_{name}_s{scale}.txt")),
            "{name} text drifted from the pre-wheel report"
        );
        assert_eq!(
            render_cluster(name, scale, true),
            golden(&format!("cluster_{name}_s{scale}.json")),
            "{name} JSON drifted from the pre-wheel report"
        );
    }
}

/// No orphaned snapshots: every file under `tests/golden_scheduler/`
/// belongs to a live scenario at a pinned scale.
#[test]
fn golden_scheduler_dir_has_no_stale_snapshots() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_scheduler");
    let mut expected: Vec<String> = Vec::new();
    for s in tpu_repro::tpu_serve::all_scenarios() {
        expected.push(format!("serve_{}_s{SCALE}.txt", s.name));
        expected.push(format!("serve_{}_s{SCALE}.json", s.name));
    }
    for (name, scale) in cluster_snapshots() {
        expected.push(format!("cluster_{name}_s{scale}.txt"));
        expected.push(format!("cluster_{name}_s{scale}.json"));
    }
    for entry in std::fs::read_dir(&dir).expect("golden dir exists") {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_string_lossy().to_string();
        assert!(
            expected.contains(&name),
            "stale snapshot {name} has no matching scenario"
        );
    }
}

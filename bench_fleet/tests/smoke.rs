//! Every workload's inputs at about 1% scale, asserting that the
//! mechanism each workload exists to exercise really runs, plus the
//! span self-time arithmetic on hand-built span trees.

use bench_fleet::check::conservation;
use bench_fleet::layers::components;
use bench_fleet::spans::{self_times, Span, Spans};
use bench_fleet::workload::{simulate, Observed, Outcome, Size, Workload};
use tpu_cluster::FleetRun;
use tpu_core::TpuConfig;

/// Build and run `w` at smoke size with its own instruments, checking
/// served + dropped + shed == offered on the way.
fn smoke(w: Workload) -> (Outcome, Observed) {
    let inputs = w.inputs(42, Size::Smoke);
    let (outcome, observed) = simulate(&inputs, &TpuConfig::paper(), w.instruments());
    conservation(&inputs, &outcome).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    (outcome, observed)
}

fn fleet(outcome: &Outcome) -> &FleetRun {
    match outcome {
        Outcome::Fleet(run) => run,
        Outcome::Serve(_) => panic!("expected a fleet run"),
    }
}

fn fleet_components(run: &FleetRun) -> usize {
    components(run.report.hosts.len(), &run.placement.assignments)
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("mlp0-10k"), None);
}

#[test]
fn colocate_makes_weight_swaps() {
    let (outcome, _) = smoke(Workload::Colocate100);
    let swaps: usize = fleet(&outcome).report.tenants.iter().map(|t| t.swaps).sum();
    assert!(swaps > 0, "co-located tenants must swap weights");
}

#[test]
fn outage_cells_retry_shed_and_split() {
    let (outcome, _) = smoke(Workload::OutageCells960);
    let run = fleet(&outcome);
    let retries: usize = run.report.tenants.iter().map(|t| t.retries).sum();
    let shed: usize = run.report.tenants.iter().map(|t| t.shed).sum();
    assert!(retries > 0, "rack outages must displace work into retries");
    assert!(shed > 0, "brownout must shed bulk traffic");
    assert!(
        fleet_components(run) >= 2,
        "cells must be independent components"
    );
}

#[test]
fn mlp0_fleet_is_one_component() {
    let (outcome, _) = smoke(Workload::Mlp0_1k);
    assert_eq!(fleet_components(fleet(&outcome)), 1);
}

#[test]
fn observed_workload_monitor_folds() {
    let (outcome, observed) = smoke(Workload::Mlp0_100Observed);
    let monitor = observed
        .monitor
        .expect("the observed workload carries a monitor");
    assert!(monitor.folds() > 0, "the monitor must fold cadence samples");
    assert!(observed.metrics.is_some() && observed.reqlog.is_some());
    // Instruments observe only: the report equals the bare run's.
    let (bare, _) = smoke(Workload::Mlp0_100);
    assert_eq!(outcome, bare);
}

#[test]
fn serve_mix_has_six_tenants() {
    let (outcome, _) = smoke(Workload::ServeMix);
    match outcome {
        Outcome::Serve(report) => assert_eq!(report.tenants.len(), 6),
        Outcome::Fleet(_) => panic!("serve-mix runs on tpu_serve"),
    }
}

#[test]
fn components_count_tenant_host_graph_pieces() {
    // Tenant 0 on hosts {0,1}, tenant 1 on {2,3}, tenant 2 on {3,4};
    // host 5 has no replica and rides with host 0.
    let plan = vec![vec![0, 1], vec![2, 3], vec![3, 4]];
    assert_eq!(components(6, &plan), 2);
    assert_eq!(components(2, &[vec![0, 1]]), 1);
}

fn span(start_ns: u64, dur_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        layer: "test",
        start_ns,
        dur_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_direct_children() {
    // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
    let tree = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(50, 20, Some(0)),
        span(15, 10, Some(1)),
    ];
    assert_eq!(self_times(&tree), vec![50, 20, 20, 10]);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Children [0,10) and [5,15) overlap; [18,30) runs past the
    // parent's end at 20 and is clipped.
    let tree = [
        span(0, 20, None),
        span(0, 10, Some(0)),
        span(5, 10, Some(0)),
        span(18, 12, Some(0)),
    ];
    assert_eq!(self_times(&tree)[0], 3);
}

#[test]
fn recorder_nests_spans_and_off_records_nothing() {
    let mut spans = Spans::new();
    let v = spans.span("outer", "test", |s| s.span("inner", "test", |_| 7));
    assert_eq!(v, 7);
    let recorded = spans.spans();
    assert_eq!(recorded.len(), 2);
    assert_eq!((recorded[0].name, recorded[0].parent), ("outer", None));
    assert_eq!((recorded[1].name, recorded[1].parent), ("inner", Some(0)));
    assert!(recorded[1].dur_ns <= recorded[0].dur_ns);
    let json = spans.to_chrome_json(serde_json::Value::Null);
    assert!(serde_json::from_str(&json).is_ok());

    let mut off = Spans::off();
    assert_eq!(off.span("outer", "test", |_| 1), 1);
    assert!(off.spans().is_empty());
}

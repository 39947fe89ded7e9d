//! Differential tests for the sharded parallel fleet engine: for every
//! eligible spec, the multi-core engine must reproduce the
//! single-threaded reference **byte for byte** — struct equality, text
//! report, and JSON — at every worker count. Each run names its engine
//! through `run_fleet_on`, so tests running side by side cannot change
//! each other's engine.

use tpu_repro::tpu_cluster::{
    fleet_sweep, run_fleet_on, scenario_by_name, FailureEvent, FleetEngine, FleetRun, FleetSpec,
    FleetTenantSpec, HopModel, RouterPolicy,
};
use tpu_repro::tpu_core::TpuConfig;
use tpu_repro::tpu_serve::tenant::ArrivalProcess;
use tpu_repro::tpu_serve::{BatchPolicy, TenantSpec};

fn assert_bit_identical(reference: &FleetRun, candidate: &FleetRun, what: &str) {
    assert_eq!(
        format!("{}", reference.report),
        format!("{}", candidate.report),
        "{what}: text report differs from the single-threaded reference"
    );
    assert_eq!(
        reference.report.to_json().to_string(),
        candidate.report.to_json().to_string(),
        "{what}: JSON report differs from the single-threaded reference"
    );
    assert_eq!(
        reference, candidate,
        "{what}: run structs differ from the single-threaded reference"
    );
}

/// The flagship shape: the `fleet-sweep` scenario's disjoint 10-host
/// cells, with its crash/recover schedule — 4 cells at 1, 2, and 7
/// workers, and 100 cells (1000 hosts) at 1, 3, and 8.
#[test]
fn fleet_sweep_sharded_replays_the_single_reference_bit_for_bit() {
    let cfg = TpuConfig::paper();
    let inputs: [(usize, f64, &[usize]); 2] = [(40, 0.1, &[1, 2, 7]), (1000, 0.05, &[1, 3, 8])];
    for (hosts, scale, worker_counts) in inputs {
        let s = fleet_sweep(hosts).scale_requests(scale);
        let r = &s.runs[0];
        let reference = run_fleet_on(&r.spec, &r.tenants, &cfg, FleetEngine::Single);
        for &workers in worker_counts {
            let sharded = run_fleet_on(&r.spec, &r.tenants, &cfg, FleetEngine::Sharded { workers });
            assert_bit_identical(
                &reference,
                &sharded,
                &format!("{hosts} hosts, {workers} workers"),
            );
        }
    }
}

/// A hand-built fleet where spread placement *merges* cells: tenants
/// 0/1/2 claim three disjoint 3-host cells, then tenant 3's six
/// replicas bridge the first two — leaving two components of uneven
/// weight, mixed arrival shapes, and failures in both.
#[test]
fn bridged_cells_with_failures_and_mixed_tenants_match_the_reference() {
    let cfg = TpuConfig::paper();
    let spec = FleetSpec::new(9, 2, 7)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(vec![
            FailureEvent::crash(0.8, 1),
            FailureEvent::crash(1.0, 7),
            FailureEvent::recover(2.5, 1),
            FailureEvent::recover(3.0, 7),
        ]);
    let tenants = vec![
        FleetTenantSpec::new(
            TenantSpec::new(
                "MLP0",
                ArrivalProcess::Poisson {
                    rate_rps: 400_000.0,
                },
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 2.0,
                },
                7.0,
                3_000,
            ),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "LSTM0",
                ArrivalProcess::Bursty {
                    rate_rps: 20_000.0,
                    burst_factor: 3.0,
                    period_ms: 5.0,
                    duty: 0.25,
                },
                BatchPolicy::SloAdaptive {
                    max_batch: 64,
                    slo_ms: 50.0,
                    margin_ms: 5.0,
                },
                50.0,
                400,
            )
            .named("LSTM0-cellB"),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "CNN0",
                ArrivalProcess::Poisson { rate_rps: 4_000.0 },
                BatchPolicy::Fixed { batch: 8 },
                30.0,
                200,
            ),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "MLP1",
                ArrivalProcess::Poisson {
                    rate_rps: 300_000.0,
                },
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 2.0,
                },
                7.0,
                2_000,
            )
            .named("MLP1-bridge"),
            6,
        ),
    ];
    let reference = run_fleet_on(&spec, &tenants, &cfg, FleetEngine::Single);
    for workers in [2usize, 5] {
        let sharded = run_fleet_on(&spec, &tenants, &cfg, FleetEngine::Sharded { workers });
        assert_bit_identical(&reference, &sharded, &format!("{workers} workers"));
    }
}

/// Ineligible specs (autoscaled, or a single component) silently fall
/// back to the reference even when sharding is forced — same bytes,
/// no panic.
#[test]
fn ineligible_specs_fall_back_to_the_reference() {
    let cfg = TpuConfig::paper();
    let s = scenario_by_name("diurnal-autoscale")
        .expect("scenario exists")
        .scale_requests(0.05);
    let sharded = FleetEngine::Sharded { workers: 4 };
    let r = &s.runs[0];
    let reference = run_fleet_on(&r.spec, &r.tenants, &cfg, FleetEngine::Single);
    let forced = run_fleet_on(&r.spec, &r.tenants, &cfg, sharded);
    assert_bit_identical(&reference, &forced, "autoscaled spec");

    let one = scenario_by_name("fleet-steady")
        .expect("scenario exists")
        .scale_requests(0.05);
    let r = &one.runs[0];
    let reference = run_fleet_on(&r.spec, &r.tenants, &cfg, FleetEngine::Single);
    let forced = run_fleet_on(&r.spec, &r.tenants, &cfg, sharded);
    assert_bit_identical(&reference, &forced, "single-component spec");
}

/// The swap-affinity warm-set index must route identically to the
/// O(replicas) scan it replaced. Debug builds check every indexed pick
/// against that scan, with warmth read live from the hosts, so these
/// runs of both colocate scenarios — which exercise
/// `RouterPolicy::SwapAware` end to end — panic on the first pick where
/// the two differ.
#[test]
fn swap_affinity_warm_index_matches_the_scan_router_bit_for_bit() {
    let cfg = TpuConfig::paper();
    for name in ["colocate-interference", "colocate-vs-dedicated"] {
        let s = scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(0.2);
        assert!(
            s.runs
                .iter()
                .any(|r| r.spec.router == RouterPolicy::SwapAware),
            "{name} routes swap-aware"
        );
        for (label, run) in s.execute(&cfg) {
            for t in &run.report.tenants {
                assert_eq!(
                    t.requests, t.offered,
                    "{name}/{label}: {} lost work",
                    t.name
                );
            }
        }
    }
}

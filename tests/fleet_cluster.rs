//! Cross-crate tests of the fleet simulator: exact 1-host equivalence
//! with `tpu_serve`, pinned failover SLO attainment, straggler and
//! router behaviour, and bit-exact determinism of the fleet report.

use tpu_repro::tpu_cluster::{
    run_fleet, scenario_by_name, FailureEvent, FleetSpec, FleetTenantSpec, HopModel, RouterPolicy,
};
use tpu_repro::tpu_core::TpuConfig;
use tpu_repro::tpu_serve::tenant::ArrivalProcess;
use tpu_repro::tpu_serve::{
    run, BatchPolicy, ClusterSpec, Dispatch, ServeReport, ServiceCurve, TenantSpec,
};

fn serve_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(
            "MLP0",
            ArrivalProcess::Poisson {
                rate_rps: 120_000.0,
            },
            BatchPolicy::Timeout {
                max_batch: 200,
                t_max_ms: 2.0,
            },
            7.0,
            20_000,
        ),
        TenantSpec::new(
            "LSTM0",
            ArrivalProcess::Bursty {
                rate_rps: 10_000.0,
                burst_factor: 3.0,
                period_ms: 25.0,
                duty: 0.25,
            },
            BatchPolicy::SloAdaptive {
                max_batch: 64,
                slo_ms: 50.0,
                margin_ms: 5.0,
            },
            50.0,
            4_000,
        ),
        TenantSpec::new(
            "CNN0",
            ArrivalProcess::Poisson { rate_rps: 2_000.0 },
            BatchPolicy::Fixed { batch: 8 },
            30.0,
            1_000,
        )
        .with_curve(ServiceCurve::new(1.0, 0.05, 0.2)),
    ]
}

/// The acceptance anchor: a 1-host, 1-replica fleet with zero-cost
/// hops replays `tpu_serve::run` exactly — same event sequence, same
/// seeded streams, bit-identical report (struct, text, and JSON). The
/// inputs are three die/dispatch/seed configurations of one mix, then
/// every run of every `tpu_serve` scenario at the golden scale (priority
/// mixes, bursty streams, fixed, timeout and SLO-adaptive batching,
/// both dispatch rules): the delivery order a single fleet loop must
/// keep to stand in for the serve loop.
#[test]
fn one_host_fleet_reproduces_tpu_serve_exactly() {
    let mut inputs: Vec<(String, ClusterSpec, Vec<TenantSpec>)> = [
        (1usize, Dispatch::LeastLoaded, 42u64),
        (3, Dispatch::LeastLoaded, 7),
        (2, Dispatch::RoundRobin, 1234),
    ]
    .into_iter()
    .map(|(dies, dispatch, seed)| {
        let cluster = ClusterSpec::new(dies, seed).with_dispatch(dispatch);
        (format!("dies={dies} seed={seed}"), cluster, serve_tenants())
    })
    .collect();
    for s in tpu_repro::tpu_serve::all_scenarios() {
        let s = s.scale_requests(0.05);
        for r in s.runs {
            inputs.push((format!("{} / {}", s.name, r.label), r.cluster, r.tenants));
        }
    }
    assert_eq!(inputs.len(), 3 + 15, "every serve scenario run is an input");
    let cfg = TpuConfig::paper();
    for (label, cluster, tenants) in inputs {
        let serve_report = run(&cluster, &tenants, &cfg);

        let mut fleet = FleetSpec::new(1, cluster.dies, cluster.seed).with_hop(HopModel::None);
        fleet.hosts[0].dispatch = cluster.dispatch;
        let fleet_tenants: Vec<FleetTenantSpec> = tenants
            .iter()
            .map(|t| FleetTenantSpec::new(t.clone(), 1))
            .collect();
        let fleet_run = run_fleet(&fleet, &fleet_tenants, &cfg);

        let host0 = &fleet_run.host_reports[0];
        assert_eq!(host0, &serve_report, "{label}: structural equality");
        assert_eq!(
            format!("{host0}"),
            format!("{serve_report}"),
            "{label}: text report must be bit-identical"
        );
        assert_eq!(
            ServeReport::to_json(host0).to_string(),
            ServeReport::to_json(&serve_report).to_string(),
            "{label}: JSON report must be bit-identical"
        );
    }
}

/// Same seed ⇒ bit-identical fleet report, across every subsystem at
/// once: hops, routing, autoscaling, crash + recovery, straggler.
#[test]
fn fleet_reports_are_bit_identical_for_a_fixed_seed() {
    let cfg = TpuConfig::paper();
    let mk = || {
        let spec = FleetSpec::new(3, 2, 99)
            .with_router(RouterPolicy::ConsistentHash {
                vnodes: 8,
                bound: 1.5,
            })
            .with_hop(HopModel::Table5 { scale_ms: 1.0 })
            .with_autoscale(tpu_repro::tpu_cluster::AutoscaleConfig::reactive())
            .with_failures(vec![
                FailureEvent::crash(20.0, 1),
                FailureEvent::recover(45.0, 1),
            ]);
        let tenants = vec![FleetTenantSpec::new(
            TenantSpec::new(
                "MLP0",
                ArrivalProcess::Poisson {
                    rate_rps: 300_000.0,
                },
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 2.0,
                },
                7.0,
                20_000,
            ),
            2,
        )
        .with_replica_bounds(1, 3)];
        run_fleet(&spec, &tenants, &cfg)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "structurally identical");
    assert_eq!(format!("{}", a.report), format!("{}", b.report));
    assert_eq!(
        a.report.to_json().to_string(),
        b.report.to_json().to_string()
    );
}

/// The pinned failover acceptance: with the fixed seed, host 0 crashes
/// and recovers, every displaced request is retried and served, the
/// report is bit-identical across runs, and SLO attainment stays above
/// the pinned floor for every tenant.
#[test]
fn host_failover_scenario_keeps_slo_attainment_above_pinned_floor() {
    let cfg = TpuConfig::paper();
    let scenario = scenario_by_name("host-failover")
        .expect("scenario exists")
        .scale_requests(0.5);
    let runs_a = scenario.execute(&cfg);
    let runs_b = scenario.execute(&cfg);
    assert_eq!(
        format!("{}", runs_a[0].1.report),
        format!("{}", runs_b[0].1.report),
        "fixed seed must render a bit-identical fleet report"
    );

    let report = &runs_a[0].1.report;
    let crashed: usize = report.hosts.iter().map(|h| h.crashes).sum();
    assert_eq!(crashed, 1, "the schedule crashes host 0 once");
    let retried: usize = report.tenants.iter().map(|t| t.retries).sum();
    assert!(retried > 0, "the crash must displace in-flight work");
    for (t, spec) in report.tenants.iter().zip(&scenario.runs[0].tenants) {
        assert_eq!(
            t.requests, spec.tenant.requests,
            "{}: every request must be served",
            t.name
        );
    }
    for t in &report.tenants {
        assert!(
            t.slo_attainment > 0.90,
            "{}: post-failover attainment {} must stay above the 0.90 floor \
             (p99 {} vs SLO {})",
            t.name,
            t.slo_attainment,
            t.p99_ms,
            t.slo_ms
        );
    }
}

/// An unservable fleet (unrecovered total outage, nowhere to place a
/// replica) must fail loudly even with the autoscaler ticking — the
/// tick loop may not spin forever on permanently parked requests.
#[test]
fn unservable_fleet_panics_even_with_the_autoscaler_enabled() {
    let cfg = TpuConfig::paper();
    let spec = FleetSpec::new(1, 2, 5)
        .with_autoscale(tpu_repro::tpu_cluster::AutoscaleConfig::reactive())
        .with_failures(vec![FailureEvent::crash(5.0, 0)]); // no recovery
    let tenant = TenantSpec::new(
        "MLP0",
        ArrivalProcess::Poisson {
            rate_rps: 100_000.0,
        },
        BatchPolicy::Timeout {
            max_batch: 200,
            t_max_ms: 2.0,
        },
        7.0,
        2_000,
    );
    let result =
        std::panic::catch_unwind(|| run_fleet(&spec, &[FleetTenantSpec::new(tenant, 1)], &cfg));
    let err = result.expect_err("must panic, not hang");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("unservable"), "got: {msg}");
}

/// A crash with zero surviving replicas parks requests until recovery;
/// everything is still served and the retry latency lands in the tail.
#[test]
fn full_outage_parks_requests_until_recovery() {
    let cfg = TpuConfig::paper();
    let spec = FleetSpec::new(1, 2, 5).with_failures(vec![
        FailureEvent::crash(5.0, 0),
        FailureEvent::recover(25.0, 0),
    ]);
    let tenant = TenantSpec::new(
        "MLP0",
        ArrivalProcess::Poisson {
            rate_rps: 100_000.0,
        },
        BatchPolicy::Timeout {
            max_batch: 200,
            t_max_ms: 2.0,
        },
        7.0,
        5_000,
    );
    let run = run_fleet(&spec, &[FleetTenantSpec::new(tenant, 1)], &cfg);
    let t = &run.report.tenants[0];
    assert_eq!(t.requests, 5_000, "every request is eventually served");
    assert!(t.retries > 0, "displaced work is retried");
    assert!(
        t.p99_ms > 15.0,
        "a 20 ms outage must show up in the tail: p99 {}",
        t.p99_ms
    );
}

/// The straggler scenario stretches the tail relative to its baseline
/// run, and the router shoot-out shows load-aware routing beating
/// round-robin under the same straggler.
#[test]
fn stragglers_stretch_the_tail_and_load_aware_routing_contains_it() {
    let cfg = TpuConfig::paper();
    let straggler = scenario_by_name("straggler-tail")
        .expect("scenario exists")
        .scale_requests(0.25);
    let runs = straggler.execute(&cfg);
    let baseline = &runs[0].1.report;
    let slow = &runs[1].1.report;
    assert!(
        slow.tenant("MLP0").unwrap().p99_ms > baseline.tenant("MLP0").unwrap().p99_ms,
        "straggler must stretch the MLP0 tail: {} vs {}",
        slow.tenant("MLP0").unwrap().p99_ms,
        baseline.tenant("MLP0").unwrap().p99_ms
    );

    let shootout = scenario_by_name("router-shootout")
        .expect("scenario exists")
        .scale_requests(0.25);
    let runs = shootout.execute(&cfg);
    let rr = &runs[0].1.report;
    let lor = &runs[1].1.report;
    assert!(
        lor.tenant("MLP0").unwrap().p99_ms <= rr.tenant("MLP0").unwrap().p99_ms,
        "least-outstanding routes around the straggler: lor {} vs rr {}",
        lor.tenant("MLP0").unwrap().p99_ms,
        rr.tenant("MLP0").unwrap().p99_ms
    );
}

/// The autoscaler reacts to the diurnal burst: the replica count moves
/// both ways and stays within its bounds.
#[test]
fn diurnal_autoscale_moves_replicas_within_bounds() {
    let cfg = TpuConfig::paper();
    let scenario = scenario_by_name("diurnal-autoscale")
        .expect("scenario exists")
        .scale_requests(0.25);
    let runs = scenario.execute(&cfg);
    let report = &runs[0].1.report;
    let t = report.tenant("MLP0").unwrap();
    assert!(
        t.replicas_max > t.replicas_min,
        "the controller must actually move: {} .. {}",
        t.replicas_min,
        t.replicas_max
    );
    assert!(t.replicas_min >= 2 && t.replicas_max <= 8, "bounds hold");
    assert!(
        report.replica_timeline.len() > 3,
        "ticks record a replica timeline"
    );
}

/// Weight-memory capacity constrains placement end to end: a fleet
/// whose hosts fit only one CNN1 replica each refuses a third replica.
#[test]
fn placement_capacity_is_enforced_end_to_end() {
    let cfg = TpuConfig::paper();
    let mut spec = FleetSpec::new(2, 1, 3);
    for h in &mut spec.hosts {
        h.weight_capacity_bytes = 90_000_000; // one CNN1 (~86M) each
    }
    let tenant = TenantSpec::new(
        "CNN1",
        ArrivalProcess::Poisson { rate_rps: 500.0 },
        BatchPolicy::Timeout {
            max_batch: 32,
            t_max_ms: 20.0,
        },
        60.0,
        200,
    );
    let ok = run_fleet(&spec, &[FleetTenantSpec::new(tenant.clone(), 2)], &cfg);
    assert_eq!(ok.report.tenants[0].requests, 200);

    let result =
        std::panic::catch_unwind(|| run_fleet(&spec, &[FleetTenantSpec::new(tenant, 3)], &cfg));
    assert!(result.is_err(), "a third replica must not fit");
}

//! Resilience-layer tests: correlated failure domains, the bounded
//! retry/backoff/hedging policies, and brownout shedding under
//! overload.
//!
//! Three layers of pinning:
//!
//! * **fixed regressions** — crash/recovery edge interleavings that
//!   once required careful engine ordering (a crash landing during an
//!   in-flight swap stall, recover+crash at the same millisecond, a
//!   front-end partition overlapping a straggler window, swap-affinity
//!   routing while hosts are partitioned);
//! * **properties** — for random small fleets under random failure
//!   schedules with the resilience layer on, every request is
//!   accounted for (`served + dropped + shed == offered`), replays are
//!   bit-identical per seed, and the sharded engine reproduces the
//!   single-threaded reference byte for byte;
//! * **the ISSUE acceptance contrast** — the `retry-storm` scenario's
//!   resilient run must beat its blind-infinite-retry twin on both
//!   total retries and top-priority SLO attainment.

use proptest::prelude::*;
use tpu_repro::tpu_cluster::{
    rack_outage, run_fleet, run_fleet_on, run_fleet_telemetry, scenario_by_name, validate_schedule,
    BrownoutConfig, ColocateConfig, FailureEvent, FleetEngine, FleetReport, FleetScenario,
    FleetSpec, FleetTenantSpec, HedgeConfig, HopModel, RetryBudget, RetryPolicy, RouterPolicy,
};
use tpu_repro::tpu_core::TpuConfig;
use tpu_repro::tpu_serve::tenant::ArrivalProcess;
use tpu_repro::tpu_serve::{BatchPolicy, TenantSpec};
use tpu_repro::tpu_telemetry::{RequestLog, RunTelemetry};

/// Every run of a scenario on one engine, rendered as labelled text
/// reports.
fn render_on(s: &FleetScenario, cfg: &TpuConfig, engine: FleetEngine) -> Vec<String> {
    s.runs
        .iter()
        .map(|r| {
            let run = run_fleet_on(&r.spec, &r.tenants, cfg, engine);
            format!("{}\n{}", r.label, run.report)
        })
        .collect()
}

fn mlp_tenant(rate_rps: f64, priority: u8, requests: usize) -> TenantSpec {
    TenantSpec::new(
        "MLP0",
        ArrivalProcess::Poisson { rate_rps },
        BatchPolicy::Timeout {
            max_batch: 64,
            t_max_ms: 0.5,
        },
        7.0,
        requests,
    )
    .with_priority(priority)
}

fn backoff_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        backoff_base_ms: 0.1,
        backoff_max_ms: 1.0,
        jitter_frac: 0.25,
        budget: Some(RetryBudget {
            tokens: 64.0,
            refill_per_ms: 8.0,
        }),
        hedge: None,
    }
}

fn conservation_holds(report: &FleetReport) {
    for t in &report.tenants {
        assert_eq!(
            t.requests + t.dropped + t.shed,
            t.offered,
            "tenant {}: served {} + dropped {} + shed {} != offered {}",
            t.name,
            t.requests,
            t.dropped,
            t.shed,
            t.offered
        );
    }
}

// ---------------------------------------------------------------------
// Fixed regressions: crash/recovery edge interleavings.
// ---------------------------------------------------------------------

/// A host crash landing while its die is mid-swap (colocated tenants
/// force weight swaps on every dispatch alternation): the displaced
/// work must retry under the bounded policy, nothing double-counts,
/// and the replay is deterministic.
#[test]
fn crash_during_inflight_swap_stall_accounts_for_every_request() {
    let cfg = TpuConfig::paper();
    let spec = FleetSpec::new(4, 2, 11)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_colocate(ColocateConfig::bin_packed())
        .with_failures(vec![
            // MLP0 dispatches begin ~0.6 ms in (hop + batch fill); the
            // 0.9 ms crash lands inside the first swap stalls.
            FailureEvent::crash(0.9, 0),
            FailureEvent::recover(2.4, 0),
        ])
        .with_retry(backoff_policy());
    let tenants = vec![
        FleetTenantSpec::new(mlp_tenant(400_000.0, 2, 1_500), 4),
        FleetTenantSpec::new(mlp_tenant(300_000.0, 1, 1_000).named("MLP0-colo"), 4),
    ];
    let a = run_fleet(&spec, &tenants, &cfg);
    conservation_holds(&a.report);
    assert!(
        a.report.tenants.iter().any(|t| t.retries > 0),
        "the crash must displace work into the retry layer"
    );
    let b = run_fleet(&spec, &tenants, &cfg);
    assert_eq!(format!("{}", a.report), format!("{}", b.report));
}

/// Recover and re-crash at the *same millisecond*: the schedule is
/// legal (events replay in list order within a timestamp), the host
/// contributes nothing in between, and accounting still balances.
#[test]
fn recover_then_crash_at_the_same_instant_is_legal_and_deterministic() {
    let cfg = TpuConfig::paper();
    let failures = vec![
        FailureEvent::crash(0.4, 1),
        FailureEvent::recover(1.2, 1),
        FailureEvent::crash(1.2, 1),
        FailureEvent::recover(2.0, 1),
    ];
    assert_eq!(validate_schedule(&failures, &[2, 2, 2]), Ok(()));
    let spec = FleetSpec::new(3, 2, 7)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(failures)
        .with_retry(backoff_policy());
    let tenants = vec![FleetTenantSpec::new(mlp_tenant(500_000.0, 2, 2_000), 3)];
    let a = run_fleet(&spec, &tenants, &cfg);
    conservation_holds(&a.report);
    let b = run_fleet(&spec, &tenants, &cfg);
    assert_eq!(format!("{}", a.report), format!("{}", b.report));
}

/// A front-end partition overlapping a straggler window on the same
/// host: the router stops sending (the host looks dead) while the
/// slowed host keeps draining its stale queue, then rejoins. No
/// request may be lost or double-served across the overlap.
#[test]
fn partition_overlapping_straggler_window_loses_nothing() {
    let cfg = TpuConfig::paper();
    let mut failures = Vec::new();
    failures.extend(FailureEvent::slow_window(0.3, 2.0, 2, 6.0));
    failures.extend(FailureEvent::partition_window(0.5, 1.5, 2));
    let spec = FleetSpec::new(4, 2, 5)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(failures)
        .with_retry(backoff_policy());
    let tenants = vec![FleetTenantSpec::new(mlp_tenant(600_000.0, 2, 2_500), 4)];
    let a = run_fleet(&spec, &tenants, &cfg);
    conservation_holds(&a.report);
    // The partitioned host kept its queue: it must have served batches.
    assert!(
        a.report.hosts[2].batches > 0,
        "partitioned straggler should drain, not stall"
    );
    let b = run_fleet(&spec, &tenants, &cfg);
    assert_eq!(format!("{}", a.report), format!("{}", b.report));
}

/// Swap-affinity routing across front-end partitions: a partitioned
/// host keeps draining, so its dies' warmth keeps changing, yet its
/// replicas must stay out of the warm index until it rejoins. No
/// request that reached the front end during a host's partition may be
/// dispatched there before the host rejoins (a parked request keeps its
/// arrival time and may land there after).
#[test]
fn swap_aware_routing_never_sends_work_to_a_partitioned_host() {
    let cfg = TpuConfig::paper();
    let s = scenario_by_name("colocate-interference")
        .expect("scenario exists")
        .scale_requests(0.2);
    let r = s
        .runs
        .iter()
        .find(|r| r.spec.router == RouterPolicy::SwapAware)
        .expect("a swap-aware run");
    // Staggered windows: every host is cut off once, never all at once.
    let windows: Vec<(usize, f64, f64)> = (0..4)
        .map(|h| (h, 0.5 + h as f64, 3.0 + h as f64))
        .collect();
    let mut failures: Vec<FailureEvent> = windows
        .iter()
        .flat_map(|&(h, from, until)| FailureEvent::partition_window(from, until, h))
        .collect();
    failures.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    let spec = r.spec.clone().with_failures(failures);
    let mut tel = RunTelemetry {
        requests: Some(RequestLog::new()),
        ..RunTelemetry::off()
    };
    let run = run_fleet_telemetry(&spec, &r.tenants, &cfg, &mut tel);
    conservation_holds(&run.report);
    let log = tel.requests.expect("request log attached");
    for rec in log.records() {
        for &(h, from, until) in &windows {
            let cut_off = |t: f64| t > from && t < until;
            assert!(
                !(rec.host as usize == h && cut_off(rec.arrived_ms) && cut_off(rec.dispatch_ms)),
                "a request arriving at {} ms was dispatched on host {h} at {} ms, inside its \
                 partition [{from}, {until}) ms",
                rec.arrived_ms,
                rec.dispatch_ms
            );
        }
    }
}

// ---------------------------------------------------------------------
// Hedging: a hard straggler must produce real first-wins races.
// ---------------------------------------------------------------------

/// With one host's dies slowed 10x under hedging, some hedge copies
/// must dispatch before their stranded primaries — and every win
/// cancels the loser, so accounting still balances.
#[test]
fn hedges_win_against_a_hard_straggler() {
    let cfg = TpuConfig::paper();
    let failures = vec![
        FailureEvent::die_slow(0.1, 3, 0, 10.0),
        FailureEvent::die_slow(0.1, 3, 1, 10.0),
        FailureEvent::die_slow(6.0, 3, 0, 1.0),
        FailureEvent::die_slow(6.0, 3, 1, 1.0),
    ];
    let retry = RetryPolicy {
        hedge: Some(HedgeConfig {
            min_delay_ms: 0.5,
            quantile: 0.95,
            window: 128,
        }),
        ..backoff_policy()
    };
    let spec = FleetSpec::new(4, 2, 13)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(failures)
        .with_retry(retry);
    let tenants = vec![FleetTenantSpec::new(mlp_tenant(900_000.0, 2, 4_000), 4)];
    let run = run_fleet(&spec, &tenants, &cfg);
    conservation_holds(&run.report);
    let t = &run.report.tenants[0];
    assert!(t.hedges > 0, "the straggler must arm hedges");
    assert!(
        t.hedge_wins > 0,
        "a 10x straggler must lose some first-wins races ({} hedges, 0 wins)",
        t.hedges
    );
    assert!(t.hedge_wins <= t.hedges);
}

// ---------------------------------------------------------------------
// The ISSUE acceptance contrast, pinned.
// ---------------------------------------------------------------------

/// `retry-storm`, at the golden scale: the resilient run (backoff +
/// budget + shedding) must issue strictly fewer total retries than the
/// blind run and hold strictly higher SLO attainment for the
/// top-priority tenant — while never dropping or shedding it.
#[test]
fn retry_storm_resilient_run_beats_blind_infinite_retry() {
    let cfg = TpuConfig::paper();
    let s = scenario_by_name("retry-storm")
        .expect("scenario exists")
        .scale_requests(0.05);
    let results = s.execute(&cfg);
    assert_eq!(results.len(), 2, "blind + resilient");
    let blind = &results[0].1.report;
    let resilient = &results[1].1.report;
    assert!(!blind.resilient, "the blind run has no resilience layer");
    assert!(resilient.resilient);

    let retries = |r: &FleetReport| r.tenants.iter().map(|t| t.retries).sum::<usize>();
    assert!(
        retries(resilient) < retries(blind),
        "bounded backoff must issue strictly fewer retries ({} vs {})",
        retries(resilient),
        retries(blind)
    );

    let critical_blind = blind.tenant("critical").expect("tenant exists");
    let critical_res = resilient.tenant("critical").expect("tenant exists");
    assert!(
        critical_res.slo_attainment > critical_blind.slo_attainment,
        "shedding bulk must buy the critical tenant SLO ({:.2}% vs {:.2}%)",
        critical_res.slo_attainment,
        critical_blind.slo_attainment
    );
    assert_eq!(critical_res.dropped, 0, "never drop the protected tenant");
    assert_eq!(critical_res.shed, 0, "never shed the protected tenant");
    // The brownout controller did real work on the low-priority tenant.
    let bulk = resilient.tenant("bulk").expect("tenant exists");
    assert!(bulk.shed > 0, "overload must shed bulk admissions");
    conservation_holds(resilient);
}

/// Both new scenarios replay byte-identically across every engine
/// mode: the single-threaded reference, and 1/2/5-worker sharding —
/// plus the 1000-host `rack-outage` fleet (125 cells under the seeded
/// correlated outage schedule) at 3 and 8 workers.
#[test]
fn resilience_scenarios_are_engine_invariant() {
    let cfg = TpuConfig::paper();
    let named = ["rack-outage", "retry-storm"].map(|name| {
        let s = scenario_by_name(name)
            .expect("scenario exists")
            .scale_requests(0.05);
        (s, &[1usize, 2, 5][..])
    });
    let fleet = (rack_outage(1000).scale_requests(0.02), &[3usize, 8][..]);
    for (s, worker_counts) in named.into_iter().chain([fleet]) {
        let reference = render_on(&s, &cfg, FleetEngine::Single);
        for &workers in worker_counts {
            let sharded = render_on(&s, &cfg, FleetEngine::Sharded { workers });
            assert_eq!(
                reference,
                sharded,
                "{} ({} hosts): {workers}-worker replay differs from the reference",
                s.name,
                s.runs[0].spec.hosts.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Schedule validation: line-item errors.
// ---------------------------------------------------------------------

/// Every bad event gets its own line-item error naming the event
/// index, the time, and the violation.
#[test]
fn validate_schedule_reports_line_item_errors() {
    let failures = vec![
        FailureEvent::crash(1.0, 0),
        FailureEvent::crash(2.0, 0),       // double crash
        FailureEvent::recover(3.0, 1),     // host 1 is already healthy
        FailureEvent::die_fail(4.0, 0, 9), // die out of range
        FailureEvent::crash(-1.0, 0),      // negative time
        FailureEvent::crash(5.0, 42),      // host out of range
    ];
    let errs = validate_schedule(&failures, &[2, 2]).unwrap_err();
    assert_eq!(errs.len(), 5, "one line per bad event: {errs:?}");
    assert!(errs
        .iter()
        .any(|e| e.starts_with("failure[1] at 2 ms") && e.contains("already crashed")));
    assert!(errs.iter().any(|e| e.contains("already healthy")));
    assert!(errs.iter().any(|e| e.contains("die 9 out of range")));
    assert!(errs
        .iter()
        .any(|e| e.contains("not finite and non-negative")));
    assert!(errs.iter().any(|e| e.contains("host 42 out of range")));
}

// ---------------------------------------------------------------------
// Properties: conservation, determinism, engine invariance.
// ---------------------------------------------------------------------

/// A random 2-cell fleet under a random (legal) failure schedule with
/// the full resilience layer on.
#[derive(Debug, Clone)]
struct PropFleet {
    seed: u64,
    rate_rps: f64,
    requests: usize,
    crash_at: f64,
    crash_host: usize,
    outage_ms: f64,
    straggler: Option<(usize, f64)>,
    max_attempts: u32,
    tokens: f64,
    brownout: bool,
}

fn prop_fleet() -> impl Strategy<Value = PropFleet> {
    (
        (
            0u64..1000,
            200_000.0f64..900_000.0,
            500usize..2_500,
            0.2f64..1.5,
            0usize..6,
        ),
        (
            0.3f64..1.5,
            // Straggler factor below 2 means "no straggler window".
            (0usize..6, 1.0f64..8.0),
            1u32..5,
            8.0f64..256.0,
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (seed, rate_rps, requests, crash_at, crash_host),
                (outage_ms, (slow_host, slow_factor), max_attempts, tokens, brownout),
            )| PropFleet {
                seed,
                rate_rps,
                requests,
                crash_at,
                crash_host,
                outage_ms,
                straggler: (slow_factor >= 2.0).then_some((slow_host, slow_factor)),
                max_attempts,
                tokens,
                brownout,
            },
        )
}

fn build(p: &PropFleet) -> (FleetSpec, Vec<FleetTenantSpec>) {
    let mut failures = vec![
        FailureEvent::crash(p.crash_at, p.crash_host),
        FailureEvent::recover(p.crash_at + p.outage_ms, p.crash_host),
    ];
    if let Some((host, factor)) = p.straggler {
        failures.extend(FailureEvent::slow_window(0.1, 2.0, host, factor));
    }
    let retry = RetryPolicy {
        max_attempts: p.max_attempts,
        backoff_base_ms: 0.1,
        backoff_max_ms: 1.0,
        jitter_frac: 0.25,
        budget: Some(RetryBudget {
            tokens: p.tokens,
            refill_per_ms: 4.0,
        }),
        hedge: None,
    };
    let mut spec = FleetSpec::new(6, 2, p.seed)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(failures)
        .with_retry(retry);
    if p.brownout {
        spec = spec.with_brownout(BrownoutConfig {
            max_priority_shed: 1,
            slo_burn_threshold: 0.5,
            window: 32,
            clear_threshold: 0.2,
            min_trip_ms: 0.5,
        });
    }
    // Two 3-host cells (disjoint under spread placement), so the
    // sharded engine genuinely splits the fleet.
    let tenants = vec![
        FleetTenantSpec::new(mlp_tenant(p.rate_rps, 2, p.requests).named("cellA"), 3),
        FleetTenantSpec::new(
            mlp_tenant(p.rate_rps * 0.6, 1, p.requests / 2).named("cellB"),
            3,
        ),
    ];
    (spec, tenants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Served + dropped + shed always equals offered, per tenant, and
    /// hedge wins never exceed hedges.
    #[test]
    fn no_request_is_ever_lost_or_double_counted(p in prop_fleet()) {
        let cfg = TpuConfig::paper();
        let (spec, tenants) = build(&p);
        let run = run_fleet(&spec, &tenants, &cfg);
        for t in &run.report.tenants {
            prop_assert_eq!(t.requests + t.dropped + t.shed, t.offered);
            prop_assert!(t.hedge_wins <= t.hedges);
        }
    }

    /// The same seed replays bit-identically — text and JSON.
    #[test]
    fn resilient_replays_are_bit_identical(p in prop_fleet()) {
        let cfg = TpuConfig::paper();
        let (spec, tenants) = build(&p);
        let a = run_fleet(&spec, &tenants, &cfg);
        let b = run_fleet(&spec, &tenants, &cfg);
        prop_assert_eq!(format!("{}", a.report), format!("{}", b.report));
        prop_assert_eq!(
            a.report.to_json().to_string(),
            b.report.to_json().to_string()
        );
    }

    /// The sharded engine reproduces the single-threaded reference
    /// byte for byte under failures + retries + brownout.
    #[test]
    fn sharded_engine_matches_reference_under_failures(p in prop_fleet()) {
        let cfg = TpuConfig::paper();
        let (spec, tenants) = build(&p);
        let reference = run_fleet_on(&spec, &tenants, &cfg, FleetEngine::Single);
        let sharded = run_fleet_on(&spec, &tenants, &cfg, FleetEngine::Sharded { workers: 3 });
        prop_assert_eq!(
            format!("{}", reference.report),
            format!("{}", sharded.report)
        );
    }
}

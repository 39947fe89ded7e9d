//! # tpu-bench — benchmark harness for the TPU reproduction
//!
//! The Criterion benches live under `benches/`:
//!
//! * `tables` — one benchmark per paper table (1-8), each regenerating
//!   the table end-to-end (workload lowering + timing simulation +
//!   formatting).
//! * `figures` — one benchmark per paper figure (2, 5-11).
//! * `microarch` — ablation microbenchmarks of the simulator itself:
//!   systolic wavefront throughput by array size, timing-engine op rates,
//!   Unified Buffer allocators, quantized matmul, and the functional
//!   device end-to-end.
//! * `serving` / `cluster` / `workload` — event-loop and arrival-layer
//!   throughput of the serving runtime and the fleet simulator.
//!
//! This library crate exposes small helpers shared by the benches and
//! by the `bench_fleet` benchmark (its own workspace under
//! `bench_fleet/`), including the canonical MLP0 load builders that the
//! serving and cluster benches sweep — one definition, not per-bench
//! copies. Fleet throughput is measured by `bench_fleet`; its results
//! are in `bench_fleet/RESULTS.md`.

#![warn(missing_docs)]

use tpu_cluster::{
    BrownoutConfig, ColocateConfig, FleetSpec, FleetTenantSpec, FleetTopology, HopModel,
    RetryBudget, RetryPolicy, RouterPolicy,
};
use tpu_core::TpuConfig;
use tpu_serve::tenant::ArrivalProcess;
use tpu_serve::{BatchPolicy, ServiceCurve, TenantSpec};

/// The array sizes the microarchitecture ablations sweep: from a 32x32
/// toy to the shipped 256x256.
pub fn ablation_dims() -> Vec<usize> {
    vec![32, 64, 128, 256]
}

/// A paper-configuration handle for benches.
pub fn paper_config() -> TpuConfig {
    TpuConfig::paper()
}

/// The canonical single-host bench tenant: MLP0 under a Poisson stream
/// with a timeout-bounded batch-200 policy and the Table 4 service
/// curve.
pub fn mlp0_tenant(rate_rps: f64, requests: usize) -> TenantSpec {
    TenantSpec::new(
        "MLP0",
        ArrivalProcess::Poisson { rate_rps },
        BatchPolicy::Timeout {
            max_batch: 200,
            t_max_ms: 2.0,
        },
        7.0,
        requests,
    )
    .with_curve(ServiceCurve::tpu_mlp0_table4())
}

/// The canonical fleet bench load: one MLP0 tenant replicated across
/// every host, sized so each host pool sees meaningful load —
/// `rate ≈ 0.5 × hosts × dies × capacity(batch 200)`.
pub fn fleet_tenants(hosts: usize, requests: usize) -> Vec<FleetTenantSpec> {
    let per_die = ServiceCurve::tpu_mlp0_table4().capacity_ips(200);
    vec![FleetTenantSpec::new(
        mlp0_tenant(0.5 * hosts as f64 * 2.0 * per_die, requests),
        hosts,
    )]
}

/// The canonical *co-located* fleet bench load: three Table 1 model
/// classes (MLP0, LSTM0, CNN0) each replicated across every host of a
/// swap-aware, bin-packed fleet, rates sized so the pool sees roughly
/// the same aggregate load as [`fleet_tenants`]. Exercises the
/// weight-swap hot path (warm-die dispatch, swap events, affinity
/// routing) at fleet scale.
pub fn colocate_fleet(hosts: usize, requests: usize) -> (FleetSpec, Vec<FleetTenantSpec>) {
    let spec = FleetSpec::new(hosts, 2, 42)
        .with_router(RouterPolicy::SwapAware)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_colocate(ColocateConfig::bin_packed());
    let mk = |workload: &str, rate_rps: f64, max_batch: usize, slo_ms: f64, share: f64| {
        FleetTenantSpec::new(
            TenantSpec::new(
                workload,
                ArrivalProcess::Poisson { rate_rps },
                BatchPolicy::Timeout {
                    max_batch,
                    t_max_ms: 2.0,
                },
                slo_ms,
                ((requests as f64 * share) as usize).max(1),
            ),
            hosts,
        )
    };
    let dies = 2.0 * hosts as f64;
    let tenants = vec![
        mk("MLP0", 0.30 * dies * 242_000.0, 200, 7.0, 0.90),
        mk("LSTM0", 0.10 * dies * 27_000.0, 64, 50.0, 0.08),
        mk("CNN0", 0.05 * dies * 8_300.0, 8, 30.0, 0.02),
    ];
    (spec, tenants)
}

/// The failure-heavy fleet load behind the resilience row: 8-host
/// cells, each carrying an overcommitted two-tenant mix (a priority-3
/// `critical` stream plus a priority-1 `bulk` stream at several times
/// its rate) under staggered whole-rack outages, with the full
/// resilience layer on — bounded backed-off retries, a per-tenant
/// retry budget, and a brownout controller shedding `bulk`. The hot
/// paths this row prices are exactly the ones the quiet fleets above
/// never touch: displacement, backoff scheduling, budget accounting,
/// and brownout bookkeeping on every completion.
///
/// `requests` is the fleet-wide total, split across cells at a
/// 15%/85% critical/bulk ratio.
///
/// # Panics
///
/// Panics when `hosts` is below one 8-host cell.
pub fn resilient_fleet(hosts: usize, requests: usize) -> (FleetSpec, Vec<FleetTenantSpec>) {
    assert!(hosts >= 8, "resilient_fleet needs at least one 8-host cell");
    let cells = hosts / 8;
    let topo = FleetTopology::new(4, 2);
    let mut failures = Vec::new();
    for c in 0..cells {
        // Staggered whole-rack outages inside every cell: racks 2c and
        // 2c+1 down over [1.0, 2.5) and [3.0, 4.5) ms.
        failures.extend(topo.rack_outage(1.0, 2.5, 2 * c, hosts));
        failures.extend(topo.rack_outage(3.0, 4.5, 2 * c + 1, hosts));
    }
    let spec = FleetSpec::new(hosts, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(failures)
        .with_retry(RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 0.1,
            backoff_max_ms: 1.0,
            jitter_frac: 0.25,
            budget: Some(RetryBudget {
                tokens: 1024.0,
                refill_per_ms: 64.0,
            }),
            hedge: None,
        })
        .with_brownout(BrownoutConfig {
            max_priority_shed: 1,
            slo_burn_threshold: 0.4,
            window: 32,
            clear_threshold: 0.15,
            min_trip_ms: 0.5,
        });
    let mk = |rate_rps: f64, priority: u8, requests: usize| {
        TenantSpec::new(
            "MLP0",
            ArrivalProcess::Poisson { rate_rps },
            BatchPolicy::Timeout {
                max_batch: 200,
                t_max_ms: 0.5,
            },
            2.5,
            requests.max(1),
        )
        .with_priority(priority)
    };
    let per_cell = requests / cells;
    // All criticals place first: spread placement then leaves every
    // host equally filled, so bulk `c` lands (by the index tie-break)
    // on exactly critical `c`'s hosts — each cell one component, its
    // two tenants contending for the same dies.
    let criticals = (0..cells).map(|c| {
        FleetTenantSpec::new(
            mk(600_000.0, 3, (per_cell as f64 * 0.15) as usize).named(&format!("critical{c:03}")),
            8,
        )
    });
    let bulks = (0..cells).map(|c| {
        FleetTenantSpec::new(
            mk(3_300_000.0, 1, (per_cell as f64 * 0.85) as usize).named(&format!("bulk{c:03}")),
            8,
        )
    });
    (spec, criticals.chain(bulks).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_dims_are_powers_of_two_up_to_256() {
        let dims = ablation_dims();
        assert_eq!(*dims.last().unwrap(), 256);
        for d in dims {
            assert!(d.is_power_of_two());
        }
    }

    #[test]
    fn paper_config_is_valid() {
        assert!(paper_config().validate().is_ok());
    }

    #[test]
    fn colocate_fleet_is_colocated_and_replicated() {
        let (spec, tenants) = colocate_fleet(4, 10_000);
        assert!(spec.colocate.is_some());
        assert_eq!(spec.router, RouterPolicy::SwapAware);
        assert_eq!(tenants.len(), 3);
        for t in &tenants {
            assert_eq!(t.replicas, 4);
            assert!(t.tenant.requests >= 1);
        }
        let run = tpu_cluster::run_fleet(&spec, &tenants, &paper_config());
        assert!(run.report.colocated);
        assert!(
            run.report.tenants.iter().map(|t| t.swaps).sum::<usize>() > 0,
            "the co-located bench load must exercise the swap path"
        );
    }

    #[test]
    fn resilient_fleet_pairs_tenants_into_disjoint_cells() {
        let (spec, tenants) = resilient_fleet(24, 48_000);
        assert!(spec.retry.is_some() && spec.brownout.is_some());
        let plan = tpu_cluster::plan_placement(&spec, &tenants, &paper_config());
        // critical c and bulk c must land on the same 8 hosts, and
        // cells must not overlap.
        let hosts_of = |tenant: usize| -> Vec<usize> {
            let mut hs = plan.assignments[tenant].clone();
            hs.sort_unstable();
            hs
        };
        for c in 0..3 {
            let critical = hosts_of(c);
            let bulk = hosts_of(3 + c);
            assert_eq!(critical, bulk, "cell {c} tenants must share hosts");
            let want: Vec<usize> = (8 * c..8 * (c + 1)).collect();
            assert_eq!(critical, want, "cell {c} must own hosts {want:?}");
        }
    }

    /// The failure-heavy load's behaviour, pinned exactly: the run is
    /// deterministic, so its retry, drop and shed counts are too, and
    /// every offered request is served, dropped or shed.
    #[test]
    fn resilient_fleet_retries_drops_and_sheds_pinned_counts() {
        let (spec, tenants) = resilient_fleet(24, 48_000);
        let run = tpu_cluster::run_fleet(&spec, &tenants, &paper_config());
        let sum = |f: fn(&tpu_cluster::FleetTenantReport) -> usize| -> usize {
            run.report.tenants.iter().map(f).sum()
        };
        assert_eq!(sum(|t| t.retries), 4_586);
        assert_eq!(sum(|t| t.dropped), 9_765);
        assert_eq!(sum(|t| t.shed), 14_409);
        for t in &run.report.tenants {
            assert_eq!(
                t.requests + t.dropped + t.shed,
                t.offered,
                "tenant {}: served + dropped + shed != offered",
                t.name
            );
        }
    }

    #[test]
    fn fleet_tenants_replicate_across_all_hosts() {
        let ts = fleet_tenants(10, 1000);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].replicas, 10);
        assert_eq!(ts[0].tenant.requests, 1000);
        assert_eq!(ts[0].tenant.name, "MLP0");
    }
}

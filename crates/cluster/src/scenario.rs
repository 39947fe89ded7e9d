//! Named, reproducible fleet experiments.
//!
//! Each scenario is a fleet topology plus tenants, sometimes swept over
//! a parameter (router policy, straggler on/off). The `tpu_cluster` CLI
//! runs them by name; the integration tests pin their qualitative
//! outcomes (failover keeps SLO attainment above a threshold, the
//! straggler stretches the tail, least-outstanding routing beats
//! round-robin under a straggler).
//!
//! Arrival rates are sized against the calibrated per-die capacities of
//! the Table 1 workloads (MLP0 ~242k rps/die, LSTM0 ~27k, CNN0 ~8.3k;
//! see `tpu_serve::scenario`).

use crate::autoscale::AutoscaleConfig;
use crate::engine::{run_fleet, run_fleet_telemetry, FleetRun};
use crate::failure::FailureEvent;
use crate::fleet::{ColocateConfig, FleetSpec, FleetTenantSpec, HopModel, PlacementPolicy};
use crate::resilience::{BrownoutConfig, HedgeConfig, RetryBudget, RetryPolicy};
use crate::route::RouterPolicy;
use crate::topology::{seeded_domain_outages, FleetTopology};
use tpu_core::TpuConfig;
use tpu_serve::tenant::ArrivalProcess;
use tpu_serve::workload::{DiurnalProfile, Trace};
use tpu_serve::{BatchPolicy, TenantSpec};

/// One concrete run within a scenario.
#[derive(Debug, Clone)]
pub struct FleetScenarioRun {
    /// Label distinguishing this run within the scenario.
    pub label: String,
    /// The fleet topology and front-end configuration.
    pub spec: FleetSpec,
    /// The tenants admitted to it.
    pub tenants: Vec<FleetTenantSpec>,
}

/// A named, reproducible fleet experiment.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// CLI name, e.g. `host-failover`.
    pub name: &'static str,
    /// One-line description for `tpu_cluster list`.
    pub description: &'static str,
    /// The failure-domain topology the scenario's fleets are carved
    /// into, when it has one (the health monitor uses it to collapse
    /// host-level outage alerts into rack- and domain-level incidents).
    pub topology: Option<FleetTopology>,
    /// The runs, executed in order.
    pub runs: Vec<FleetScenarioRun>,
}

impl FleetScenario {
    /// Execute every run and pair it with its label.
    pub fn execute(&self, cfg: &TpuConfig) -> Vec<(String, FleetRun)> {
        self.runs
            .iter()
            .map(|r| (r.label.clone(), run_fleet(&r.spec, &r.tenants, cfg)))
            .collect()
    }

    /// [`Self::execute`] with one [`tpu_telemetry::RunTelemetry`] per
    /// run (the reports stay bit-identical to the uninstrumented runs).
    pub fn execute_telemetry(
        &self,
        cfg: &TpuConfig,
        tel: &mut [tpu_telemetry::RunTelemetry],
    ) -> Vec<(String, FleetRun)> {
        assert_eq!(tel.len(), self.runs.len(), "one RunTelemetry per run");
        self.runs
            .iter()
            .zip(tel)
            .map(|(r, t)| {
                (
                    r.label.clone(),
                    run_fleet_telemetry(&r.spec, &r.tenants, cfg, t),
                )
            })
            .collect()
    }

    /// Re-seed every run (CLI `--seed`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        for r in &mut self.runs {
            r.spec.seed = seed;
        }
        self
    }

    /// Scale every tenant's request count by `factor` (CLI
    /// `--requests-scale`), keeping at least one request per tenant.
    /// Failure and autoscaler times are left alone; note that failure
    /// events are pre-scheduled and still fire (appearing in crash
    /// counts and on the timeline) even when a heavily scaled run
    /// serves its last request before they strike. Tenants replaying an
    /// inline recording are capped at the recording's length (they
    /// replay a prefix; there is nothing to scale up into).
    pub fn scale_requests(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale must be positive");
        for r in &mut self.runs {
            for t in &mut r.tenants {
                t.tenant.scale_requests(factor);
            }
        }
        self
    }

    /// Record the arrival streams of one run — by label, or the first
    /// run when `run_label` is `None` — without simulating (the streams
    /// are a pure function of the tenant specs and the fleet seed; see
    /// `tpu_serve::workload`). The CLI's `trace record` writes the
    /// result to disk, and the same file replays through `tpu_serve`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown run label.
    pub fn record_trace(&self, run_label: Option<&str>) -> Trace {
        let run = match run_label {
            None => &self.runs[0],
            Some(l) => self
                .runs
                .iter()
                .find(|r| r.label == l)
                .unwrap_or_else(|| panic!("scenario {} has no run {l:?}", self.name)),
        };
        let tenants: Vec<TenantSpec> = run.tenants.iter().map(|t| t.tenant.clone()).collect();
        Trace::record(
            &tenants,
            run.spec.seed,
            &format!("{}/{}", self.name, run.label),
        )
    }

    /// Drive every run's tenants from a recorded trace (CLI `--trace`):
    /// each tenant replays its recorded stream, matched by name, with
    /// its request count capped at the stream length (a scaled-down
    /// scenario replays a prefix — see `Trace::apply`).
    ///
    /// # Panics
    ///
    /// Panics when the trace lacks one of the scenario's tenants
    /// (pre-check with `Trace::covers`).
    pub fn with_trace(mut self, trace: &Trace) -> Self {
        for r in &mut self.runs {
            for t in &mut r.tenants {
                trace.apply(std::slice::from_mut(&mut t.tenant));
            }
        }
        self
    }
}

fn timeout_tenant(
    workload: &str,
    rate_rps: f64,
    max_batch: usize,
    t_max_ms: f64,
    slo_ms: f64,
    priority: u8,
    requests: usize,
) -> TenantSpec {
    TenantSpec::new(
        workload,
        ArrivalProcess::Poisson { rate_rps },
        BatchPolicy::Timeout {
            max_batch,
            t_max_ms,
        },
        slo_ms,
        requests,
    )
    .with_priority(priority)
}

/// The steady-state datacenter mix: three workload classes replicated
/// across six 2-die hosts behind least-outstanding routing with
/// Table 5 hops, every tenant comfortably inside its SLO.
fn fleet_steady() -> FleetScenario {
    let spec = FleetSpec::new(6, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 });
    FleetScenario {
        name: "fleet-steady",
        description: "MLP0+LSTM0+CNN0 replicated over 6×2-die hosts at ~40% load",
        topology: None,
        runs: vec![FleetScenarioRun {
            label: "steady".into(),
            spec,
            tenants: vec![
                FleetTenantSpec::new(
                    timeout_tenant("MLP0", 600_000.0, 200, 2.0, 7.0, 3, 60_000),
                    3,
                ),
                FleetTenantSpec::new(
                    timeout_tenant("LSTM0", 40_000.0, 64, 5.0, 50.0, 2, 8_000),
                    3,
                ),
                FleetTenantSpec::new(timeout_tenant("CNN0", 10_000.0, 8, 10.0, 30.0, 1, 2_000), 2),
            ],
        }],
    }
}

/// Diurnal load on an autoscaled fleet: MLP0 rides a true piecewise-
/// linear day/night rate curve (trough 100k rps, peak 900k rps over an
/// 80 ms "day"); the reactive controller grows the replica set into the
/// peak and drains it back through the trough.
fn diurnal_autoscale() -> FleetScenario {
    let tenant = TenantSpec::new(
        "MLP0",
        ArrivalProcess::Diurnal {
            profile: DiurnalProfile::day_night(100_000.0, 900_000.0, 80.0),
        },
        BatchPolicy::Timeout {
            max_batch: 200,
            t_max_ms: 2.0,
        },
        7.0,
        120_000,
    )
    .with_priority(3);
    let spec = FleetSpec::new(8, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_autoscale(AutoscaleConfig {
            interval_ms: 10.0,
            cooldown_ms: 20.0,
            ..AutoscaleConfig::reactive()
        });
    FleetScenario {
        name: "diurnal-autoscale",
        description: "diurnal MLP0 (100k..900k rps) on 8 hosts: reactive scaling, 2..8 replicas",
        topology: None,
        runs: vec![FleetScenarioRun {
            label: "diurnal".into(),
            spec,
            tenants: vec![FleetTenantSpec::new(tenant, 3).with_replica_bounds(2, 8)],
        }],
    }
}

/// Trace record/replay, end to end: a diurnal MLP0 plus a bursty LSTM0
/// drive a 4-host fleet; the `replay` run feeds the *recorded* arrival
/// streams of the `synthetic` run back through the front end and must
/// reproduce its report bit for bit (the integration tests pin it).
///
/// `--seed` re-seeds only the service-jitter streams and the synthetic
/// run's arrivals — the replay run keeps the arrivals recorded at
/// construction (seed 42), so the two runs match only at the default
/// seed.
fn trace_replay() -> FleetScenario {
    let spec = || {
        FleetSpec::new(4, 2, 42)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_hop(HopModel::Table5 { scale_ms: 1.0 })
    };
    let tenants = vec![
        FleetTenantSpec::new(
            TenantSpec::new(
                "MLP0",
                ArrivalProcess::Diurnal {
                    profile: DiurnalProfile::day_night(100_000.0, 500_000.0, 60.0),
                },
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 2.0,
                },
                7.0,
                40_000,
            )
            .with_priority(3),
            3,
        ),
        FleetTenantSpec::new(
            TenantSpec::new(
                "LSTM0",
                ArrivalProcess::Bursty {
                    rate_rps: 30_000.0,
                    burst_factor: 3.0,
                    period_ms: 30.0,
                    duty: 0.25,
                },
                BatchPolicy::Timeout {
                    max_batch: 64,
                    t_max_ms: 5.0,
                },
                50.0,
                6_000,
            )
            .with_priority(2),
            2,
        ),
    ];
    let synthetic = FleetScenarioRun {
        label: "synthetic".into(),
        spec: spec(),
        tenants: tenants.clone(),
    };
    // Record the synthetic streams (a pure function of specs + seed)
    // and embed them inline for the replay run.
    let specs: Vec<TenantSpec> = tenants.iter().map(|t| t.tenant.clone()).collect();
    let trace = Trace::record(&specs, synthetic.spec.seed, "trace-replay/synthetic");
    let mut replay_tenants = tenants;
    for t in &mut replay_tenants {
        trace.apply(std::slice::from_mut(&mut t.tenant));
    }
    FleetScenario {
        name: "trace-replay",
        description: "diurnal+bursty mix on 4 hosts: synthetic run vs bit-identical trace replay",
        topology: None,
        runs: vec![
            synthetic,
            FleetScenarioRun {
                label: "replay".into(),
                spec: spec(),
                tenants: replay_tenants,
            },
        ],
    }
}

/// The failover drill: host 0 crashes mid-run taking replicas of both
/// tenants with it, displaced requests retry on the survivors, and the
/// host rejoins later. The integration tests pin that post-recovery
/// SLO attainment stays above a threshold for every tenant.
fn host_failover() -> FleetScenario {
    let spec = FleetSpec::new(4, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(vec![
            FailureEvent::crash(30.0, 0),
            FailureEvent::recover(80.0, 0),
        ]);
    FleetScenario {
        name: "host-failover",
        description: "4-host fleet: host 0 crashes at 30 ms, recovers at 80 ms",
        topology: None,
        runs: vec![FleetScenarioRun {
            label: "failover".into(),
            spec,
            tenants: vec![
                FleetTenantSpec::new(
                    timeout_tenant("MLP0", 300_000.0, 200, 2.0, 7.0, 3, 60_000),
                    3,
                ),
                FleetTenantSpec::new(
                    timeout_tenant("LSTM0", 20_000.0, 64, 5.0, 50.0, 2, 4_000),
                    2,
                ),
            ],
        }],
    }
}

/// Router shoot-out: the same fleet and load under round-robin,
/// least-outstanding, and bounded consistent hashing, with host 2
/// turned into a 3× straggler mid-run. Load-aware policies route
/// around the straggler; round-robin keeps feeding it and pays in p99.
fn router_shootout() -> FleetScenario {
    let mk = |label: &str, router: RouterPolicy| {
        let spec = FleetSpec::new(4, 2, 42)
            .with_router(router)
            .with_hop(HopModel::Table5 { scale_ms: 1.0 })
            .with_failures(FailureEvent::slow_window(10.0, 60.0, 2, 3.0).to_vec());
        FleetScenarioRun {
            label: label.into(),
            spec,
            tenants: vec![FleetTenantSpec::new(
                timeout_tenant("MLP0", 700_000.0, 200, 2.0, 7.0, 3, 100_000),
                4,
            )],
        }
    };
    FleetScenario {
        name: "router-shootout",
        description: "RR vs least-outstanding vs consistent-hash with a 3× straggler",
        topology: None,
        runs: vec![
            mk("round-robin", RouterPolicy::RoundRobin),
            mk("least-outstanding", RouterPolicy::LeastOutstanding),
            mk(
                "consistent-hash",
                RouterPolicy::ConsistentHash {
                    vnodes: 16,
                    bound: 1.25,
                },
            ),
        ],
    }
}

/// The straggler-tail experiment: identical fleets, one with host 2
/// running 4× slow for a window. Round-robin routing spreads requests
/// evenly, so the slow host's share defines the tail.
fn straggler_tail() -> FleetScenario {
    let tenants = || {
        vec![
            FleetTenantSpec::new(
                timeout_tenant("MLP0", 450_000.0, 200, 2.0, 7.0, 3, 60_000),
                3,
            ),
            FleetTenantSpec::new(
                timeout_tenant("LSTM1", 30_000.0, 96, 5.0, 50.0, 2, 4_000),
                2,
            ),
        ]
    };
    let base = FleetSpec::new(3, 2, 42)
        .with_router(RouterPolicy::RoundRobin)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 });
    FleetScenario {
        name: "straggler-tail",
        description: "3-host fleet, round-robin: baseline vs 4× straggler window",
        topology: None,
        runs: vec![
            FleetScenarioRun {
                label: "baseline".into(),
                spec: base.clone(),
                tenants: tenants(),
            },
            FleetScenarioRun {
                label: "straggler-4x".into(),
                spec: base.with_failures(FailureEvent::slow_window(15.0, 45.0, 2, 4.0).to_vec()),
                tenants: tenants(),
            },
        ],
    }
}

/// The mixed Table 1 tenant set: all six workloads with the
/// `mixed-tenants` rates (sized for ~60% of a 4-die pool together),
/// `replicas` replicas each.
fn table1_mix(replicas: usize) -> Vec<FleetTenantSpec> {
    vec![
        FleetTenantSpec::new(
            timeout_tenant("MLP0", 150_000.0, 200, 2.0, 7.0, 3, 45_000),
            replicas,
        ),
        FleetTenantSpec::new(
            timeout_tenant("MLP1", 80_000.0, 168, 2.0, 7.0, 3, 24_000),
            replicas,
        ),
        FleetTenantSpec::new(
            timeout_tenant("LSTM0", 12_000.0, 64, 5.0, 50.0, 2, 3_600),
            replicas,
        ),
        FleetTenantSpec::new(
            timeout_tenant("LSTM1", 20_000.0, 96, 5.0, 50.0, 2, 6_000),
            replicas,
        ),
        FleetTenantSpec::new(
            timeout_tenant("CNN0", 3_000.0, 8, 10.0, 30.0, 1, 900),
            replicas,
        ),
        FleetTenantSpec::new(
            timeout_tenant("CNN1", 800.0, 32, 20.0, 60.0, 1, 240),
            replicas,
        ),
    ]
}

/// Co-location interference vs swap-affinity routing: the mixed
/// Table 1 set, two replicas each, bin-packed onto four 2-die hosts
/// with weight-swap costs on. The `least-outstanding` run routes
/// blindly and keeps forcing dies to reload weights; the `swap-aware`
/// run prefers replicas whose host already holds the model's weights
/// warm, trading a little load balance for fewer swaps.
fn colocate_interference() -> FleetScenario {
    let mk = |label: &str, router: RouterPolicy| {
        let spec = FleetSpec::new(4, 2, 42)
            .with_router(router)
            .with_hop(HopModel::Table5 { scale_ms: 1.0 })
            .with_colocate(ColocateConfig::bin_packed());
        FleetScenarioRun {
            label: label.into(),
            spec,
            tenants: table1_mix(2),
        }
    };
    FleetScenario {
        name: "colocate-interference",
        description: "Table 1 mix x2 bin-packed on 4 hosts: blind vs swap-affinity routing",
        topology: None,
        runs: vec![
            mk("least-outstanding", RouterPolicy::LeastOutstanding),
            mk("swap-aware", RouterPolicy::SwapAware),
        ],
    }
}

/// Co-located vs dedicated placement under the same offered load: the
/// `dedicated` run gives each of the six Table 1 tenants its own
/// 1-die host (a die only ever pays its cold weight load), the
/// `colocated` run bin-packs the same tenants onto three 1-die hosts —
/// half the hardware — where each die ping-pongs between two models
/// and pays the DDR3 weight-swap stall on every alternation. Both runs
/// carry the weight subsystem, so the per-tenant swap counters and
/// the p99 gap are a like-for-like interference measurement.
fn colocate_vs_dedicated() -> FleetScenario {
    let dedicated = FleetSpec::new(6, 1, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_colocate(ColocateConfig::new(PlacementPolicy::Spread));
    let colocated = FleetSpec::new(3, 1, 42)
        .with_router(RouterPolicy::SwapAware)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_colocate(ColocateConfig::bin_packed());
    FleetScenario {
        name: "colocate-vs-dedicated",
        description: "Table 1 mix: one model per die (6 hosts) vs bin-packed co-location (3 hosts)",
        topology: None,
        runs: vec![
            FleetScenarioRun {
                label: "dedicated".into(),
                spec: dedicated,
                tenants: table1_mix(1),
            },
            FleetScenarioRun {
                label: "colocated".into(),
                spec: colocated,
                tenants: table1_mix(1),
            },
        ],
    }
}

/// The default `fleet-sweep` host count — small enough that the golden
/// snapshot stays reviewable, large enough for four independent cells.
pub const FLEET_SWEEP_DEFAULT_HOSTS: usize = 40;

/// The sharded-engine scale sweep: `hosts` 2-die hosts carved into
/// 10-host **cells**, one MLP0-class tenant spread across each cell.
/// Spread placement fills hosts in index order, so the cells are
/// disjoint and the tenant↔host graph has one connected component per
/// cell — exactly the shape the parallel engine shards across cores
/// (and, by the determinism contract, byte-identical to the
/// single-threaded reference at any `--hosts`). A crash/recover pair
/// in each of the first two cells keeps the failure path honest at
/// every scale. The CLI's `--hosts` flag re-parameterizes it
/// (`tpu_cluster run fleet-sweep --hosts 1000`).
///
/// # Panics
///
/// Panics when `hosts` is below 20 (the failure schedule touches the
/// first two cells).
pub fn fleet_sweep(hosts: usize) -> FleetScenario {
    assert!(hosts >= 20, "fleet-sweep needs at least two 10-host cells");
    let cells = hosts / 10;
    let spec = FleetSpec::new(hosts, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(vec![
            FailureEvent::crash(2.0, 3),
            FailureEvent::crash(3.0, 13),
            FailureEvent::recover(5.0, 3),
            FailureEvent::recover(6.0, 13),
        ]);
    let tenants = (0..cells)
        .map(|c| {
            FleetTenantSpec::new(
                timeout_tenant("MLP0", 1_200_000.0, 200, 2.0, 7.0, 2, 20_000)
                    .named(&format!("cell{c:03}")),
                10,
            )
        })
        .collect();
    FleetScenario {
        name: "fleet-sweep",
        description: "10-host MLP0 cells swept over fleet size: one shard per cell",
        topology: None,
        runs: vec![FleetScenarioRun {
            label: "sweep".into(),
            spec,
            tenants,
        }],
    }
}

/// The default `rack-outage` fleet — one 8-host failure-domain cell:
/// two 4-host racks under a single power-domain.
pub const RACK_OUTAGE_DEFAULT_HOSTS: usize = 8;

/// The correlated-failure drill: `hosts` 2-die hosts carved into
/// 8-host **cells** (two 4-host racks to a power-domain, one
/// MLP0-class tenant spread across each cell), run with bounded
/// backed-off retries, a retry budget, and p95 hedging.
///
/// Cell 0 takes a deterministic beating — a whole-rack outage at
/// 0.3 ms via [`FleetTopology::rack_outage`], a front-end partition of
/// the sibling rack (the hosts keep draining, invisible to the
/// router), and a die failure on a freshly recovered host. Fleets
/// beyond the default size (`--hosts`) additionally replay a seeded
/// **correlated** outage schedule ([`seeded_domain_outages`]) across
/// the remaining racks — the schedule the sharded-vs-single
/// differential test replays at 1000 hosts, byte-identical at every
/// worker count.
///
/// # Panics
///
/// Panics when `hosts` is below one 8-host cell.
pub fn rack_outage(hosts: usize) -> FleetScenario {
    assert!(
        hosts >= RACK_OUTAGE_DEFAULT_HOSTS,
        "rack-outage needs at least one 8-host cell"
    );
    let topo = FleetTopology::new(4, 2);
    let cells = hosts / RACK_OUTAGE_DEFAULT_HOSTS;
    // Deterministic faults in cell 0, timed to land inside even a
    // heavily scaled-down run.
    let mut failures = topo.rack_outage(0.30, 0.70, 0, hosts);
    failures.extend(topo.rack_partition(0.75, 1.00, 1, hosts));
    failures.push(FailureEvent::die_fail(0.80, 1, 0));
    failures.push(FailureEvent::die_recover(1.00, 1, 0));
    // A 4x-slow die on the surviving rack while it carries the whole
    // cell: the straggler tail is what the hedges race against.
    failures.push(FailureEvent::die_slow(0.10, 6, 0, 8.0));
    failures.push(FailureEvent::die_slow(0.10, 6, 1, 8.0));
    failures.push(FailureEvent::die_slow(3.00, 6, 0, 1.0));
    failures.push(FailureEvent::die_slow(3.00, 6, 1, 1.0));
    // Larger fleets add seeded rack- and domain-level outages over the
    // remaining cells (empty at the default size).
    failures.extend(
        seeded_domain_outages(42, topo, hosts, 16.0, 60.0, 240.0, 2.0)
            .into_iter()
            .filter(|e| e.host >= RACK_OUTAGE_DEFAULT_HOSTS),
    );
    let retry = RetryPolicy {
        max_attempts: 5,
        backoff_base_ms: 0.2,
        backoff_max_ms: 3.0,
        jitter_frac: 0.2,
        budget: Some(RetryBudget {
            tokens: 256.0,
            refill_per_ms: 16.0,
        }),
        hedge: Some(HedgeConfig {
            min_delay_ms: 0.5,
            quantile: 0.95,
            window: 128,
        }),
    };
    let spec = FleetSpec::new(hosts, 2, 42)
        .with_router(RouterPolicy::LeastOutstanding)
        .with_hop(HopModel::Table5 { scale_ms: 1.0 })
        .with_failures(failures)
        .with_retry(retry);
    let tenants = (0..cells)
        .map(|c| {
            FleetTenantSpec::new(
                timeout_tenant("MLP0", 1_200_000.0, 200, 2.0, 7.0, 2, 60_000)
                    .named(&format!("cell{c:03}")),
                RACK_OUTAGE_DEFAULT_HOSTS,
            )
        })
        .collect();
    FleetScenario {
        name: "rack-outage",
        description: "8-host cells under correlated rack/domain faults: backoff, budget, hedging",
        topology: Some(topo),
        runs: vec![FleetScenarioRun {
            label: "outage".into(),
            spec,
            tenants,
        }],
    }
}

/// The retry-storm contrast: one overcommitted 8-host cell (a
/// priority-3 `critical` tenant plus a priority-1 `bulk` tenant at
/// ~3× its rate) hit by staggered whole-rack outages, run twice over
/// the identical failure schedule —
///
/// * `blind` — the legacy front end: every displaced request retries
///   immediately and unboundedly, so each crash re-amplifies the
///   queue it displaced;
/// * `resilient` — bounded attempts with exponential backoff and
///   seeded jitter, a per-tenant retry budget that breaks the circuit
///   (dropping, and reporting, what it refuses to amplify), and a
///   brownout controller shedding `bulk` admissions while the cell's
///   SLO burn is over threshold.
///
/// The integration tests pin the contrast: the resilient run issues
/// strictly fewer retries and holds strictly higher SLO attainment
/// for `critical` than the blind run.
fn retry_storm() -> FleetScenario {
    let topo = FleetTopology::new(4, 2);
    let hosts = 8;
    // Staggered rack outages: rack 0 dies first, recovers, then rack 1
    // dies — each crash displacing the backlog the previous one built.
    // A die failure on a rack-1 host persists across that host's
    // crash/recover pair (die state survives host restarts). Times sit
    // inside the arrival window even at the goldens' 0.05 scale, so
    // the storm always overlaps admission.
    let mut failures = topo.rack_outage(1.0, 2.5, 0, hosts);
    failures.extend(topo.rack_outage(3.0, 4.5, 1, hosts));
    failures.push(FailureEvent::die_fail(2.6, 5, 0));
    failures.push(FailureEvent::die_recover(5.0, 5, 0));
    let spec = || {
        FleetSpec::new(hosts, 2, 42)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_hop(HopModel::Table5 { scale_ms: 1.0 })
            .with_failures(failures.clone())
    };
    // Short batching timeouts keep queues shallow (a crash displaces
    // at most a timeout's worth of backlog); the tight 2 ms SLO on
    // `critical` is what the storm threatens.
    let tenants = || {
        vec![
            FleetTenantSpec::new(
                timeout_tenant("MLP0", 600_000.0, 64, 0.3, 1.2, 3, 72_000).named("critical"),
                hosts,
            ),
            FleetTenantSpec::new(
                timeout_tenant("MLP0", 3_300_000.0, 200, 0.5, 2.5, 1, 400_000).named("bulk"),
                hosts,
            ),
        ]
    };
    let retry = RetryPolicy {
        max_attempts: 4,
        backoff_base_ms: 0.1,
        backoff_max_ms: 1.0,
        jitter_frac: 0.25,
        budget: Some(RetryBudget {
            tokens: 1024.0,
            refill_per_ms: 64.0,
        }),
        hedge: None,
    };
    let brownout = BrownoutConfig {
        max_priority_shed: 1,
        slo_burn_threshold: 0.4,
        window: 32,
        clear_threshold: 0.15,
        min_trip_ms: 0.5,
    };
    FleetScenario {
        name: "retry-storm",
        description:
            "staggered rack outages, 2 tenants: blind infinite retry vs backoff+budget+shedding",
        topology: Some(topo),
        runs: vec![
            FleetScenarioRun {
                label: "blind".into(),
                spec: spec(),
                tenants: tenants(),
            },
            FleetScenarioRun {
                label: "resilient".into(),
                spec: spec().with_retry(retry).with_brownout(brownout),
                tenants: tenants(),
            },
        ],
    }
}

/// All named scenarios, in CLI listing order.
pub fn all_scenarios() -> Vec<FleetScenario> {
    vec![
        fleet_steady(),
        diurnal_autoscale(),
        trace_replay(),
        host_failover(),
        router_shootout(),
        straggler_tail(),
        colocate_interference(),
        colocate_vs_dedicated(),
        fleet_sweep(FLEET_SWEEP_DEFAULT_HOSTS),
        rack_outage(RACK_OUTAGE_DEFAULT_HOSTS),
        retry_storm(),
    ]
}

/// Look a scenario up by its CLI name.
pub fn scenario_by_name(name: &str) -> Option<FleetScenario> {
    all_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_resolves_by_name() {
        for s in all_scenarios() {
            assert!(scenario_by_name(s.name).is_some(), "{}", s.name);
            assert!(!s.runs.is_empty(), "{} has no runs", s.name);
        }
        assert!(scenario_by_name("nope").is_none());
    }

    #[test]
    fn seeding_and_scaling_apply_to_every_run() {
        let s = scenario_by_name("router-shootout")
            .unwrap()
            .with_seed(7)
            .scale_requests(0.01);
        for r in &s.runs {
            assert_eq!(r.spec.seed, 7);
            assert_eq!(r.tenants[0].tenant.requests, 1_000);
        }
    }

    #[test]
    fn scaling_up_clamps_recorded_replays_instead_of_panicking() {
        let s = scenario_by_name("trace-replay")
            .unwrap()
            .scale_requests(2.0);
        let synth = &s.runs[0].tenants[0].tenant;
        let replay = &s.runs[1].tenants[0].tenant;
        assert_eq!(synth.requests, 80_000, "synthetic tenants scale freely");
        assert_eq!(replay.requests, 40_000, "replays cap at the recording");
    }

    #[test]
    fn trace_replay_scenario_reproduces_its_synthetic_run_bit_for_bit() {
        let cfg = TpuConfig::paper();
        let s = scenario_by_name("trace-replay")
            .unwrap()
            .scale_requests(0.1);
        let runs = s.execute(&cfg);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, "synthetic");
        assert_eq!(runs[1].0, "replay");
        assert_eq!(
            format!("{}", runs[0].1.report),
            format!("{}", runs[1].1.report),
            "replaying the recorded streams must reproduce the synthetic report"
        );
        assert_eq!(
            runs[0].1.report.to_json().to_string(),
            runs[1].1.report.to_json().to_string()
        );
    }

    #[test]
    fn colocated_runs_swap_and_swap_affinity_routing_reduces_it() {
        let cfg = TpuConfig::paper();
        let s = scenario_by_name("colocate-interference")
            .unwrap()
            .scale_requests(0.2);
        let runs = s.execute(&cfg);
        assert_eq!(runs.len(), 2);
        let blind = &runs[0].1.report;
        let aware = &runs[1].1.report;
        assert!(blind.colocated && aware.colocated);
        let swaps =
            |r: &crate::report::FleetReport| -> usize { r.tenants.iter().map(|t| t.swaps).sum() };
        assert!(swaps(blind) > 0, "co-located dies must swap");
        assert!(
            swaps(aware) < swaps(blind),
            "swap-affinity routing must reduce swaps: {} vs {}",
            swaps(aware),
            swaps(blind)
        );
    }

    #[test]
    fn fleet_steady_executes_within_slo_when_scaled_down() {
        let cfg = TpuConfig::paper();
        let s = scenario_by_name("fleet-steady")
            .unwrap()
            .scale_requests(0.05);
        let runs = s.execute(&cfg);
        assert_eq!(runs.len(), 1);
        let r = &runs[0].1.report;
        assert_eq!(r.tenants.len(), 3);
        for t in &r.tenants {
            assert!(
                t.slo_attainment > 0.95,
                "{}: attainment {} (p99 {} vs SLO {})",
                t.name,
                t.slo_attainment,
                t.p99_ms,
                t.slo_ms
            );
        }
    }
}

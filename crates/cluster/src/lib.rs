//! # tpu-cluster — fleet-level multi-host serving simulation
//!
//! The TPU paper analyzes one accelerator card, but its motivating
//! context is datacenter-scale inference under tight p99 bounds. This
//! crate is the layer above `tpu_serve`'s single-host runtime: a fleet
//! of TPU hosts under **one** simulated clock, with the concerns a
//! production serving stack actually has —
//!
//! * [`fleet`] — topology and model placement: each Table 1 workload is
//!   replicated across hosts, charged its full weight footprint against
//!   per-host weight-memory capacity (the paper's 8 GiB DDR3). Opt-in
//!   **multi-model co-location** ([`fleet::ColocateConfig`]) switches
//!   placement to a bin-packing planner balancing weight memory *and*
//!   expected load, and charges the deterministic DDR3 weight-swap
//!   stall (`tpu_serve::weights`) whenever a die changes models;
//! * [`route`] — front-end routing: round-robin,
//!   least-outstanding-requests, and consistent hashing with bounded
//!   load, all deterministic;
//! * [`autoscale`] — a reactive controller that adds and drains
//!   replicas from windowed per-tenant p99 and utilization signals,
//!   with cooldowns;
//! * [`failure`] — seeded, deterministic failure schedules: host
//!   crashes (queued *and* in-flight work retried on survivors), slow
//!   stragglers, recoveries, front-end↔host partitions, and die-level
//!   partial degradation — validated up front by
//!   [`failure::validate_schedule`];
//! * [`topology`] — failure-domain containment (die ⊂ host ⊂ rack ⊂
//!   power-domain) with seeded **correlated** outage generation
//!   ([`topology::seeded_domain_outages`]);
//! * [`resilience`] — opt-in retry policies (bounded attempts,
//!   deterministic exponential backoff with seeded jitter, per-tenant
//!   retry budgets), request hedging with first-wins cancellation, and
//!   brownout load-shedding ([`resilience::RetryPolicy`],
//!   [`resilience::BrownoutConfig`]);
//! * [`engine`] — the fleet event loop tying it together over the
//!   event core extracted into `tpu_serve::sim`. One `FleetState` holds
//!   a run's (or a shard's) hosts, tenants, event queue and tallies,
//!   with one handler per event variant; a new event is a variant, a
//!   profile name and a handler;
//! * [`report`] — fleet-wide per-tenant tails, SLO attainment, per-host
//!   utilization, and replica-count timelines, as text or JSON —
//!   bit-identical for a fixed seed;
//! * [`scenario`] — named experiments (`fleet-steady`,
//!   `diurnal-autoscale`, `trace-replay`, `host-failover`,
//!   `router-shootout`, `straggler-tail`, `colocate-interference`,
//!   `colocate-vs-dedicated`, `fleet-sweep`, `rack-outage`,
//!   `retry-storm`) behind the `tpu_cluster` CLI, which also ships a
//!   `place` inspector printing any scenario's
//!   [`fleet::PlacementPlan`] without simulating.
//!
//! The engine runs **multi-core by default**: the connected components
//! of the tenant↔host placement graph are independent sub-simulations,
//! so eligible fleets (no autoscaler, no live telemetry) shard across
//! worker threads and merge — byte-identical to the single-threaded
//! reference for every seed and worker count. [`run_fleet_on`] takes the
//! engine as an argument ([`FleetEngine`]) for the tests that compare
//! the two.
//!
//! The front end draws its request streams from
//! `tpu_serve::workload` — any [`tpu_serve::workload::ArrivalSource`]
//! (Poisson, bursty/MMPP, piecewise-linear diurnal, recorded-trace
//! replay) plugs into the fleet, and any scenario's streams can be
//! recorded to a versioned `tpu-trace` file (`tpu_cluster trace
//! record`) and replayed bit-identically here or through `tpu_serve`
//! (`--trace`).
//!
//! The anchor invariant: a 1-host, 1-replica fleet with zero-cost hops
//! replays `tpu_serve::run`'s event sequence **exactly** — same seed
//! derivation, same event order, same report, bit for bit. The
//! integration tests pin it, which keeps every fleet mechanism anchored
//! to the single-host runtime the paper's serving data calibrated.
//!
//! ```
//! use tpu_cluster::{run_fleet, FleetSpec, FleetTenantSpec};
//! use tpu_serve::tenant::ArrivalProcess;
//! use tpu_serve::{BatchPolicy, TenantSpec};
//!
//! let cfg = tpu_core::TpuConfig::paper();
//! let tenant = TenantSpec::new(
//!     "MLP0",
//!     ArrivalProcess::Poisson { rate_rps: 200_000.0 },
//!     BatchPolicy::Timeout { max_batch: 200, t_max_ms: 2.0 },
//!     7.0,
//!     5_000,
//! );
//! let fleet = FleetSpec::new(2, 2, 42);
//! let run = run_fleet(&fleet, &[FleetTenantSpec::new(tenant, 2)], &cfg);
//! assert!(run.report.tenant("MLP0").unwrap().slo_attainment > 0.99);
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod engine;
pub mod failure;
pub mod fleet;
pub mod report;
pub mod resilience;
pub mod route;
pub mod scenario;
mod shard;
pub mod topology;

pub use autoscale::{AutoscaleConfig, ScaleSignals};
pub use engine::{run_fleet, run_fleet_on, run_fleet_telemetry, FleetEngine, FleetRun};
pub use failure::{seeded_outages, validate_schedule, FailureEvent, FailureKind};
pub use fleet::{
    place, plan_placement, ColocateConfig, FleetSpec, FleetTenantSpec, HopModel, HostPlacement,
    HostSpec, PlacementPlan, PlacementPolicy,
};
pub use report::{FleetHostReport, FleetReport, FleetTenantReport, ReplicaSample};
pub use resilience::{BrownoutConfig, HedgeConfig, RetryBudget, RetryPolicy};
pub use route::{OutstandingIndex, RouterPolicy};
pub use scenario::{
    all_scenarios, fleet_sweep, rack_outage, scenario_by_name, FleetScenario, FleetScenarioRun,
    FLEET_SWEEP_DEFAULT_HOSTS, RACK_OUTAGE_DEFAULT_HOSTS,
};
pub use topology::{seeded_domain_outages, FleetTopology};

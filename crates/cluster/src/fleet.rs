//! Fleet topology: hosts, replicated tenants, network hops, and model
//! placement under weight-memory capacity constraints.
//!
//! A fleet is a set of TPU hosts (each a [`tpu_serve::HostCore`] die
//! pool) plus the front-end configuration: the routing policy, the
//! per-hop latency model, an optional autoscaler, and a failure
//! schedule. Placement replicates each Table 1 workload across hosts,
//! charging each replica the workload's full 8-bit weight footprint
//! ([`tpu_nn::model::NnModel::total_weights`]) against the host's
//! weight-memory capacity — the paper's TPU carries 8 GiB of DDR3
//! weight DRAM, which is the default budget here.

use crate::autoscale::AutoscaleConfig;
use crate::failure::FailureEvent;
use crate::resilience::{BrownoutConfig, RetryPolicy};
use crate::route::RouterPolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use tpu_core::TpuConfig;
use tpu_platforms::server::Dispatch;
use tpu_platforms::HostOverhead;
use tpu_serve::tenant::resolve_workload;
use tpu_serve::weights::{swap_cost_ms, WeightSet};
use tpu_serve::TenantSpec;

/// The paper's TPU weight-memory budget: 8 GiB of DDR3 (the single
/// definition lives in `tpu_serve::weights`, shared with the swap-cost
/// model).
pub const DEFAULT_WEIGHT_CAPACITY_BYTES: u64 = tpu_serve::weights::DDR3_CAPACITY_BYTES;

/// One TPU host of the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Accelerator dies behind this host.
    pub dies: usize,
    /// How the host routes ready batches to free dies.
    pub dispatch: Dispatch,
    /// Weight-memory capacity, bytes (8-bit weights).
    pub weight_capacity_bytes: u64,
}

impl HostSpec {
    /// A host with `dies` dies, least-loaded dispatch, and the paper's
    /// 8 GiB weight memory.
    pub fn new(dies: usize) -> Self {
        HostSpec {
            dies,
            dispatch: Dispatch::LeastLoaded,
            weight_capacity_bytes: DEFAULT_WEIGHT_CAPACITY_BYTES,
        }
    }

    /// Override the weight-memory capacity.
    pub fn with_weight_capacity(mut self, bytes: u64) -> Self {
        self.weight_capacity_bytes = bytes;
        self
    }
}

/// The front-end → host network/PCIe hop latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HopModel {
    /// Zero-cost hops: requests reach the host queue instantly. A
    /// 1-host fleet with this model reproduces `tpu_serve` bit for bit.
    None,
    /// Hop latency derived from the Table 5 host-interaction data: each
    /// hop costs `scale_ms` × the workload's measured host-overhead
    /// fraction (e.g. MLP0's 21% → 0.21 ms at scale 1.0). Heavier
    /// host-interaction workloads pay proportionally more per hop.
    Table5 {
        /// Milliseconds per unit of Table 5 overhead fraction.
        scale_ms: f64,
    },
}

impl HopModel {
    /// The hop latency for one workload, ms.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name (Table 5 is keyed by name).
    pub fn hop_ms(&self, workload: &str) -> f64 {
        match *self {
            HopModel::None => 0.0,
            HopModel::Table5 { scale_ms } => {
                assert!(scale_ms >= 0.0, "hop scale must be nonnegative");
                scale_ms * HostOverhead::for_app(workload).fraction
            }
        }
    }
}

/// One tenant of the fleet: a `tpu_serve` tenant spec plus replication
/// bounds. `tenant.requests` is the tenant's *fleet-wide* request
/// count; the router spreads it across replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTenantSpec {
    /// The workload, arrival process, policy, priority, and SLO.
    pub tenant: TenantSpec,
    /// Replicas placed at simulation start.
    pub replicas: usize,
    /// Autoscaler floor (≥ 1).
    pub min_replicas: usize,
    /// Autoscaler ceiling.
    pub max_replicas: usize,
}

impl FleetTenantSpec {
    /// A tenant with a fixed replica count (autoscaler bounds pinned to
    /// `replicas`).
    ///
    /// # Panics
    ///
    /// Panics on zero replicas.
    pub fn new(tenant: TenantSpec, replicas: usize) -> Self {
        assert!(replicas > 0, "tenant {} needs a replica", tenant.name);
        FleetTenantSpec {
            tenant,
            replicas,
            min_replicas: replicas,
            max_replicas: replicas,
        }
    }

    /// Let the autoscaler move the replica count within `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min <= replicas <= max`.
    pub fn with_replica_bounds(mut self, min: usize, max: usize) -> Self {
        assert!(
            1 <= min && min <= self.replicas && self.replicas <= max,
            "replica bounds must satisfy 1 <= min <= start <= max"
        );
        self.min_replicas = min;
        self.max_replicas = max;
        self
    }

    /// The replica's weight-memory footprint, bytes (8-bit weights).
    pub fn weight_bytes(&self) -> u64 {
        resolve_workload(&self.tenant.workload)
            .expect("validated at TenantSpec construction")
            .total_weights()
    }
}

/// How the initial placement plan is computed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The legacy spread planner: tenants in declaration order, each
    /// replica on the eligible host carrying the fewest slots so far
    /// (ties by index). Replicas of one tenant land on distinct hosts.
    Spread,
    /// Best-fit-decreasing bin packing with a combined objective:
    /// replicas are placed heaviest-footprint first, each on the
    /// feasible host minimizing `mem_weight × weight-memory fill +
    /// load_weight × expected die utilization` after the placement
    /// (ties by host index). Balances the 8 GiB DDR3 budget *and* the
    /// expected per-tenant load instead of just spreading slots.
    BinPack {
        /// Weight of the weight-memory fill term (≥ 0).
        mem_weight: f64,
        /// Weight of the expected-die-utilization term (≥ 0).
        load_weight: f64,
    },
}

impl PlacementPolicy {
    /// Reject degenerate objectives up front.
    ///
    /// # Panics
    ///
    /// Panics on negative or all-zero `BinPack` weights.
    pub fn validate(&self) {
        if let PlacementPolicy::BinPack {
            mem_weight,
            load_weight,
        } = *self
        {
            assert!(
                mem_weight >= 0.0 && load_weight >= 0.0,
                "bin-pack objective weights must be nonnegative"
            );
            assert!(
                mem_weight + load_weight > 0.0,
                "bin-pack objective needs at least one positive weight"
            );
        }
    }
}

/// Opt-in multi-model co-location. When set, the fleet charges the
/// DDR3-derived weight-swap stall whenever a die dispatches a batch
/// for a model other than the one its weight FIFO last streamed (see
/// `tpu_serve::weights`), the placement plan comes from
/// [`ColocateConfig::placement`], and the fleet report gains per-host
/// residency/swap columns and per-tenant swap counters. When `None`
/// (the default), every run is byte-identical to the pre-subsystem
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColocateConfig {
    /// The placement planner for the initial plan (autoscaling always
    /// adds replicas greedily, as before).
    pub placement: PlacementPolicy,
    /// Scale on the calibrated swap cost (1.0 = the Table 2 DDR3
    /// bandwidth with the Table 5 host-overhead inflation).
    pub swap_scale: f64,
}

impl ColocateConfig {
    /// Co-location under `placement` with the calibrated swap cost.
    pub fn new(placement: PlacementPolicy) -> Self {
        ColocateConfig {
            placement,
            swap_scale: 1.0,
        }
    }

    /// Bin packing with equal memory/load objective weights — the
    /// default co-located planner.
    pub fn bin_packed() -> Self {
        Self::new(PlacementPolicy::BinPack {
            mem_weight: 1.0,
            load_weight: 1.0,
        })
    }

    /// Scale the swap cost (scenarios sweep it).
    pub fn with_swap_scale(mut self, scale: f64) -> Self {
        self.swap_scale = scale;
        self
    }

    /// Reject degenerate configurations up front.
    ///
    /// # Panics
    ///
    /// Panics on a nonpositive or non-finite swap scale or a degenerate
    /// placement objective.
    pub fn validate(&self) {
        assert!(
            self.swap_scale > 0.0 && self.swap_scale.is_finite(),
            "swap scale must be positive and finite"
        );
        self.placement.validate();
    }
}

/// The whole fleet: hosts plus front-end configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// The hosts, in index order.
    pub hosts: Vec<HostSpec>,
    /// Master seed; host service streams, tenant arrival streams, and
    /// failure schedules all derive from it.
    pub seed: u64,
    /// Front-end routing policy.
    pub router: RouterPolicy,
    /// Network/PCIe hop latency model.
    pub hop: HopModel,
    /// Reactive autoscaler; `None` freezes replica counts.
    pub autoscale: Option<AutoscaleConfig>,
    /// Failure injection schedule (crashes, stragglers, recoveries).
    pub failures: Vec<FailureEvent>,
    /// Multi-model co-location; `None` (the default) keeps the legacy
    /// whole-replica behaviour bit for bit.
    pub colocate: Option<ColocateConfig>,
    /// Retry policy for displaced work; `None` (the default) keeps the
    /// legacy immediate-infinite retry bit for bit.
    pub retry: Option<RetryPolicy>,
    /// Brownout load-shedding; `None` (the default) admits everything.
    pub brownout: Option<BrownoutConfig>,
}

impl FleetSpec {
    /// A uniform fleet: `hosts` hosts of `dies_per_host` dies each,
    /// least-outstanding routing, zero-cost hops, no autoscaler, no
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet.
    pub fn new(hosts: usize, dies_per_host: usize, seed: u64) -> Self {
        assert!(hosts > 0, "need at least one host");
        FleetSpec {
            hosts: (0..hosts).map(|_| HostSpec::new(dies_per_host)).collect(),
            seed,
            router: RouterPolicy::LeastOutstanding,
            hop: HopModel::None,
            autoscale: None,
            failures: Vec::new(),
            colocate: None,
            retry: None,
            brownout: None,
        }
    }

    /// Select the routing policy.
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Select the hop latency model.
    pub fn with_hop(mut self, hop: HopModel) -> Self {
        self.hop = hop;
        self
    }

    /// Enable the reactive autoscaler.
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Install a failure schedule.
    pub fn with_failures(mut self, failures: Vec<FailureEvent>) -> Self {
        self.failures = failures;
        self
    }

    /// Opt in to multi-model co-location (weight-swap costs, the
    /// configured placement planner, residency/swap reporting).
    pub fn with_colocate(mut self, colocate: ColocateConfig) -> Self {
        colocate.validate();
        self.colocate = Some(colocate);
        self
    }

    /// Opt in to bounded, backed-off retries (with optional budget and
    /// hedging) instead of the legacy immediate-infinite retry.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.validate();
        self.retry = Some(retry);
        self
    }

    /// Opt in to brownout load-shedding of low-priority admissions
    /// under SLO burn.
    pub fn with_brownout(mut self, brownout: BrownoutConfig) -> Self {
        brownout.validate();
        self.brownout = Some(brownout);
        self
    }

    /// The placement planner in force: the colocate config's, or the
    /// legacy spread planner.
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.colocate
            .map(|c| c.placement)
            .unwrap_or(PlacementPolicy::Spread)
    }
}

/// Plan initial placement: for each tenant in declaration order, place
/// each replica on the eligible host (enough free weight memory, not
/// already hosting the tenant) carrying the fewest replicas so far,
/// breaking ties by host index. Returns `plan[tenant][replica] = host`.
///
/// Hosts wait in a `(slots, host)` ordered set, so a pick walks only
/// past hosts too full for the tenant (all of them, at worst); a host
/// leaves the set while it holds the tenant being placed.
///
/// # Panics
///
/// Panics when a replica cannot be placed — the error names the
/// tenant, its footprint, and the per-host free memory so capacity
/// bugs in scenario definitions surface immediately.
pub fn place(hosts: &[HostSpec], tenants: &[FleetTenantSpec]) -> Vec<Vec<usize>> {
    let mut used = vec![0u64; hosts.len()];
    let mut slots = vec![0usize; hosts.len()];
    let mut by_slots: BTreeSet<(usize, usize)> = (0..hosts.len()).map(|h| (0, h)).collect();
    let mut plan = Vec::with_capacity(tenants.len());
    for t in tenants {
        let w = t.weight_bytes();
        let mut mine = Vec::with_capacity(t.replicas);
        for r in 0..t.replicas {
            let host = by_slots
                .iter()
                .map(|&(_, h)| h)
                .find(|&h| used[h] + w <= hosts[h].weight_capacity_bytes)
                .unwrap_or_else(|| {
                    panic!(
                        "cannot place replica {r} of tenant {} ({w} weight bytes): \
                         free per host = {:?}",
                        t.tenant.name,
                        hosts
                            .iter()
                            .enumerate()
                            .map(|(h, s)| s.weight_capacity_bytes.saturating_sub(used[h]))
                            .collect::<Vec<_>>()
                    )
                });
            by_slots.remove(&(slots[host], host));
            used[host] += w;
            slots[host] += 1;
            mine.push(host);
        }
        by_slots.extend(mine.iter().map(|&h| (slots[h], h)));
        plan.push(mine);
    }
    plan
}

/// The deterministic weight-swap stall one of `tenant`'s batches pays
/// when its die changes models: the Table 1 footprint streamed at the
/// configured DDR3 bandwidth, inflated by the workload's Table 5
/// host-interaction fraction and the colocate `swap_scale`.
pub fn tenant_swap_ms(tenant: &FleetTenantSpec, cfg: &TpuConfig, swap_scale: f64) -> f64 {
    swap_cost_ms(
        tenant.weight_bytes(),
        cfg,
        HostOverhead::for_app(&tenant.tenant.workload).fraction,
        swap_scale,
    )
}

/// The expected die-busy seconds per second one replica of `tenant`
/// contributes: its share of the tenant's mean offered rate times the
/// per-request die time at the policy's batch bound. Trace-file-backed
/// tenants (no analytic rate) contribute zero.
pub fn expected_replica_load(tenant: &FleetTenantSpec, cfg: &TpuConfig) -> f64 {
    let Some(rate) = tenant.tenant.arrivals.mean_rate_rps() else {
        return 0.0;
    };
    let per_replica = rate / tenant.replicas as f64;
    let b = tenant.tenant.policy.max_batch();
    let curve = tenant.tenant.effective_curve(cfg);
    per_replica * (curve.service_ms(b) / b as f64) / 1000.0
}

/// One host's share of a [`PlacementPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostPlacement {
    /// Host index.
    pub host: usize,
    /// Dies behind the host.
    pub dies: usize,
    /// Weight bytes the plan places here.
    pub weight_bytes: u64,
    /// The host's weight-memory budget, bytes.
    pub capacity_bytes: u64,
    /// Expected die utilization from the placed replicas, in [0, ∞)
    /// (sum of [`expected_replica_load`] over the replicas ÷ dies).
    pub expected_load: f64,
    /// Tenant names of the placed replicas, in tenant declaration
    /// order.
    pub replicas: Vec<String>,
}

/// An initial placement: which host each tenant replica starts on,
/// plus the per-host residency/load summary the `tpu_cluster place`
/// inspector prints. The engine uses exactly this plan at run start —
/// a property test pins it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// `assignments[tenant][replica]` = host index.
    pub assignments: Vec<Vec<usize>>,
    /// Per-host summaries, in host index order.
    pub hosts: Vec<HostPlacement>,
}

impl PlacementPlan {
    /// The plan as a JSON value (stable key order), for
    /// `tpu_cluster place --json`.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::object([
            (
                "assignments".into(),
                Value::Array(
                    self.assignments
                        .iter()
                        .map(|hosts| {
                            Value::Array(hosts.iter().map(|&h| Value::Number(h as f64)).collect())
                        })
                        .collect(),
                ),
            ),
            (
                "hosts".into(),
                Value::Array(
                    self.hosts
                        .iter()
                        .map(|h| {
                            Value::object([
                                ("host".into(), Value::Number(h.host as f64)),
                                ("dies".into(), Value::Number(h.dies as f64)),
                                ("weight_bytes".into(), Value::Number(h.weight_bytes as f64)),
                                (
                                    "capacity_bytes".into(),
                                    Value::Number(h.capacity_bytes as f64),
                                ),
                                (
                                    "expected_load".into(),
                                    Value::Number((h.expected_load * 1000.0).round() / 1000.0),
                                ),
                                (
                                    "replicas".into(),
                                    Value::Array(
                                        h.replicas
                                            .iter()
                                            .map(|r| Value::String(r.clone()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for PlacementPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<6} {:>5} {:>12} {:>9} {:>10}  replicas",
            "host", "dies", "weight MB", "fill%", "exp. load"
        )?;
        for h in &self.hosts {
            writeln!(
                f,
                "{:<6} {:>5} {:>12.1} {:>8.1}% {:>10.3}  {}",
                h.host,
                h.dies,
                h.weight_bytes as f64 / 1e6,
                100.0 * h.weight_bytes as f64 / h.capacity_bytes.max(1) as f64,
                h.expected_load,
                h.replicas.join(","),
            )?;
        }
        Ok(())
    }
}

/// Compute the initial placement plan the engine will use: the legacy
/// spread planner, or — when the spec opts into co-location — the
/// configured bin-packing planner. Either way every placement is
/// admitted through a `tpu_serve::weights::WeightSet` per host, so no
/// plan can oversubscribe a host's weight memory.
///
/// # Panics
///
/// Panics when a replica cannot be placed (the error names the tenant,
/// its footprint, and per-host free memory).
pub fn plan_placement(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
) -> PlacementPlan {
    let assignments = match spec.placement_policy() {
        PlacementPolicy::Spread => place(&spec.hosts, tenants),
        PlacementPolicy::BinPack {
            mem_weight,
            load_weight,
        } => bin_pack(&spec.hosts, tenants, cfg, mem_weight, load_weight),
    };
    let mut sets: Vec<WeightSet> = spec
        .hosts
        .iter()
        .map(|h| WeightSet::new(h.weight_capacity_bytes))
        .collect();
    let mut loads = vec![0.0f64; spec.hosts.len()];
    let mut replicas: Vec<Vec<String>> = vec![Vec::new(); spec.hosts.len()];
    for (t, ft) in tenants.iter().enumerate() {
        let w = ft.weight_bytes();
        let l = expected_replica_load(ft, cfg);
        for &host in &assignments[t] {
            sets[host]
                .admit(t, w)
                .unwrap_or_else(|e| panic!("planner oversubscribed host {host}: {e}"));
            loads[host] += l;
            replicas[host].push(ft.tenant.name.clone());
        }
    }
    let hosts = spec
        .hosts
        .iter()
        .enumerate()
        .map(|(h, hs)| HostPlacement {
            host: h,
            dies: hs.dies,
            weight_bytes: sets[h].used_bytes(),
            capacity_bytes: hs.weight_capacity_bytes,
            expected_load: loads[h] / hs.dies.max(1) as f64,
            replicas: std::mem::take(&mut replicas[h]),
        })
        .collect();
    PlacementPlan { assignments, hosts }
}

/// Best-fit-decreasing bin packing (see
/// [`PlacementPolicy::BinPack`]): replicas in heaviest-footprint-first
/// order (ties by tenant declaration order), each placed on the
/// feasible host — enough free weight memory, not already hosting the
/// tenant — minimizing the combined fill/load objective, ties by host
/// index. Deterministic: no RNG, stable orderings throughout.
///
/// # Panics
///
/// Panics when a replica cannot be placed.
fn bin_pack(
    hosts: &[HostSpec],
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    mem_weight: f64,
    load_weight: f64,
) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    // Heaviest model first (classic BFD); stable, so equal footprints
    // keep declaration order.
    order.sort_by_key(|&t| std::cmp::Reverse(tenants[t].weight_bytes()));
    let mut sets: Vec<WeightSet> = hosts
        .iter()
        .map(|h| WeightSet::new(h.weight_capacity_bytes))
        .collect();
    let mut loads = vec![0.0f64; hosts.len()];
    // `holder[h] == t` iff host `h` already holds a replica of tenant `t`.
    let mut holder = vec![usize::MAX; hosts.len()];
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); tenants.len()];
    for &t in &order {
        let ft = &tenants[t];
        let w = ft.weight_bytes();
        let l = expected_replica_load(ft, cfg);
        for r in 0..ft.replicas {
            let host = hosts
                .iter()
                .enumerate()
                .filter(|(h, _)| holder[*h] != t && sets[*h].fits(w))
                .map(|(h, hs)| {
                    let fill =
                        (sets[h].used_bytes() + w) as f64 / hs.weight_capacity_bytes.max(1) as f64;
                    let util = (loads[h] + l) / hs.dies.max(1) as f64;
                    (mem_weight * fill + load_weight * util, h)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, h)| h)
                .unwrap_or_else(|| {
                    panic!(
                        "cannot bin-pack replica {r} of tenant {} ({w} weight bytes): \
                         free per host = {:?}",
                        ft.tenant.name,
                        sets.iter().map(WeightSet::free_bytes).collect::<Vec<_>>()
                    )
                });
            sets[host]
                .admit(t, w)
                .expect("feasibility checked by the filter");
            loads[host] += l;
            holder[host] = t;
            plan[t].push(host);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_serve::tenant::ArrivalProcess;
    use tpu_serve::BatchPolicy;

    fn tenant(workload: &str, replicas: usize) -> FleetTenantSpec {
        FleetTenantSpec::new(
            TenantSpec::new(
                workload,
                ArrivalProcess::Poisson { rate_rps: 1000.0 },
                BatchPolicy::Fixed { batch: 8 },
                7.0,
                100,
            ),
            replicas,
        )
    }

    #[test]
    fn placement_spreads_replicas_across_distinct_hosts() {
        let hosts: Vec<HostSpec> = (0..4).map(|_| HostSpec::new(2)).collect();
        let plan = place(&hosts, &[tenant("MLP0", 3), tenant("LSTM0", 2)]);
        assert_eq!(plan[0], vec![0, 1, 2]);
        // LSTM0 prefers the emptiest host (3), then the least-loaded
        // remaining one by index.
        assert_eq!(plan[1], vec![3, 0]);
        let mut all = plan[0].clone();
        all.dedup();
        assert_eq!(all.len(), 3, "replicas of one tenant on distinct hosts");
    }

    #[test]
    fn placement_respects_weight_capacity() {
        // CNN1 carries ~86M weights, MLP0 20M. A 90 MB host fits one
        // CNN1 replica and nothing more, so MLP0 lands on host 2.
        let small = HostSpec::new(1).with_weight_capacity(90_000_000);
        let plan = place(
            &[small.clone(), small.clone(), small],
            &[tenant("CNN1", 2), tenant("MLP0", 1)],
        );
        assert_eq!(plan[0], vec![0, 1]);
        assert_eq!(plan[1], vec![2], "only host 2 has 20M free");
    }

    #[test]
    #[should_panic(expected = "cannot place replica 1")]
    fn capacity_exhaustion_blocks_the_second_replica() {
        let small = HostSpec::new(1).with_weight_capacity(90_000_000);
        let _ = place(
            &[small.clone(), small.clone(), small],
            &[tenant("CNN1", 2), tenant("MLP0", 2)],
        );
    }

    #[test]
    #[should_panic(expected = "cannot place replica")]
    fn infeasible_placement_panics_with_context() {
        let tiny = HostSpec::new(1).with_weight_capacity(1_000_000);
        let _ = place(&[tiny], &[tenant("CNN1", 1)]);
    }

    fn spec_with(hosts: usize, dies: usize) -> FleetSpec {
        FleetSpec::new(hosts, dies, 42)
    }

    #[test]
    fn spread_plan_matches_the_legacy_placer_exactly() {
        let cfg = TpuConfig::paper();
        let spec = spec_with(4, 2);
        let tenants = [tenant("MLP0", 3), tenant("LSTM0", 2)];
        let plan = plan_placement(&spec, &tenants, &cfg);
        assert_eq!(plan.assignments, place(&spec.hosts, &tenants));
        assert_eq!(plan.hosts.len(), 4);
        let placed: usize = plan.hosts.iter().map(|h| h.replicas.len()).sum();
        assert_eq!(placed, 5);
        // MLP0 (20M weights) on hosts 0-2, LSTM0 (52M) on 3 and 0.
        assert_eq!(plan.hosts[0].replicas, vec!["MLP0", "LSTM0"]);
        assert_eq!(
            plan.hosts[0].weight_bytes,
            tenants[0].weight_bytes() + tenants[1].weight_bytes()
        );
    }

    #[test]
    fn bin_pack_places_heaviest_models_first_and_respects_capacity() {
        let cfg = TpuConfig::paper();
        // Hosts that fit CNN1 (~100M) plus one small model, nothing more.
        let mut spec = spec_with(3, 2).with_colocate(ColocateConfig::bin_packed());
        for h in &mut spec.hosts {
            h.weight_capacity_bytes = 130_000_000;
        }
        let tenants = [tenant("MLP0", 2), tenant("CNN1", 2), tenant("MLP1", 1)];
        let plan = plan_placement(&spec, &tenants, &cfg);
        for h in &plan.hosts {
            assert!(
                h.weight_bytes <= h.capacity_bytes,
                "host {} oversubscribed: {} > {}",
                h.host,
                h.weight_bytes,
                h.capacity_bytes
            );
        }
        // CNN1's two replicas land on distinct hosts despite being
        // placed first (heaviest).
        assert_eq!(plan.assignments[1].len(), 2);
        assert_ne!(plan.assignments[1][0], plan.assignments[1][1]);
    }

    #[test]
    fn bin_pack_load_objective_separates_hot_tenants() {
        let cfg = TpuConfig::paper();
        // Two equally heavy, hot tenants and plenty of memory: the
        // load term must spread them over both hosts rather than
        // stacking one host.
        let spec = spec_with(2, 2).with_colocate(ColocateConfig::new(PlacementPolicy::BinPack {
            mem_weight: 0.0,
            load_weight: 1.0,
        }));
        let mk = |name: &str| {
            let mut t = tenant("MLP0", 1);
            t.tenant = t.tenant.named(name);
            t
        };
        let tenants = [mk("hot-a"), mk("hot-b")];
        let plan = plan_placement(&spec, &tenants, &cfg);
        assert_ne!(
            plan.assignments[0][0], plan.assignments[1][0],
            "load-aware packing must not stack both hot tenants: {plan}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot bin-pack replica")]
    fn bin_pack_panics_with_context_when_infeasible() {
        let cfg = TpuConfig::paper();
        let mut spec = spec_with(1, 1).with_colocate(ColocateConfig::bin_packed());
        spec.hosts[0].weight_capacity_bytes = 1_000_000;
        let _ = plan_placement(&spec, &[tenant("CNN1", 1)], &cfg);
    }

    #[test]
    fn swap_cost_tracks_footprint_and_table5_overhead() {
        let cfg = TpuConfig::paper();
        let mlp0 = tenant_swap_ms(&tenant("MLP0", 1), &cfg, 1.0);
        let cnn1 = tenant_swap_ms(&tenant("CNN1", 1), &cfg, 1.0);
        assert!(mlp0 > 0.0);
        // CNN1 carries ~5x MLP0's weights; overhead fractions differ
        // (0.14 vs 0.21) but the footprint dominates.
        assert!(cnn1 > 3.0 * mlp0, "CNN1 {cnn1} vs MLP0 {mlp0}");
        assert_eq!(tenant_swap_ms(&tenant("MLP0", 1), &cfg, 2.0), 2.0 * mlp0);
    }

    #[test]
    fn expected_replica_load_divides_by_replicas() {
        let cfg = TpuConfig::paper();
        let one = expected_replica_load(&tenant("MLP0", 1), &cfg);
        let four = expected_replica_load(&tenant("MLP0", 4), &cfg);
        assert!(one > 0.0);
        assert!((one / four - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "swap scale must be positive")]
    fn degenerate_colocate_config_is_rejected() {
        let _ = spec_with(1, 1).with_colocate(ColocateConfig::bin_packed().with_swap_scale(0.0));
    }

    #[test]
    fn placement_plan_renders_text_and_json() {
        let cfg = TpuConfig::paper();
        let spec = spec_with(2, 2).with_colocate(ColocateConfig::bin_packed());
        let plan = plan_placement(&spec, &[tenant("MLP0", 2), tenant("LSTM0", 1)], &cfg);
        let text = format!("{plan}");
        for needle in ["host", "weight MB", "exp. load", "MLP0"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let json = serde_json::to_string(&plan.to_json());
        for needle in ["\"assignments\"", "\"capacity_bytes\"", "\"expected_load\""] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn table5_hops_scale_with_host_overhead() {
        let hop = HopModel::Table5 { scale_ms: 2.0 };
        assert!((hop.hop_ms("MLP0") - 0.42).abs() < 1e-12);
        assert!((hop.hop_ms("MLP1") - 1.52).abs() < 1e-12);
        assert_eq!(HopModel::None.hop_ms("CNN0"), 0.0);
    }

    #[test]
    fn replica_bounds_validate() {
        let t = tenant("MLP0", 3).with_replica_bounds(2, 6);
        assert_eq!((t.min_replicas, t.max_replicas), (2, 6));
    }

    #[test]
    #[should_panic(expected = "replica bounds")]
    fn bad_replica_bounds_rejected() {
        let _ = tenant("MLP0", 3).with_replica_bounds(4, 6);
    }

    /// Reference for [`place`]: every host tested on every pick, and a
    /// linear scan of the tenant's hosts so far to exclude them.
    fn place_by_scan(hosts: &[HostSpec], tenants: &[FleetTenantSpec]) -> Vec<Vec<usize>> {
        let mut used = vec![0u64; hosts.len()];
        let mut slots = vec![0usize; hosts.len()];
        let mut plan = Vec::with_capacity(tenants.len());
        for t in tenants {
            let w = t.weight_bytes();
            let mut mine = Vec::with_capacity(t.replicas);
            for r in 0..t.replicas {
                let host = hosts
                    .iter()
                    .enumerate()
                    .filter(|(h, spec)| {
                        !mine.contains(h) && used[*h] + w <= spec.weight_capacity_bytes
                    })
                    .min_by_key(|(h, _)| (slots[*h], *h))
                    .map(|(h, _)| h)
                    .unwrap_or_else(|| {
                        panic!(
                            "cannot place replica {r} of tenant {} ({w} weight bytes): \
                             free per host = {:?}",
                            t.tenant.name,
                            hosts
                                .iter()
                                .enumerate()
                                .map(|(h, s)| s.weight_capacity_bytes.saturating_sub(used[h]))
                                .collect::<Vec<_>>()
                        )
                    });
                used[host] += w;
                slots[host] += 1;
                mine.push(host);
            }
            plan.push(mine);
        }
        plan
    }

    /// Reference for [`bin_pack`]: excludes a tenant's hosts by a linear
    /// scan of its replicas placed so far.
    fn bin_pack_by_scan(
        hosts: &[HostSpec],
        tenants: &[FleetTenantSpec],
        cfg: &TpuConfig,
        mem_weight: f64,
        load_weight: f64,
    ) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(tenants[t].weight_bytes()));
        let mut sets: Vec<WeightSet> = hosts
            .iter()
            .map(|h| WeightSet::new(h.weight_capacity_bytes))
            .collect();
        let mut loads = vec![0.0f64; hosts.len()];
        let mut plan: Vec<Vec<usize>> = vec![Vec::new(); tenants.len()];
        for &t in &order {
            let ft = &tenants[t];
            let w = ft.weight_bytes();
            let l = expected_replica_load(ft, cfg);
            for r in 0..ft.replicas {
                let host = hosts
                    .iter()
                    .enumerate()
                    .filter(|(h, _)| !plan[t].contains(h) && sets[*h].fits(w))
                    .map(|(h, hs)| {
                        let fill = (sets[h].used_bytes() + w) as f64
                            / hs.weight_capacity_bytes.max(1) as f64;
                        let util = (loads[h] + l) / hs.dies.max(1) as f64;
                        (mem_weight * fill + load_weight * util, h)
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(_, h)| h)
                    .unwrap_or_else(|| {
                        panic!(
                            "cannot bin-pack replica {r} of tenant {} ({w} weight bytes): \
                             free per host = {:?}",
                            ft.tenant.name,
                            sets.iter().map(WeightSet::free_bytes).collect::<Vec<_>>()
                        )
                    });
                sets[host]
                    .admit(t, w)
                    .expect("feasibility checked by the filter");
                loads[host] += l;
                plan[t].push(host);
            }
        }
        plan
    }

    /// A planner's plan, or its panic message.
    fn plan_or_panic(f: impl FnOnce() -> Vec<Vec<usize>>) -> Result<Vec<Vec<usize>>, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".to_string())
        })
    }

    /// Both planners agree with their scan references on random fleets:
    /// host capacities from empty through a few models to the full
    /// 8 GiB (so some hosts are full from the start and others fill
    /// up), random footprints (the six Table 1 workloads), arrival
    /// rates and replica counts up to one more than the fleet has
    /// hosts. Every plan must be identical, and every infeasible input
    /// must panic with the same message.
    #[test]
    fn planners_match_their_scan_references_on_random_fleets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORKLOADS: [&str; 6] = ["MLP0", "MLP1", "LSTM0", "LSTM1", "CNN0", "CNN1"];
        let cfg = TpuConfig::paper();
        let mut rng = StdRng::seed_from_u64(18);
        let (mut planned, mut refused) = (0, 0);
        for case in 0..400 {
            let hosts: Vec<HostSpec> = (0..rng.gen_range(1usize..13))
                .map(|_| {
                    let capacity = match rng.gen_range(0u32..8) {
                        0 => 0,
                        7 => DEFAULT_WEIGHT_CAPACITY_BYTES,
                        _ => rng.gen_range(0u64..=30) * 10_000_000,
                    };
                    HostSpec::new(rng.gen_range(1usize..5)).with_weight_capacity(capacity)
                })
                .collect();
            let tenants: Vec<FleetTenantSpec> = (0..rng.gen_range(1usize..7))
                .map(|_| {
                    let workload = WORKLOADS[rng.gen_range(0..WORKLOADS.len())];
                    let mut t = tenant(workload, rng.gen_range(1..=hosts.len() + 1));
                    t.tenant.arrivals = ArrivalProcess::Poisson {
                        rate_rps: rng.gen_range(100.0..100_000.0),
                    };
                    t
                })
                .collect();
            let spread = plan_or_panic(|| place(&hosts, &tenants));
            assert_eq!(
                spread,
                plan_or_panic(|| place_by_scan(&hosts, &tenants)),
                "case {case}: place"
            );
            let (mem_weight, load_weight) = (rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0));
            let packed =
                plan_or_panic(|| bin_pack(&hosts, &tenants, &cfg, mem_weight, load_weight));
            assert_eq!(
                packed,
                plan_or_panic(|| bin_pack_by_scan(&hosts, &tenants, &cfg, mem_weight, load_weight)),
                "case {case}: bin_pack"
            );
            for plan in [spread, packed] {
                match plan {
                    Ok(_) => planned += 1,
                    Err(_) => refused += 1,
                }
            }
        }
        assert!(
            planned > 200 && refused > 200,
            "{planned} planned, {refused} refused"
        );
    }
}

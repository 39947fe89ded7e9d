//! The fleet event loop: many [`HostCore`]s under one simulated clock.
//!
//! One `tpu_serve::sim::EventQueue` carries every event in the fleet —
//! front-end arrivals, routed deliveries, per-host timers and die
//! completions, autoscaler ticks, and injected failures — so the whole
//! simulation is bit-identical from [`FleetSpec::seed`]. Host `h` seeds
//! its service stream from `stream_seed(seed, h)` and tenant `t` its
//! arrival stream from `stream_seed(seed, t)`; since stream 0 is the
//! master seed, a 1-host, 1-replica fleet with
//! [`crate::fleet::HopModel::None`] replays the *identical* event
//! sequence as `tpu_serve::run` — the
//! integration tests pin that per-host report equality bit for bit.
//!
//! Request life cycle: generated at the front end → routed to a
//! replica (round-robin / least-outstanding / bounded consistent hash)
//! → optional network/PCIe hop → queued on the host → batched and
//! dispatched by the shared [`HostCore`] machinery → latency committed
//! at batch completion, *including* hop and any crash-retry delay
//! (retries keep the original arrival timestamp, so failures land in
//! the tail where they belong).

use crate::autoscale::{decide, ScaleDecision, ScaleSignals};
use crate::failure::{validate_schedule, FailureKind};
use crate::fleet::{plan_placement, tenant_swap_ms, FleetSpec, FleetTenantSpec, PlacementPlan};
use crate::report::{FleetHostReport, FleetReport, FleetTenantReport, ReplicaSample};
use crate::resilience::{BrownoutConfig, HedgeConfig, RetryPolicy};
use crate::route::{self, Candidate, OutstandingIndex, RouterPolicy, RouterState};
use crate::shard::{self, Scope};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use tpu_core::TpuConfig;
use tpu_serve::report::percentile;
use tpu_serve::sim::{self, EventQueue};
use tpu_serve::weights::ModelWeights;
use tpu_serve::workload::ArrivalSource;
use tpu_serve::{HostCore, HostEvent, ServeReport, ServiceCurve};
use tpu_telemetry::{HostProbe, MetricsRecorder, RequestProbe, RunTelemetry};

/// Everything that can happen in the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FleetEvent {
    /// The front end generates a request for `tenant`.
    Arrival { tenant: usize },
    /// A routed request reaches its replica after the network hop.
    Deliver {
        tenant: usize,
        replica: usize,
        arrived_ms: f64,
    },
    /// A host-internal event (timer / die completion), epoch-tagged so
    /// events scheduled before a crash go stale.
    Host {
        host: usize,
        epoch: u32,
        event: HostEvent,
    },
    /// Autoscaler evaluation tick.
    Autoscale,
    /// The `index`-th entry of the failure schedule strikes.
    Failure { index: usize },
    /// A backed-off re-route of a displaced request (retry policy
    /// only; the legacy path re-routes displaced work immediately).
    /// `ts` is the request's original front-end arrival time.
    Retry { tenant: usize, ts: f64 },
    /// The hedging delay elapsed for the request that arrived at `ts`:
    /// enqueue a tied copy on a second replica if the original hasn't
    /// dispatched yet.
    HedgeFire { tenant: usize, ts: f64 },
}

struct HostRt {
    core: HostCore,
    healthy: bool,
    /// The front-end↔host network partition flag: a partitioned host
    /// looks dead to the router (its replicas leave every serving
    /// index) but keeps draining the requests already queued on it —
    /// their completions still count. Orthogonal to `healthy`: a host
    /// can crash while partitioned, and a recovery while partitioned
    /// restores the core without making it routable.
    partitioned: bool,
    epoch: u32,
    events: u64,
    crashes: usize,
    weight_used: u64,
    live_slots: usize,
    /// `slot_owner[slot]` = tenant index (slots are append-only).
    slot_owner: Vec<usize>,
    /// `slot_replica[slot]` = the owning tenant's replica index — the
    /// O(1) reverse map that replaces the per-completion linear scan
    /// over `TenantRt::replicas` (replicas never move hosts or slots).
    slot_replica: Vec<usize>,
    /// The [`HostCore::weights_epoch`] this host's cached replica
    /// warmth bits reflect; when the core's epoch has moved past it, a
    /// [`refresh_host_warmth`] pass re-derives the bits and fixes the
    /// swap-affinity warm-index memberships.
    warm_epoch: u64,
}

struct ReplicaRt {
    host: usize,
    slot: usize,
    /// Accepts new routes (false once the autoscaler drains it).
    routable: bool,
    /// Still placed (false once fully drained and retired).
    live: bool,
    /// Routed but not yet completed (queued + in flight + in hop).
    outstanding: usize,
    /// Autoscaler window watermark into the slot's latency log.
    window_mark: usize,
    /// Autoscaler window watermark into the slot's busy time.
    busy_mark: f64,
    /// Cached warmth bit (swap-affinity routing only): whether the
    /// replica's host had a die warm for its model as of the host's
    /// [`HostRt::warm_epoch`]. Meaningful only while the replica is in
    /// the serving index; recomputed fresh at every (re)insert.
    warm: bool,
}

struct TenantRt {
    spec: FleetTenantSpec,
    curve: ServiceCurve,
    hop_ms: f64,
    gen: Box<dyn ArrivalSource>,
    /// A front-end arrival has been scheduled but not yet fired (the
    /// source counts arrivals as emitted when they are *scheduled*).
    pending_arrival: bool,
    replicas: Vec<ReplicaRt>,
    router: RouterState,
    /// Requests routed but not yet delivered (hop in flight).
    in_hop: usize,
    /// Requests displaced by a crash and not yet re-routed.
    displaced_pending: usize,
    /// Requests with no live replica to go to (all hosts down); they
    /// re-route on recovery or scale-up, keeping their arrival times.
    parked: VecDeque<f64>,
    retries: usize,
    /// Every request has been generated *and* delivered; replicas
    /// flush partial batches.
    drained: bool,
    last_scale_ms: f64,
    /// The serving replicas — live, routable, healthy host — keyed by
    /// `(outstanding, replica)`, maintained update-on-delta at every
    /// eligibility or outstanding-count transition. Routing and the
    /// replica-count samples read it in O(log replicas) / O(1) instead
    /// of scanning (and allocating) per request.
    index: OutstandingIndex,
    /// The *warm* subset of `index` (swap-affinity routing only):
    /// serving replicas whose host has a die warm for the tenant's
    /// model, keyed by the same `(outstanding, replica)` order. The
    /// `SwapAware` pick is `warm.least()` falling back to
    /// `index.least()` — the same `(cold, outstanding, replica)`
    /// minimum as the legacy per-arrival scan, without the O(replicas)
    /// walk. Maintained only when `swap_indexed`.
    warm: OutstandingIndex,
    /// Reused candidate scratch buffer for the scan-based policies
    /// (round-robin, consistent hash) — no per-request allocation.
    cand_buf: Vec<Candidate>,
    /// The fleet routes with [`RouterPolicy::SwapAware`] — the warm
    /// subset index is live.
    swap_indexed: bool,
    /// The tenant's model identity in the weight-swap subsystem
    /// (co-located fleets only; `None` keeps its slots weight-free).
    weights: Option<ModelWeights>,
    /// Retry/backoff/hedging runtime ([`FleetSpec::retry`] only;
    /// `None` replays the legacy immediate-infinite-retry path bit for
    /// bit).
    retry_rt: Option<RetryRt>,
    /// Requests rejected at admission by a tripped brownout controller.
    shed: usize,
    /// Displaced requests abandoned by the retry policy (attempts
    /// exhausted or retry budget empty).
    dropped: usize,
    /// Tied hedge copies actually launched.
    hedges: usize,
    /// Hedged requests whose *hedge* copy dispatched first.
    hedge_wins: usize,
}

/// Where a hedged request's copies stand, keyed by the request's
/// arrival-timestamp bits in [`RetryRt::hedge_pending`].
#[derive(Debug, Clone, Copy)]
enum HedgeTie {
    /// The primary copy is routed (queued or in its hop) and the hedge
    /// timer is armed; no tied copy exists yet.
    Pending { primary: usize },
    /// Both copies are queued on distinct replicas; whichever
    /// dispatches first cancels the other at its queue.
    Tied { primary: usize, hedge: usize },
}

/// Per-tenant retry/backoff/hedging state (present iff the fleet sets
/// [`FleetSpec::retry`]).
struct RetryRt {
    policy: RetryPolicy,
    /// Backoff jitter stream — `stream_seed(seed, 0xB0FF_0000 + gt)`
    /// for *global* tenant `gt`, so shards draw identical jitter.
    rng: StdRng,
    /// Retries already spent per displaced request, keyed by the
    /// request's arrival-timestamp bits. Entries are dropped when the
    /// request is abandoned; a served retry's entry is left behind
    /// (harmlessly — the map only ever holds displaced requests).
    attempts: HashMap<u64, u32>,
    /// Token-bucket retry budget level (lazily refilled; meaningful
    /// only when the policy carries a [`crate::resilience::RetryBudget`]).
    tokens: f64,
    last_refill_ms: f64,
    /// Outstanding hedge ties by arrival-timestamp bits.
    hedge_pending: HashMap<u64, HedgeTie>,
    /// Ring of recent completion latencies feeding the hedge-delay
    /// quantile (capacity = the hedge config's `window`).
    lat_window: VecDeque<f64>,
    /// Total completions observed (the hedge delay stays floored at
    /// `min_delay_ms` until 20 samples exist).
    lat_seen: usize,
    /// The hedge delay `lat_window` implies, computed on the first
    /// arrival after the window last changed.
    hedge_delay_ms: Option<f64>,
}

/// One brownout controller: a ring of recent completion SLO outcomes
/// over a placement-connected component, tripping sheds on sustained
/// burn and clearing with hysteresis.
struct BrownoutRt {
    cfg: BrownoutConfig,
    /// Ring of the last `cfg.window` completions (`true` = SLO miss or
    /// abandoned request).
    ring: Vec<bool>,
    pos: usize,
    filled: bool,
    misses: usize,
    tripped: bool,
    /// When the controller last changed state (floor for clearing).
    changed_ms: f64,
}

impl BrownoutRt {
    fn new(cfg: BrownoutConfig) -> Self {
        BrownoutRt {
            cfg,
            ring: vec![false; cfg.window],
            pos: 0,
            filled: false,
            misses: 0,
            tripped: false,
            changed_ms: f64::NEG_INFINITY,
        }
    }

    /// Record one completion outcome and re-evaluate the trip state.
    /// Returns `Some(new_state)` when the controller flipped.
    fn observe(&mut self, miss: bool, now: f64) -> Option<bool> {
        self.misses -= self.ring[self.pos] as usize;
        self.ring[self.pos] = miss;
        self.misses += miss as usize;
        self.pos += 1;
        if self.pos == self.ring.len() {
            self.pos = 0;
            self.filled = true;
        }
        if !self.filled {
            return None;
        }
        let frac = self.misses as f64 / self.ring.len() as f64;
        if !self.tripped && frac >= self.cfg.slo_burn_threshold {
            self.tripped = true;
            self.changed_ms = now;
            return Some(true);
        }
        if self.tripped
            && frac <= self.cfg.clear_threshold
            && now - self.changed_ms >= self.cfg.min_trip_ms
        {
            self.tripped = false;
            self.changed_ms = now;
            return Some(false);
        }
        None
    }
}

/// The brownout controllers for one scoped run: one [`BrownoutRt`] per
/// placement-connected component (`group_of[tenant]` → group), so the
/// single-threaded reference and the sharded engine — where a shard
/// *is* one component — observe identical completion streams.
struct BrownoutCtl {
    cfg: BrownoutConfig,
    group_of: Vec<usize>,
    groups: Vec<BrownoutRt>,
}

impl BrownoutCtl {
    /// Union-find the local tenants over shared hosts in `plan` and
    /// build one controller per component.
    fn new(cfg: BrownoutConfig, plan: &[Vec<usize>], hosts: usize) -> Self {
        let n = plan.len();
        let mut parent: Vec<usize> = (0..n + hosts).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (t, hs) in plan.iter().enumerate() {
            for &h in hs {
                let a = find(&mut parent, t);
                let b = find(&mut parent, n + h);
                // Lower root wins, so group ids are stable in tenant
                // order regardless of union order.
                let (lo, hi) = (a.min(b), a.max(b));
                parent[hi] = lo;
            }
        }
        let mut dense: HashMap<usize, usize> = HashMap::new();
        let mut groups = Vec::new();
        let group_of = (0..n)
            .map(|t| {
                let root = find(&mut parent, t);
                *dense.entry(root).or_insert_with(|| {
                    groups.push(BrownoutRt::new(cfg));
                    groups.len() - 1
                })
            })
            .collect();
        BrownoutCtl {
            cfg,
            group_of,
            groups,
        }
    }

    /// Whether an arrival for `tenant` at `priority` is shed right now.
    fn sheds(&self, tenant: usize, priority: u8) -> bool {
        priority <= self.cfg.max_priority_shed && self.groups[self.group_of[tenant]].tripped
    }
}

/// The single serving-eligibility rule: a replica is routable traffic's
/// candidate iff it is live, routable, and its host is healthy and
/// reachable (not partitioned from the front end). The
/// `OutstandingIndex` mirrors exactly the replicas satisfying this
/// predicate, so every site that tests eligibility must go through it —
/// a second inlined copy that drifts would silently desync the index
/// from the scan.
#[inline]
fn serving(r: &ReplicaRt, hosts: &[HostRt]) -> bool {
    r.live && r.routable && hosts[r.host].healthy && !hosts[r.host].partitioned
}

/// The serving replicas as router candidates, in replica order — the
/// scan the indexes stand in for.
fn candidates<'a>(
    replicas: &'a [ReplicaRt],
    hosts: &'a [HostRt],
) -> impl Iterator<Item = Candidate> + 'a {
    replicas
        .iter()
        .enumerate()
        .filter(|(_, r)| serving(r, hosts))
        .map(|(replica, r)| Candidate {
            replica,
            outstanding: r.outstanding,
        })
}

impl TenantRt {
    fn eligible(&self, replica: usize, hosts: &[HostRt]) -> bool {
        serving(&self.replicas[replica], hosts)
    }

    fn fill_candidates(&mut self, hosts: &[HostRt]) {
        self.cand_buf.clear();
        self.cand_buf.extend(candidates(&self.replicas, hosts));
    }

    fn serving_replicas(&self, hosts: &[HostRt]) -> usize {
        debug_assert_eq!(
            self.index.len(),
            candidates(&self.replicas, hosts).count(),
            "tenant {}: serving index size differs from a rescan",
            self.spec.tenant.name
        );
        self.index.len()
    }

    fn has_candidates(&self, hosts: &[HostRt]) -> bool {
        self.serving_replicas(hosts) > 0
    }

    /// Front-end arrivals not yet delivered into a host queue: still to
    /// be emitted by the source, or scheduled and waiting to fire.
    fn undelivered(&self) -> usize {
        self.gen.remaining() + self.pending_arrival as usize
    }
}

/// Pick a replica for one request of `tenant`, or `None` when nothing
/// is routable. Least-outstanding and swap affinity read the
/// delta-maintained indexes — the same minimum as a candidate scan,
/// without the per-request O(replicas) walk; the other policies go
/// through the reused candidate buffer. Debug builds check every
/// indexed pick against the scan over live replica state.
fn pick_replica(
    trs: &mut [TenantRt],
    hosts: &[HostRt],
    spec: &FleetSpec,
    tenant: usize,
) -> Option<usize> {
    let tr = &mut trs[tenant];
    match spec.router {
        RouterPolicy::LeastOutstanding => {
            let pick = tr.index.least();
            debug_assert_eq!(
                pick,
                scan_least_outstanding(tr, hosts),
                "tenant {}: least-outstanding index pick differs from the scan",
                tr.spec.tenant.name
            );
            pick
        }
        RouterPolicy::SwapAware => {
            // Swap affinity: prefer warm replicas, then fewest
            // outstanding, then lowest index. The warm subset falls back
            // to the full serving index when no replica is warm — the
            // `(cold, outstanding, replica)` minimum, since warm always
            // beats cold.
            let pick = tr.warm.least().or_else(|| tr.index.least());
            debug_assert_eq!(
                pick,
                scan_swap_aware(tr, hosts),
                "tenant {}: swap-aware index pick differs from the scan",
                tr.spec.tenant.name
            );
            pick
        }
        _ => {
            tr.fill_candidates(hosts);
            let TenantRt {
                router, cand_buf, ..
            } = tr;
            router.pick(spec.router, tenant, cand_buf)
        }
    }
}

/// The reference least-outstanding pick: a scan of the serving
/// replicas, ties to the lowest index.
fn scan_least_outstanding(tr: &TenantRt, hosts: &[HostRt]) -> Option<usize> {
    let cands: Vec<Candidate> = candidates(&tr.replicas, hosts).collect();
    (!cands.is_empty()).then(|| route::least_outstanding(&cands))
}

/// The reference swap-affinity pick: the `(cold, outstanding, replica)`
/// minimum over the serving replicas, with warmth read live from the
/// host instead of from the cached bits the warm index trusts.
fn scan_swap_aware(tr: &TenantRt, hosts: &[HostRt]) -> Option<usize> {
    tr.replicas
        .iter()
        .enumerate()
        .filter(|(_, r)| serving(r, hosts))
        .map(|(i, r)| {
            let cold = !hosts[r.host].core.slot_has_warm_die(r.slot);
            (cold, r.outstanding, i)
        })
        .min()
        .map(|(_, _, i)| i)
}

/// Apply a delta to a replica's outstanding count, keeping the
/// least-outstanding index in sync when the replica is serving.
fn set_outstanding(
    trs: &mut [TenantRt],
    hosts: &[HostRt],
    tenant: usize,
    replica: usize,
    new_outstanding: usize,
) {
    let in_index = trs[tenant].eligible(replica, hosts);
    let tr = &mut trs[tenant];
    let old = tr.replicas[replica].outstanding;
    tr.replicas[replica].outstanding = new_outstanding;
    if in_index {
        tr.index.update(old, new_outstanding, replica);
        if tr.swap_indexed && tr.replicas[replica].warm {
            tr.warm.update(old, new_outstanding, replica);
        }
    }
}

/// A host's health flipped: add (`true`) or drop (`false`) every
/// routable replica it carries from its tenant's serving index.
fn reindex_host_replicas(trs: &mut [TenantRt], hosts: &[HostRt], host: usize, now_serving: bool) {
    for (&tenant, &replica) in hosts[host].slot_owner.iter().zip(&hosts[host].slot_replica) {
        let tr = &mut trs[tenant];
        let r = &mut tr.replicas[replica];
        if r.live && r.routable {
            if now_serving {
                // Warmth is re-derived fresh at insert (the host's dies
                // were wiped by the crash that removed it), so the warm
                // subset never trusts a bit cached across an outage.
                let warm = tr.swap_indexed && hosts[host].core.slot_has_warm_die(r.slot);
                r.warm = warm;
                let o = r.outstanding;
                tr.index.insert(o, replica);
                if warm {
                    tr.warm.insert(o, replica);
                }
            } else {
                let (o, warm) = (r.outstanding, r.warm);
                tr.index.remove(o, replica);
                if tr.swap_indexed && warm {
                    tr.warm.remove(o, replica);
                }
            }
        }
    }
}

/// Re-derive the cached warmth bits for one host's replicas after its
/// die weight state changed (swap begun, swap completed), moving
/// serving replicas between the swap-affinity warm index and the cold
/// remainder. One integer compare when nothing changed — the common
/// case for every non-co-located fleet.
fn refresh_host_warmth(trs: &mut [TenantRt], hosts: &mut [HostRt], host: usize) {
    let h = &mut hosts[host];
    let epoch = h.core.weights_epoch();
    if epoch == h.warm_epoch {
        return;
    }
    h.warm_epoch = epoch;
    if !h.healthy || h.partitioned {
        // Crashed and partitioned hosts' replicas are out of every
        // index (a partitioned host still drains, so its warmth keeps
        // changing); their bits are re-derived at the reinsert on
        // recovery or rejoin.
        return;
    }
    for (&tenant, &replica) in h.slot_owner.iter().zip(&h.slot_replica) {
        let tr = &mut trs[tenant];
        if !tr.swap_indexed {
            continue;
        }
        let r = &mut tr.replicas[replica];
        let warm = h.core.slot_has_warm_die(r.slot);
        if warm == r.warm {
            continue;
        }
        r.warm = warm;
        if r.live && r.routable {
            let o = r.outstanding;
            if warm {
                tr.warm.insert(o, replica);
            } else {
                tr.warm.remove(o, replica);
            }
        }
    }
}

/// The outcome of [`run_fleet`]: the fleet-wide report plus each
/// host's own [`ServeReport`] (host 0's is what the 1-host parity test
/// compares against `tpu_serve::run`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Fleet-wide per-tenant and per-host outcomes.
    pub report: FleetReport,
    /// Per-host serving reports, in host index order.
    pub host_reports: Vec<ServeReport>,
    /// The initial placement the engine actually used (the same plan
    /// `tpu_cluster place` prints; a property test pins the equality).
    pub placement: PlacementPlan,
}

/// Run the fleet simulation to completion.
///
/// # Panics
///
/// Panics on a degenerate setup (no hosts, no tenants, infeasible
/// placement, a failure schedule naming an unknown host) and on an
/// unservable end state (requests still parked because every replica
/// of a tenant stayed down through the end of the run).
pub fn run_fleet(spec: &FleetSpec, tenants: &[FleetTenantSpec], cfg: &TpuConfig) -> FleetRun {
    run_fleet_telemetry(spec, tenants, cfg, &mut RunTelemetry::off())
}

/// [`run_fleet`] with instruments attached. The engine only *observes*
/// through `tel` — no event, RNG draw, or decision changes — so the
/// returned [`FleetRun`] is bit-identical to the uninstrumented run and
/// the recorded artifacts are bit-identical across same-seed runs.
/// Hosts record onto their own probes (`pid` = host index); fleet-level
/// moments (retries, parks, scale decisions, recoveries) land on a
/// front-end track at `pid` = host count.
///
/// # Panics
///
/// As [`run_fleet`].
pub fn run_fleet_telemetry(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    tel: &mut RunTelemetry,
) -> FleetRun {
    let placement = validate_and_plan(spec, tenants, cfg);

    // Engine selection (see `crate::shard`): partition the fleet into
    // the connected components of the tenant↔host placement graph and
    // run them on worker threads, byte-identical to the single-threaded
    // reference. Sharding requires a static replica set (no autoscaler
    // — scale-up couples components) and no instruments (artifacts
    // interleave hosts in global orders the shards don't see); anything
    // else runs the reference engine.
    let instrumented = tel.tracer.is_some()
        || tel.metrics.is_some()
        || tel.profile.is_some()
        || tel.requests.is_some()
        || tel.monitor.is_some();
    let scopes = shard::partition(spec, &placement.assignments);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if shard::auto_shards(
        spec.autoscale.is_some(),
        instrumented,
        scopes.len(),
        workers,
    ) {
        return run_fleet_sharded(spec, tenants, cfg, placement, scopes, workers);
    }
    // Freed before the run, so the partition adds nothing to its peak
    // memory.
    drop(scopes);
    run_single(spec, tenants, cfg, tel, placement)
}

/// Which fleet engine runs a simulation. The two report byte-identically
/// for every spec and seed; the choice changes only wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEngine {
    /// The single-threaded reference: the whole fleet in one event loop.
    Single,
    /// One event loop per connected component of the tenant↔host
    /// placement graph, spread over worker threads. A spec with an
    /// autoscaler couples components, so it runs on the reference.
    Sharded {
        /// Worker threads (zero runs as one).
        workers: usize,
    },
}

/// [`run_fleet`] on an explicitly chosen engine, for the differential
/// tests that compare the engines. [`run_fleet`] chooses by itself: it
/// shards a run with no autoscaler, no instrument, at least two
/// placement components and at least two available cores.
///
/// # Panics
///
/// As [`run_fleet`].
pub fn run_fleet_on(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    engine: FleetEngine,
) -> FleetRun {
    let placement = validate_and_plan(spec, tenants, cfg);
    match engine {
        FleetEngine::Sharded { workers } if spec.autoscale.is_none() => {
            let scopes = shard::partition(spec, &placement.assignments);
            run_fleet_sharded(spec, tenants, cfg, placement, scopes, workers)
        }
        _ => run_single(spec, tenants, cfg, &mut RunTelemetry::off(), placement),
    }
}

/// Reject a degenerate spec, then plan the initial placement.
fn validate_and_plan(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
) -> PlacementPlan {
    assert!(!spec.hosts.is_empty(), "need at least one host");
    assert!(!tenants.is_empty(), "need at least one tenant");
    if let Some(a) = &spec.autoscale {
        a.validate();
    }
    let dies_per_host: Vec<usize> = spec.hosts.iter().map(|h| h.dies).collect();
    if let Err(errors) = validate_schedule(&spec.failures, &dies_per_host) {
        panic!("invalid failure schedule:\n{}", errors.join("\n"));
    }
    if let Some(c) = &spec.colocate {
        c.validate();
    }
    plan_placement(spec, tenants, cfg)
}

/// The single-threaded reference: the whole fleet as one scope.
fn run_single(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    tel: &mut RunTelemetry,
    placement: PlacementPlan,
) -> FleetRun {
    let scope = Scope::identity(spec, &placement.assignments);
    let out = run_scoped(spec, tenants, cfg, tel, &scope);
    assemble(spec, placement, out)
}

/// What one scoped (whole-fleet or single-shard) run hands back for
/// report assembly or cross-shard merging.
struct ScopedRun {
    hosts: Vec<HostRt>,
    trs: Vec<TenantRt>,
    events_processed: u64,
    /// Replica-count samples in event order: t=0, every failure and
    /// autoscale event, and the deduplicated closing sample. Tenant
    /// columns are in *local* index order (global for the identity
    /// scope).
    timeline: Vec<ReplicaSample>,
    /// `(global failure index, sample-after-the-event)` per failure
    /// event processed, in pop order — what the sharded merge replays
    /// to reconstruct the global timeline.
    fail_samples: Vec<(usize, ReplicaSample)>,
    makespan_ms: f64,
}

/// Build one scope's hosts and tenants at time zero: every replica of
/// `scope.plan` placed, serving, and in its tenant's indexes with
/// nothing outstanding.
fn init_scope(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    scope: &Scope,
) -> (Vec<HostRt>, Vec<TenantRt>) {
    let mut hosts: Vec<HostRt> = scope
        .hosts
        .iter()
        .map(|&gh| HostRt {
            // Host 0 shares the master seed so a 1-host fleet replays
            // tpu_serve's service-jitter stream exactly.
            core: HostCore::new(
                spec.hosts[gh].dies,
                spec.hosts[gh].dispatch,
                sim::stream_seed(spec.seed, gh as u64),
            ),
            healthy: true,
            partitioned: false,
            epoch: 0,
            events: 0,
            crashes: 0,
            weight_used: 0,
            live_slots: 0,
            slot_owner: Vec::new(),
            slot_replica: Vec::new(),
            warm_epoch: 0,
        })
        .collect();

    // Swap-affinity routing additionally maintains the warm subset
    // index.
    let swap_indexed = spec.router == RouterPolicy::SwapAware;

    let trs: Vec<TenantRt> = scope
        .tenants
        .iter()
        .enumerate()
        .map(|(t, &gt)| {
            let ft = &tenants[gt];
            assert!(
                ft.tenant.requests > 0,
                "tenant {} has no requests",
                ft.tenant.name
            );
            let curve = ft.tenant.effective_curve(cfg);
            let weight = ft.weight_bytes();
            // Co-location: the tenant is model `gt` — its *global*
            // index, so shards charge identical swap stalls — and its
            // batches pay the calibrated cost on a model change.
            let weights = spec.colocate.map(|c| ModelWeights {
                model: gt,
                bytes: weight,
                swap_ms: tenant_swap_ms(ft, cfg, c.swap_scale),
            });
            let mut index = OutstandingIndex::new();
            let mut warm = OutstandingIndex::new();
            let replicas: Vec<ReplicaRt> = scope.plan[t]
                .iter()
                .enumerate()
                .map(|(replica, &host)| {
                    let slot = hosts[host].core.add_slot(ft.tenant.clone(), curve);
                    if let Some(mw) = weights {
                        hosts[host].core.set_slot_weights(slot, mw);
                    }
                    hosts[host].slot_owner.push(t);
                    hosts[host].slot_replica.push(replica);
                    hosts[host].weight_used += weight;
                    hosts[host].live_slots += 1;
                    index.insert(0, replica);
                    let warm_bit = swap_indexed && hosts[host].core.slot_has_warm_die(slot);
                    if warm_bit {
                        warm.insert(0, replica);
                    }
                    ReplicaRt {
                        host,
                        slot,
                        routable: true,
                        live: true,
                        outstanding: 0,
                        window_mark: 0,
                        busy_mark: 0.0,
                        warm: warm_bit,
                    }
                })
                .collect();
            TenantRt {
                curve,
                hop_ms: spec.hop.hop_ms(&ft.tenant.workload),
                gen: ft.tenant.arrivals.source(
                    &ft.tenant.name,
                    ft.tenant.requests,
                    sim::stream_seed(spec.seed, gt as u64),
                ),
                pending_arrival: false,
                replicas,
                router: RouterState::new(),
                in_hop: 0,
                displaced_pending: 0,
                parked: VecDeque::new(),
                retries: 0,
                drained: false,
                last_scale_ms: f64::NEG_INFINITY,
                index,
                warm,
                cand_buf: Vec::new(),
                swap_indexed,
                weights,
                retry_rt: spec.retry.map(|policy| RetryRt {
                    policy,
                    rng: StdRng::seed_from_u64(sim::stream_seed(
                        spec.seed,
                        0xB0FF_0000 + gt as u64,
                    )),
                    attempts: HashMap::new(),
                    tokens: policy.budget.map_or(0.0, |b| b.tokens),
                    last_refill_ms: 0.0,
                    hedge_pending: HashMap::new(),
                    lat_window: VecDeque::new(),
                    lat_seen: 0,
                    hedge_delay_ms: None,
                }),
                shed: 0,
                dropped: 0,
                hedges: 0,
                hedge_wins: 0,
                spec: ft.clone(),
            }
        })
        .collect();
    (hosts, trs)
}

/// Run the fleet event loop over one [`Scope`] — the whole fleet for
/// the single-threaded reference, one connected component for a shard.
/// All seeds, model identities, and probe labels use **global** ids
/// via the scope mapping, so a component's sub-run replays exactly the
/// global run restricted to that component.
fn run_scoped(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    tel: &mut RunTelemetry,
    scope: &Scope,
) -> ScopedRun {
    let (mut hosts, mut trs) = init_scope(spec, tenants, cfg, scope);

    // Tracing: one probe per host records die slices and per-request
    // span trees; the front end gets its own process track for
    // fleet-level instants.
    let mut fe_probe = if tel.tracer.is_some() {
        for (h, host) in hosts.iter_mut().enumerate() {
            let gh = scope.hosts[h];
            host.core.set_probe(HostProbe::new(
                gh as u32,
                &format!("host {gh}"),
                spec.hosts[gh].dies,
            ));
        }
        Some(HostProbe::new(spec.hosts.len() as u32, "front-end", 0))
    } else {
        None
    };
    // Request logging: one probe per host buffers a decomposed record
    // per served request; the run log absorbs them in host-index order
    // at end of run, so the artifact is a pure function of the seed.
    if tel.requests.is_some() {
        for (h, host) in hosts.iter_mut().enumerate() {
            host.core
                .set_request_probe(RequestProbe::new(scope.hosts[h] as u32));
        }
    }

    // Hedging needs to see dispatches to resolve ties first-wins; the
    // log is a no-op for every fleet that doesn't opt in.
    if spec.retry.is_some_and(|r| r.hedge.is_some()) {
        for host in hosts.iter_mut() {
            host.core.enable_dispatch_log();
        }
    }
    // Graceful degradation (opt-in): one brownout controller per
    // placement-connected component sheds the lowest-priority
    // admissions while its component's SLO burn stays high.
    let mut brownout: Option<BrownoutCtl> = spec
        .brownout
        .map(|cfg| BrownoutCtl::new(cfg, &scope.plan, hosts.len()));

    let mut q: EventQueue<FleetEvent> = EventQueue::new();
    for (t, tr) in trs.iter_mut().enumerate() {
        let at = tr
            .gen
            .next_arrival_ms(0.0)
            .expect("a source emits at least one arrival");
        tr.pending_arrival = true;
        q.schedule(at, FleetEvent::Arrival { tenant: t });
    }
    for (i, (_, f)) in scope.failures.iter().enumerate() {
        q.schedule(f.at_ms, FleetEvent::Failure { index: i });
    }
    if let Some(a) = &spec.autoscale {
        q.schedule(a.interval_ms, FleetEvent::Autoscale);
    }

    let mut timeline = vec![sample_now(0.0, &trs, &hosts)];
    let mut fail_samples: Vec<(usize, ReplicaSample)> = Vec::new();
    let mut events_processed = 0u64;
    // Per-event-type tallies for the engine profile; see EVENT_NAMES.
    let mut counts = [0u64; 10];
    let mut failures_processed = 0usize;

    while let Some((now, event)) = q.pop() {
        events_processed += 1;
        if let Some(m) = tel.metrics.as_mut() {
            if m.due(now) {
                let t = m.advance(now);
                sample_metrics(m, t, now, &trs, &hosts);
            }
        }
        if let Some(mon) = tel.monitor.as_mut() {
            if mon.due(now) {
                let t = mon.advance(now);
                fleet_gauges(now, &trs, &hosts, &mut |name, v| mon.record(&name, v));
                mon.close_sample(t);
            }
        }
        match event {
            FleetEvent::Arrival { tenant } => {
                counts[0] += 1;
                trs[tenant].pending_arrival = false;
                // Graceful degradation (opt-in): a tripped brownout
                // controller rejects the lowest-priority admissions at
                // the front door, before any routing work.
                if brownout
                    .as_ref()
                    .is_some_and(|b| b.sheds(tenant, trs[tenant].spec.tenant.priority))
                {
                    if let Some(at) = trs[tenant].gen.next_arrival_ms(now) {
                        trs[tenant].pending_arrival = true;
                        q.schedule(at, FleetEvent::Arrival { tenant });
                    }
                    trs[tenant].shed += 1;
                    if let Some(p) = fe_probe.as_mut() {
                        p.instant("fleet", "shed", now);
                    }
                    if let Some(l) = tel.requests.as_mut() {
                        l.note_shed(&trs[tenant].spec.tenant.name, now);
                    }
                    // The shed may have been the tenant's last
                    // undelivered request: flush now-drained replicas.
                    for h in maybe_mark_drained(&mut hosts, &mut trs, tenant, usize::MAX) {
                        try_dispatch_host(&mut q, &mut hosts, &mut trs, h, now);
                    }
                    continue;
                }
                let picked = pick_replica(&mut trs, &hosts, spec, tenant);
                // Schedule the next arrival before delivering, so the
                // zero-hop path makes schedule calls in exactly
                // tpu_serve::run's order (next arrival, then timer
                // re-arm inside the delivery tail).
                if let Some(at) = trs[tenant].gen.next_arrival_ms(now) {
                    trs[tenant].pending_arrival = true;
                    q.schedule(at, FleetEvent::Arrival { tenant });
                }
                match picked {
                    Some(replica) => {
                        // Hedging (opt-in): arm the tied-copy timer at
                        // the delay the recent completion tail implies,
                        // measured past the hop so the primary is
                        // always delivered before the hedge can fire.
                        if let Some(delay) = hedge_delay(&mut trs[tenant]) {
                            let hop = trs[tenant].hop_ms;
                            let rt = trs[tenant].retry_rt.as_mut().expect("hedge implies policy");
                            rt.hedge_pending
                                .insert(now.to_bits(), HedgeTie::Pending { primary: replica });
                            q.schedule(
                                now + hop + delay,
                                FleetEvent::HedgeFire { tenant, ts: now },
                            );
                        }
                        deliver_or_hop(&mut q, &mut hosts, &mut trs, tenant, replica, now, now);
                    }
                    None => {
                        // Every replica is down: park the request; it
                        // re-routes on recovery or scale-up.
                        if let Some(p) = fe_probe.as_mut() {
                            p.instant("fleet", "park", now);
                        }
                        trs[tenant].parked.push_back(now);
                    }
                }
            }
            FleetEvent::Deliver {
                tenant,
                replica,
                arrived_ms,
            } => {
                counts[1] += 1;
                trs[tenant].in_hop -= 1;
                let (host, slot) = {
                    let r = &trs[tenant].replicas[replica];
                    (r.host, r.slot)
                };
                if hosts[host].healthy {
                    hosts[host].core.enqueue(slot, arrived_ms);
                    hosts[host].events += 1;
                    finish_delivery(&mut q, &mut hosts, &mut trs, tenant, host, slot, now);
                } else {
                    // The host crashed while the request was in the
                    // hop: retry it elsewhere at its original arrival
                    // time. A mid-hop request can't be tied yet, so
                    // any hedge entry is still pending — discard it
                    // (retries are never hedged).
                    let o = trs[tenant].replicas[replica].outstanding;
                    set_outstanding(&mut trs, &hosts, tenant, replica, o - 1);
                    maybe_retire(&mut hosts, &mut trs, tenant, replica);
                    if let Some(rt) = trs[tenant].retry_rt.as_mut() {
                        rt.hedge_pending.remove(&arrived_ms.to_bits());
                    }
                    if retry_or_drop(
                        &mut q,
                        &mut hosts,
                        &mut trs,
                        spec,
                        tenant,
                        arrived_ms,
                        now,
                        &mut fe_probe,
                        tel,
                        &mut brownout,
                    ) {
                        for h in maybe_mark_drained(&mut hosts, &mut trs, tenant, usize::MAX) {
                            try_dispatch_host(&mut q, &mut hosts, &mut trs, h, now);
                        }
                    }
                }
            }
            FleetEvent::Host { host, epoch, event } => {
                if epoch != hosts[host].epoch {
                    counts[5] += 1;
                    continue; // scheduled before a crash; stale
                }
                hosts[host].events += 1;
                match event {
                    HostEvent::Timer { slot, generation } => {
                        counts[2] += 1;
                        if !hosts[host].core.on_timer(slot, generation) {
                            continue; // stale timer; the queue changed
                        }
                    }
                    HostEvent::WeightSwap { die } => {
                        counts[3] += 1;
                        // Bookkeeping only: the die's pending model
                        // becomes active. No capacity changed (the die
                        // stays busy until its DieFree), so skip the
                        // dispatch pass — but the promotion cooled the
                        // die's previous model, so refresh warmth.
                        hosts[host].core.on_weight_swap(die);
                        refresh_host_warmth(&mut trs, &mut hosts, host);
                        continue;
                    }
                    HostEvent::DieFree { die, generation } => {
                        counts[4] += 1;
                        if let Some(done) = hosts[host].core.on_die_free(die, generation) {
                            let tenant = hosts[host].slot_owner[done.slot];
                            let replica = hosts[host].slot_replica[done.slot];
                            let o = trs[tenant].replicas[replica].outstanding;
                            set_outstanding(
                                &mut trs,
                                &hosts,
                                tenant,
                                replica,
                                o - done.completions,
                            );
                            maybe_retire(&mut hosts, &mut trs, tenant, replica);
                            // The batch's latencies were just committed
                            // at the end of the slot's buffer.
                            let from = hosts[host].core.latency_count(done.slot) - done.completions;
                            observe_completions(
                                &mut trs,
                                &hosts,
                                &mut brownout,
                                &mut fe_probe,
                                tenant,
                                host,
                                done.slot,
                                from,
                                now,
                            );
                            if let Some(m) = tel.metrics.as_mut() {
                                // Feed them to the tenant sketch too.
                                let series = format!("latency/{}", trs[tenant].spec.tenant.name);
                                for l in hosts[host].core.slot_latencies_from(done.slot, from) {
                                    m.observe(&series, l);
                                }
                            }
                            if let Some(mon) = tel.monitor.as_mut() {
                                let spec = &trs[tenant].spec.tenant;
                                for l in hosts[host].core.slot_latencies_from(done.slot, from) {
                                    mon.observe_latency(&spec.name, l, spec.slo_ms);
                                }
                                mon.observe_service(
                                    &spec.name,
                                    host,
                                    die,
                                    done.end_ms - done.start_ms - done.swap_ms,
                                    done.completions,
                                );
                            }
                        }
                    }
                }
                try_dispatch_host(&mut q, &mut hosts, &mut trs, host, now);
            }
            FleetEvent::Autoscale => {
                counts[6] += 1;
                let cfg_a = spec.autoscale.as_ref().expect("tick implies config");
                // Serving counts before the pass, so scale decisions
                // can be traced as front-end instants afterwards.
                let before: Option<Vec<usize>> = fe_probe
                    .as_ref()
                    .map(|_| trs.iter().map(|tr| tr.serving_replicas(&hosts)).collect());
                for t in 0..trs.len() {
                    autoscale_tenant(&mut q, &mut hosts, &mut trs, spec, t, now, cfg_a);
                }
                // Rescue path: parked requests mean every replica of a
                // tenant is unreachable — effectively infinite queue
                // depth — so try to place a replica regardless of the
                // window signals or cooldown. If nothing can be placed
                // and no failure event is still pending, the fleet can
                // never serve them: fail loudly instead of ticking
                // forever.
                for t in 0..trs.len() {
                    if trs[t].parked.is_empty() {
                        continue;
                    }
                    unpark(&mut q, &mut hosts, &mut trs, spec, t, now);
                    if trs[t].parked.is_empty() {
                        continue;
                    }
                    let rescued = try_scale_up(&mut q, &mut hosts, &mut trs, spec, t, now);
                    if !rescued && failures_processed == scope.failures.len() {
                        panic!(
                            "tenant {t} ({}) has {} parked requests, no healthy \
                             replica, no pending recovery, and nowhere to place a \
                             new replica — the fleet is unservable",
                            trs[t].spec.tenant.name,
                            trs[t].parked.len()
                        );
                    }
                }
                if let Some(p) = fe_probe.as_mut() {
                    let before = before.expect("snapshot taken when tracing");
                    for (t, tr) in trs.iter().enumerate() {
                        let after = tr.serving_replicas(&hosts);
                        if after > before[t] {
                            p.instant("scale-up", &tr.spec.tenant.name, now);
                        } else if after < before[t] {
                            p.instant("scale-down", &tr.spec.tenant.name, now);
                        }
                    }
                }
                timeline.push(sample_now(now, &trs, &hosts));
                let active = trs.iter().any(|tr| {
                    tr.undelivered() > 0
                        || tr.in_hop > 0
                        || tr.displaced_pending > 0
                        || !tr.parked.is_empty()
                        || tr.replicas.iter().any(|r| r.outstanding > 0)
                });
                if active {
                    q.schedule(now + cfg_a.interval_ms, FleetEvent::Autoscale);
                }
            }
            FleetEvent::Failure { index } => {
                counts[7] += 1;
                failures_processed += 1;
                let (fail_id, f) = scope.failures[index];
                match f.kind {
                    FailureKind::Crash => {
                        if hosts[f.host].healthy {
                            // Serving replicas on this host leave the
                            // routing index before the health flip
                            // (they are already out if partitioned).
                            if !hosts[f.host].partitioned {
                                reindex_host_replicas(&mut trs, &hosts, f.host, false);
                            }
                            hosts[f.host].healthy = false;
                            hosts[f.host].epoch += 1;
                            hosts[f.host].crashes += 1;
                            let displaced = hosts[f.host].core.crash(now);
                            // The wipe bumped the weights epoch; the
                            // replicas are already out of every index
                            // and re-derive warmth at recover, so just
                            // sync the cache marker.
                            hosts[f.host].warm_epoch = hosts[f.host].core.weights_epoch();
                            // Two phases: first count every displaced
                            // request as pending so no re-delivery can
                            // prematurely mark its tenant drained (and
                            // flush partial batches) while siblings are
                            // still waiting to be re-routed.
                            let mut requeue: Vec<(usize, f64)> = Vec::new();
                            for (slot, arrivals) in displaced {
                                let tenant = hosts[f.host].slot_owner[slot];
                                let replica = hosts[f.host].slot_replica[slot];
                                let o = trs[tenant].replicas[replica].outstanding;
                                set_outstanding(
                                    &mut trs,
                                    &hosts,
                                    tenant,
                                    replica,
                                    o - arrivals.len(),
                                );
                                maybe_retire(&mut hosts, &mut trs, tenant, replica);
                                trs[tenant].displaced_pending += arrivals.len();
                                requeue.extend(arrivals.into_iter().map(|ts| (tenant, ts)));
                            }
                            for (tenant, ts) in requeue {
                                trs[tenant].displaced_pending -= 1;
                                // Hedge interplay: a displaced copy's
                                // tie is broken. A still-queued sibling
                                // on another host serves the request
                                // alone (no retry); a sole pending copy
                                // falls through to the retry layer.
                                let tie = trs[tenant]
                                    .retry_rt
                                    .as_mut()
                                    .and_then(|rt| rt.hedge_pending.remove(&ts.to_bits()));
                                if matches!(tie, Some(HedgeTie::Tied { .. })) {
                                    continue;
                                }
                                if retry_or_drop(
                                    &mut q,
                                    &mut hosts,
                                    &mut trs,
                                    spec,
                                    tenant,
                                    ts,
                                    now,
                                    &mut fe_probe,
                                    tel,
                                    &mut brownout,
                                ) {
                                    for h in
                                        maybe_mark_drained(&mut hosts, &mut trs, tenant, usize::MAX)
                                    {
                                        try_dispatch_host(&mut q, &mut hosts, &mut trs, h, now);
                                    }
                                }
                            }
                        }
                    }
                    FailureKind::Recover => {
                        if !hosts[f.host].healthy {
                            if let Some(p) = fe_probe.as_mut() {
                                p.instant("fault", &format!("recover host{}", f.host), now);
                            }
                            hosts[f.host].healthy = true;
                            // A recovery behind a partition restores
                            // the core but not routability; the
                            // reinsert and unpark happen at rejoin.
                            if !hosts[f.host].partitioned {
                                reindex_host_replicas(&mut trs, &hosts, f.host, true);
                                for t in 0..trs.len() {
                                    unpark(&mut q, &mut hosts, &mut trs, spec, t, now);
                                }
                            }
                        }
                    }
                    FailureKind::SlowStart { factor } => {
                        hosts[f.host].core.set_slow_factor(factor);
                    }
                    FailureKind::SlowEnd => {
                        hosts[f.host].core.set_slow_factor(1.0);
                    }
                    FailureKind::PartitionStart => {
                        if !hosts[f.host].partitioned {
                            if let Some(p) = fe_probe.as_mut() {
                                p.instant("fault", &format!("partition host{}", f.host), now);
                            }
                            // The host looks dead to the router but
                            // keeps draining its queues; a crashed
                            // host's replicas are already out of every
                            // index.
                            if hosts[f.host].healthy {
                                reindex_host_replicas(&mut trs, &hosts, f.host, false);
                            }
                            hosts[f.host].partitioned = true;
                        }
                    }
                    FailureKind::PartitionEnd => {
                        if hosts[f.host].partitioned {
                            if let Some(p) = fe_probe.as_mut() {
                                p.instant("fault", &format!("rejoin host{}", f.host), now);
                            }
                            hosts[f.host].partitioned = false;
                            // Rejoin with whatever stale queues built
                            // up while unreachable; routable again iff
                            // the host is also healthy.
                            if hosts[f.host].healthy {
                                reindex_host_replicas(&mut trs, &hosts, f.host, true);
                                for t in 0..trs.len() {
                                    unpark(&mut q, &mut hosts, &mut trs, spec, t, now);
                                }
                            }
                        }
                    }
                    FailureKind::DieFail { die } => {
                        // Partial degradation: the die leaves the pool
                        // whether or not the host is up (the outage
                        // survives a crash/recover cycle); a displaced
                        // in-flight batch re-enters through the retry
                        // layer. In-flight requests resolved any hedge
                        // ties at dispatch, so no tie check is needed.
                        if let Some((slot, arrivals)) = hosts[f.host].core.fail_die(die, now) {
                            let tenant = hosts[f.host].slot_owner[slot];
                            let replica = hosts[f.host].slot_replica[slot];
                            let o = trs[tenant].replicas[replica].outstanding;
                            set_outstanding(&mut trs, &hosts, tenant, replica, o - arrivals.len());
                            maybe_retire(&mut hosts, &mut trs, tenant, replica);
                            trs[tenant].displaced_pending += arrivals.len();
                            for ts in arrivals {
                                trs[tenant].displaced_pending -= 1;
                                if retry_or_drop(
                                    &mut q,
                                    &mut hosts,
                                    &mut trs,
                                    spec,
                                    tenant,
                                    ts,
                                    now,
                                    &mut fe_probe,
                                    tel,
                                    &mut brownout,
                                ) {
                                    for h in
                                        maybe_mark_drained(&mut hosts, &mut trs, tenant, usize::MAX)
                                    {
                                        try_dispatch_host(&mut q, &mut hosts, &mut trs, h, now);
                                    }
                                }
                            }
                        }
                        // The weight wipe cooled the die; re-derive the
                        // cached warmth for swap-affinity routing.
                        refresh_host_warmth(&mut trs, &mut hosts, f.host);
                    }
                    FailureKind::DieRecover { die } => {
                        hosts[f.host].core.recover_die(die);
                        if hosts[f.host].healthy {
                            // The pool grew: queued work may dispatch.
                            try_dispatch_host(&mut q, &mut hosts, &mut trs, f.host, now);
                        }
                    }
                    FailureKind::DieSlow { die, factor } => {
                        hosts[f.host].core.set_die_slow(die, factor);
                    }
                }
                let sample = sample_now(now, &trs, &hosts);
                fail_samples.push((fail_id, sample.clone()));
                timeline.push(sample);
            }
            FleetEvent::Retry { tenant, ts } => {
                counts[8] += 1;
                // The backoff elapsed: re-route at the original
                // arrival time (or park if every replica is down).
                trs[tenant].displaced_pending -= 1;
                route_request(&mut q, &mut hosts, &mut trs, spec, tenant, ts, now);
            }
            FleetEvent::HedgeFire { tenant, ts } => {
                counts[9] += 1;
                let bits = ts.to_bits();
                // Still pending? Dispatched or displaced requests had
                // their entries removed; this fire is then stale.
                let pending = match trs[tenant]
                    .retry_rt
                    .as_ref()
                    .and_then(|rt| rt.hedge_pending.get(&bits))
                {
                    Some(&HedgeTie::Pending { primary }) => Some(primary),
                    _ => None,
                };
                let Some(primary) = pending else { continue };
                // Tie to the least-outstanding serving replica other
                // than the one still holding the request.
                let second = trs[tenant]
                    .replicas
                    .iter()
                    .enumerate()
                    .filter(|&(i, r)| i != primary && serving(r, &hosts))
                    .min_by_key(|&(i, r)| (r.outstanding, i))
                    .map(|(i, _)| i);
                let rt = trs[tenant].retry_rt.as_mut().expect("fire implies policy");
                let Some(second) = second else {
                    // Nowhere to hedge to; the primary stays solo.
                    rt.hedge_pending.remove(&bits);
                    continue;
                };
                rt.hedge_pending.insert(
                    bits,
                    HedgeTie::Tied {
                        primary,
                        hedge: second,
                    },
                );
                trs[tenant].hedges += 1;
                if let Some(p) = fe_probe.as_mut() {
                    p.instant("fleet", "hedge", now);
                }
                // The tied copy injects straight into the second
                // replica's queue (the hedge delay already dominates
                // the hop) and keeps the original arrival time, so a
                // hedge win is a real latency win.
                let o = trs[tenant].replicas[second].outstanding;
                set_outstanding(&mut trs, &hosts, tenant, second, o + 1);
                let (host, slot) = {
                    let r = &trs[tenant].replicas[second];
                    (r.host, r.slot)
                };
                hosts[host].core.enqueue(slot, ts);
                hosts[host].events += 1;
                finish_delivery(&mut q, &mut hosts, &mut trs, tenant, host, slot, now);
            }
        }
    }

    for (t, tr) in trs.iter().enumerate() {
        assert!(
            tr.parked.is_empty(),
            "tenant {t} ({}) ends with {} unserved parked requests: every \
             replica stayed down; give the scenario a recovery or capacity",
            tr.spec.tenant.name,
            tr.parked.len()
        );
        assert!(
            tr.undelivered() == 0 && tr.in_hop == 0 && tr.displaced_pending == 0,
            "tenant {t} finished with work left (engine bug)"
        );
        let served: usize = tr
            .replicas
            .iter()
            .map(|r| hosts[r.host].core.latency_count(r.slot))
            .sum();
        assert_eq!(
            served + tr.dropped + tr.shed,
            tr.spec.tenant.requests,
            "tenant {t} lost requests (engine bug)"
        );
    }

    let makespan_ms = hosts
        .iter()
        .map(|h| h.core.makespan_ms())
        .fold(0.0, f64::max);
    // Close the timeline at the makespan, unless the last recorded
    // sample already covers that instant with the same counts.
    let last_t = timeline.last().map(|s| s.t_ms).unwrap_or(0.0);
    let closing = sample_now(makespan_ms.max(last_t), &trs, &hosts);
    if timeline.last() != Some(&closing) {
        timeline.push(closing);
    }

    if let Some(tr) = tel.tracer.as_mut() {
        for host in hosts.iter_mut() {
            if let Some(p) = host.core.take_probe() {
                tr.absorb(p.into_tracer());
            }
        }
        if let Some(p) = fe_probe.take() {
            tr.absorb(p.into_tracer());
        }
    }
    if let Some(log) = tel.requests.as_mut() {
        for host in hosts.iter_mut() {
            if let Some(p) = host.core.take_request_probe() {
                log.absorb(p);
            }
        }
    }
    if let Some(m) = tel.metrics.as_mut() {
        // The final partial interval's latency percentiles.
        m.flush_sketches(makespan_ms);
    }
    if let Some(mon) = tel.monitor.as_mut() {
        mon.finish();
    }
    if let Some(p) = tel.profile.as_mut() {
        const EVENT_NAMES: [&str; 10] = [
            "arrival",
            "deliver",
            "timer",
            "weight-swap",
            "die-free",
            "stale-host",
            "autoscale",
            "failure",
            "retry",
            "hedge-fire",
        ];
        p.event_counts = EVENT_NAMES
            .iter()
            .zip(counts)
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        p.wheel = q.wheel_profile();
    }

    ScopedRun {
        hosts,
        trs,
        events_processed,
        timeline,
        fail_samples,
        makespan_ms,
    }
}

/// Run the independent placement components on worker threads and
/// merge, byte-identical to the single-threaded reference: shard
/// results scatter back to global host/tenant positions, and the
/// replica timeline is replayed from the per-failure samples in the
/// exact `(time, failure index)` order the reference engine pops them.
fn run_fleet_sharded(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    placement: PlacementPlan,
    scopes: Vec<Scope>,
    workers: usize,
) -> FleetRun {
    let weights: Vec<u64> = scopes
        .iter()
        .map(|s| shard::scope_weight(s, tenants))
        .collect();
    let assignment = shard::assign_workers(&weights, workers);

    let scopes_ref = &scopes;
    let mut results: Vec<Option<ScopedRun>> = (0..scopes.len()).map(|_| None).collect();
    std::thread::scope(|sc| {
        let handles: Vec<_> = assignment
            .iter()
            .map(|comps| {
                sc.spawn(move || {
                    comps
                        .iter()
                        .map(|&c| {
                            let out = run_scoped(
                                spec,
                                tenants,
                                cfg,
                                &mut RunTelemetry::off(),
                                &scopes_ref[c],
                            );
                            (c, out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(outs) => {
                    for (c, out) in outs {
                        results[c] = Some(out);
                    }
                }
                // Re-raise scenario panics (e.g. an unservable fleet)
                // with their original message.
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });

    // Scatter shard state back to global positions; replica host
    // indices return to global space so report assembly reads the
    // right cores.
    let mut hosts: Vec<Option<HostRt>> = (0..spec.hosts.len()).map(|_| None).collect();
    let mut trs: Vec<Option<TenantRt>> = (0..tenants.len()).map(|_| None).collect();
    let mut events_processed = 0u64;
    let mut makespan_ms = 0.0f64;
    let mut samples: Vec<(usize, usize, ReplicaSample)> = Vec::new();
    for (c, (scope, out)) in scopes.iter().zip(results).enumerate() {
        let out = out.expect("every component ran");
        events_processed += out.events_processed;
        makespan_ms = makespan_ms.max(out.makespan_ms);
        for (local, host) in out.hosts.into_iter().enumerate() {
            hosts[scope.hosts[local]] = Some(host);
        }
        for (local, mut tr) in out.trs.into_iter().enumerate() {
            for r in &mut tr.replicas {
                r.host = scope.hosts[r.host];
            }
            trs[scope.tenants[local]] = Some(tr);
        }
        for (fail_id, sample) in out.fail_samples {
            samples.push((fail_id, c, sample));
        }
    }
    let hosts: Vec<HostRt> = hosts.into_iter().map(|h| h.expect("host ran")).collect();
    let trs: Vec<TenantRt> = trs.into_iter().map(|t| t.expect("tenant ran")).collect();

    // Reconstruct the global replica timeline. Serving counts change
    // only at failure events here (no autoscaler in sharded runs), and
    // the reference engine pops same-time failures in schedule order,
    // so replaying the per-shard samples sorted by `(time, global
    // failure index)` over a running counts vector reproduces its
    // sample sequence exactly — including the t=0 sample and the
    // deduplicated closing sample at the makespan.
    samples.sort_by(|a, b| a.2.t_ms.total_cmp(&b.2.t_ms).then(a.0.cmp(&b.0)));
    let mut counts_now: Vec<usize> = placement.assignments.iter().map(|p| p.len()).collect();
    let mut timeline = vec![ReplicaSample {
        t_ms: 0.0,
        replicas: counts_now.clone(),
    }];
    for (_, c, sample) in samples {
        for (local, &gt) in scopes[c].tenants.iter().enumerate() {
            counts_now[gt] = sample.replicas[local];
        }
        timeline.push(ReplicaSample {
            t_ms: sample.t_ms,
            replicas: counts_now.clone(),
        });
    }
    let last_t = timeline.last().map(|s| s.t_ms).unwrap_or(0.0);
    let closing = ReplicaSample {
        t_ms: makespan_ms.max(last_t),
        replicas: counts_now,
    };
    if timeline.last() != Some(&closing) {
        timeline.push(closing);
    }

    assemble(
        spec,
        placement,
        ScopedRun {
            hosts,
            trs,
            events_processed,
            timeline,
            fail_samples: Vec::new(),
            makespan_ms,
        },
    )
}

/// Assemble the [`FleetRun`] from a finished (whole-fleet or merged)
/// run's state. Host and replica indices are global here.
fn assemble(spec: &FleetSpec, placement: PlacementPlan, out: ScopedRun) -> FleetRun {
    let ScopedRun {
        hosts,
        trs,
        events_processed,
        timeline,
        makespan_ms,
        ..
    } = out;

    let host_reports: Vec<ServeReport> = hosts
        .iter()
        .map(|h| h.core.report(h.core.makespan_ms(), h.events))
        .collect();

    let tenant_reports: Vec<FleetTenantReport> = trs
        .iter()
        .enumerate()
        .map(|(t, tr)| {
            let mut merged: Vec<f64> = tr
                .replicas
                .iter()
                .flat_map(|r| hosts[r.host].core.slot_latencies(r.slot))
                .collect();
            merged.sort_unstable_by(|a, b| a.total_cmp(b));
            let n = merged.len();
            let batches: usize = tr
                .replicas
                .iter()
                .map(|r| hosts[r.host].core.slot_batches(r.slot))
                .sum();
            let dispatched: usize = tr
                .replicas
                .iter()
                .map(|r| hosts[r.host].core.slot_dispatched(r.slot))
                .sum();
            let slo_ms = tr.spec.tenant.slo_ms;
            let slo_hits = merged.iter().filter(|&&l| l <= slo_ms).count();
            let counts: Vec<usize> = timeline.iter().map(|s| s.replicas[t]).collect();
            let swaps: usize = tr
                .replicas
                .iter()
                .map(|r| hosts[r.host].core.slot_swaps(r.slot))
                .sum();
            let swap_ms: f64 = tr
                .replicas
                .iter()
                .map(|r| hosts[r.host].core.slot_swap_ms(r.slot))
                .sum();
            FleetTenantReport {
                name: tr.spec.tenant.name.clone(),
                workload: tr.spec.tenant.workload.clone(),
                priority: tr.spec.tenant.priority,
                requests: n,
                offered: tr.spec.tenant.requests,
                dropped: tr.dropped,
                shed: tr.shed,
                hedges: tr.hedges,
                hedge_wins: tr.hedge_wins,
                retries: tr.retries,
                batches,
                mean_batch: dispatched as f64 / batches.max(1) as f64,
                mean_ms: merged.iter().sum::<f64>() / n.max(1) as f64,
                p50_ms: percentile(&merged, 0.50),
                p95_ms: percentile(&merged, 0.95),
                p99_ms: percentile(&merged, 0.99),
                slo_ms,
                slo_attainment: slo_hits as f64 / n.max(1) as f64,
                throughput_rps: n as f64 / makespan_ms.max(f64::MIN_POSITIVE) * 1000.0,
                replicas_final: *counts.last().expect("timeline non-empty"),
                replicas_min: counts.iter().copied().min().unwrap_or(0),
                replicas_max: counts.iter().copied().max().unwrap_or(0),
                swaps,
                swap_ms,
            }
        })
        .collect();

    let host_rows: Vec<FleetHostReport> = hosts
        .iter()
        .enumerate()
        .map(|(h, hr)| {
            let busy = hr.core.busy_ms();
            FleetHostReport {
                host: h,
                dies: hr.core.die_count(),
                batches: host_reports[h].dies.iter().map(|d| d.batches).sum(),
                busy_ms: busy,
                utilization: (busy
                    / (hr.core.die_count() as f64 * makespan_ms.max(f64::MIN_POSITIVE)))
                .min(1.0),
                crashes: hr.crashes,
                slots: hr.slot_owner.len(),
                resident_models: hr.live_slots,
                resident_bytes: hr.weight_used,
                swaps: hr.core.swaps(),
                swap_ms: hr.core.swap_ms(),
            }
        })
        .collect();

    FleetRun {
        report: FleetReport {
            tenants: tenant_reports,
            hosts: host_rows,
            replica_timeline: timeline,
            makespan_ms,
            events_processed,
            colocated: spec.colocate.is_some(),
            resilient: spec.retry.is_some() || spec.brownout.is_some(),
        },
        host_reports,
        placement,
    }
}

/// The shared tail of every delivery: check whether the tenant just
/// became fully delivered (flush its other replicas), re-arm the
/// receiving slot's timer, and dispatch — in exactly the order
/// `tpu_serve::run` uses, so the 1-host fleet replays it bit for bit.
fn finish_delivery(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    tenant: usize,
    host: usize,
    slot: usize,
    now: f64,
) {
    let flush_hosts = maybe_mark_drained(hosts, trs, tenant, host);
    let epoch = hosts[host].epoch;
    hosts[host].core.after_arrival(slot, now, &mut |at, e| {
        q.schedule(
            at,
            FleetEvent::Host {
                host,
                epoch,
                event: e,
            },
        )
    });
    try_dispatch_host(q, hosts, trs, host, now);
    for h in flush_hosts {
        try_dispatch_host(q, hosts, trs, h, now);
    }
}

/// Mark the tenant drained once every request has been generated and
/// delivered: all live replicas flush partial batches. Returns the
/// *other* hosts (not `delivered_host`) that need a dispatch pass; the
/// caller runs them after its own, preserving single-host event order.
fn maybe_mark_drained(
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    tenant: usize,
    delivered_host: usize,
) -> Vec<usize> {
    let tr = &mut trs[tenant];
    // Cheap flags first: `pending_arrival` is true for nearly every
    // delivery mid-run, so the virtual `remaining()` call on the boxed
    // arrival source is skipped on the hot path.
    if tr.drained
        || tr.pending_arrival
        || tr.in_hop > 0
        || tr.displaced_pending > 0
        || !tr.parked.is_empty()
        || tr.gen.remaining() > 0
    {
        return Vec::new();
    }
    tr.drained = true;
    let mut flush = Vec::new();
    for r in &tr.replicas {
        if r.live {
            hosts[r.host].core.set_draining(r.slot, true);
            if r.host != delivered_host && !flush.contains(&r.host) {
                flush.push(r.host);
            }
        }
    }
    flush
}

/// Dispatch-ready work on one host, scheduling its events with the
/// current epoch. Dispatches can begin weight swaps (warming the new
/// model's die, displacing the old), so the warmth cache is refreshed
/// on the way out.
fn try_dispatch_host(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    host: usize,
    now: f64,
) {
    let epoch = hosts[host].epoch;
    hosts[host].core.try_dispatch(now, &mut |at, e| {
        q.schedule(
            at,
            FleetEvent::Host {
                host,
                epoch,
                event: e,
            },
        )
    });
    refresh_host_warmth(trs, hosts, host);
    resolve_ties(q, hosts, trs, host, now);
}

/// First-wins hedge resolution: every request that just dispatched on
/// `host` cancels its tied sibling's still-queued copy at that
/// sibling's queue, so exactly one copy ever executes. Runs directly
/// after each dispatch pass — before any other host can dispatch — so
/// two copies of one request can never both reach a die. A no-op for
/// fleets without hedging (the dispatch log only exists when it's on).
fn resolve_ties(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    host: usize,
    now: f64,
) {
    let mut dispatched: Vec<(usize, f64)> = Vec::new();
    hosts[host].core.drain_dispatched(&mut dispatched);
    for (slot, ts) in dispatched {
        let tenant = hosts[host].slot_owner[slot];
        let Some(tie) = trs[tenant]
            .retry_rt
            .as_mut()
            .and_then(|rt| rt.hedge_pending.remove(&ts.to_bits()))
        else {
            continue;
        };
        let winner = hosts[host].slot_replica[slot];
        let loser = match tie {
            // No tied copy was launched; removing the entry just
            // staled the pending hedge timer.
            HedgeTie::Pending { .. } => continue,
            HedgeTie::Tied { primary, hedge } => {
                if winner == hedge {
                    trs[tenant].hedge_wins += 1;
                    primary
                } else {
                    hedge
                }
            }
        };
        let (lh, lslot) = {
            let r = &trs[tenant].replicas[loser];
            (r.host, r.slot)
        };
        let epoch = hosts[lh].epoch;
        let canceled = hosts[lh].core.cancel_queued(lslot, ts, now, &mut |at, e| {
            q.schedule(
                at,
                FleetEvent::Host {
                    host: lh,
                    epoch,
                    event: e,
                },
            )
        });
        if canceled {
            let o = trs[tenant].replicas[loser].outstanding;
            set_outstanding(trs, hosts, tenant, loser, o - 1);
            maybe_retire(hosts, trs, tenant, loser);
        }
    }
}

/// The hedge-fire delay for one tenant's fresh arrival, or `None` when
/// hedging is off. The delay is the configured quantile over the
/// recent completion window, floored at `min_delay_ms` — and pinned to
/// the floor until 20 completions exist (a tail estimate over fewer
/// samples is noise). The quantile is cached until the window next
/// changes, so the arrivals between two completions sort it once. Debug
/// builds check every cached delay against a fresh quantile.
fn hedge_delay(tr: &mut TenantRt) -> Option<f64> {
    let rt = tr.retry_rt.as_mut()?;
    let h = rt.policy.hedge?;
    if rt.lat_seen < 20 {
        return Some(h.min_delay_ms);
    }
    let delay = *rt
        .hedge_delay_ms
        .get_or_insert_with(|| window_delay(&rt.lat_window, h));
    debug_assert_eq!(
        delay.to_bits(),
        window_delay(&rt.lat_window, h).to_bits(),
        "tenant {}: cached hedge delay differs from the window's quantile",
        tr.spec.tenant.name
    );
    Some(delay)
}

/// The hedge config's quantile over a completion window, floored at its
/// `min_delay_ms`.
fn window_delay(window: &VecDeque<f64>, h: HedgeConfig) -> f64 {
    let mut lat: Vec<f64> = window.iter().copied().collect();
    lat.sort_unstable_by(|a, b| a.total_cmp(b));
    percentile(&lat, h.quantile).max(h.min_delay_ms)
}

/// Feed one completed batch's just-committed latencies to the owning
/// tenant's hedge-delay window and its component's brownout
/// controller. A no-op unless one of those consumers exists.
#[allow(clippy::too_many_arguments)]
fn observe_completions(
    trs: &mut [TenantRt],
    hosts: &[HostRt],
    brownout: &mut Option<BrownoutCtl>,
    fe_probe: &mut Option<HostProbe>,
    tenant: usize,
    host: usize,
    slot: usize,
    from: usize,
    now: f64,
) {
    let hedging = trs[tenant]
        .retry_rt
        .as_ref()
        .is_some_and(|rt| rt.policy.hedge.is_some());
    if brownout.is_none() && !hedging {
        return;
    }
    let lats = hosts[host].core.slot_latencies_from(slot, from);
    let slo = trs[tenant].spec.tenant.slo_ms;
    if hedging {
        let rt = trs[tenant].retry_rt.as_mut().expect("hedging checked");
        let window = rt.policy.hedge.expect("hedging checked").window;
        if !lats.is_empty() {
            rt.hedge_delay_ms = None;
        }
        for &l in &lats {
            if rt.lat_window.len() == window {
                rt.lat_window.pop_front();
            }
            rt.lat_window.push_back(l);
            rt.lat_seen += 1;
        }
    }
    if let Some(b) = brownout.as_mut() {
        let g = b.group_of[tenant];
        for &l in &lats {
            if let Some(state) = b.groups[g].observe(l > slo, now) {
                if let Some(p) = fe_probe.as_mut() {
                    let what = if state {
                        "brownout-trip"
                    } else {
                        "brownout-clear"
                    };
                    p.instant("fleet", what, now);
                }
            }
        }
    }
}

/// One displaced request hits the retry layer. With no policy this is
/// the legacy path verbatim: count the retry and re-route immediately,
/// with no bound. With a policy: bounded attempts (`max_attempts`
/// counts the original send), a lazily-refilled token-bucket retry
/// budget, and deterministic exponential backoff with seeded jitter —
/// the re-route happens at a later [`FleetEvent::Retry`]. Returns
/// `true` when the request was abandoned; the caller must then run the
/// drained-flush check, since the drop may have been the tenant's last
/// outstanding piece of work.
#[allow(clippy::too_many_arguments)]
fn retry_or_drop(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    spec: &FleetSpec,
    tenant: usize,
    ts: f64,
    now: f64,
    fe_probe: &mut Option<HostProbe>,
    tel: &mut RunTelemetry,
    brownout: &mut Option<BrownoutCtl>,
) -> bool {
    if trs[tenant].retry_rt.is_none() {
        trs[tenant].retries += 1;
        if let Some(p) = fe_probe.as_mut() {
            p.instant("fleet", "retry", now);
        }
        if let Some(l) = tel.requests.as_mut() {
            l.note_retry(&trs[tenant].spec.tenant.name, ts);
        }
        route_request(q, hosts, trs, spec, tenant, ts, now);
        return false;
    }
    let bits = ts.to_bits();
    let rt = trs[tenant].retry_rt.as_mut().expect("checked above");
    let spent = rt.attempts.get(&bits).copied().unwrap_or(0);
    let exhausted = spent + 1 >= rt.policy.max_attempts;
    // Lazily refill the budget bucket before judging this retry.
    let over_budget = if let Some(b) = rt.policy.budget {
        rt.tokens = (rt.tokens + (now - rt.last_refill_ms) * b.refill_per_ms).min(b.tokens);
        rt.last_refill_ms = now;
        rt.tokens < 1.0
    } else {
        false
    };
    if exhausted || over_budget {
        rt.attempts.remove(&bits);
        trs[tenant].dropped += 1;
        if let Some(p) = fe_probe.as_mut() {
            p.instant("fleet", "drop", now);
        }
        if let Some(l) = tel.requests.as_mut() {
            l.note_drop(&trs[tenant].spec.tenant.name, ts);
        }
        // An abandoned request is burn: feed the component's brownout
        // controller so retry-budget pressure can trip sheds.
        if let Some(b) = brownout.as_mut() {
            let g = b.group_of[tenant];
            if let Some(state) = b.groups[g].observe(true, now) {
                if let Some(p) = fe_probe.as_mut() {
                    let what = if state {
                        "brownout-trip"
                    } else {
                        "brownout-clear"
                    };
                    p.instant("fleet", what, now);
                }
            }
        }
        return true;
    }
    rt.attempts.insert(bits, spent + 1);
    if rt.policy.budget.is_some() {
        rt.tokens -= 1.0;
    }
    let u = rt.rng.gen_range(0.0..1.0);
    let delay = rt.policy.backoff_ms(spent + 1, u);
    trs[tenant].retries += 1;
    if let Some(p) = fe_probe.as_mut() {
        p.instant("fleet", "backoff", now);
    }
    if let Some(l) = tel.requests.as_mut() {
        l.note_retry(&trs[tenant].spec.tenant.name, ts);
    }
    // Count the request as displaced until its Retry fires, so the
    // drained check can't trip while it waits out the backoff.
    trs[tenant].displaced_pending += 1;
    q.schedule(now + delay, FleetEvent::Retry { tenant, ts });
    false
}

/// Route one request (fresh, retried, or unparked) at time `now`,
/// keeping its original arrival timestamp `ts` for latency accounting.
fn route_request(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    spec: &FleetSpec,
    tenant: usize,
    ts: f64,
    now: f64,
) {
    match pick_replica(trs, hosts, spec, tenant) {
        None => trs[tenant].parked.push_back(ts),
        Some(replica) => deliver_or_hop(q, hosts, trs, tenant, replica, ts, now),
    }
}

/// Hand one routed request (front-end arrival time `ts`) to `replica`:
/// either schedule the network hop or deliver straight into the host
/// queue. The single delivery path shared by fresh arrivals, crash
/// retries, and unparked requests.
fn deliver_or_hop(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    tenant: usize,
    replica: usize,
    ts: f64,
    now: f64,
) {
    let o = trs[tenant].replicas[replica].outstanding;
    set_outstanding(trs, hosts, tenant, replica, o + 1);
    let hop = trs[tenant].hop_ms;
    if hop > 0.0 {
        trs[tenant].in_hop += 1;
        q.schedule(
            now + hop,
            FleetEvent::Deliver {
                tenant,
                replica,
                arrived_ms: ts,
            },
        );
    } else {
        let (host, slot) = {
            let r = &trs[tenant].replicas[replica];
            (r.host, r.slot)
        };
        hosts[host].core.enqueue(slot, ts);
        hosts[host].events += 1;
        finish_delivery(q, hosts, trs, tenant, host, slot, now);
    }
}

/// Retire a drained replica once its last outstanding request clears.
fn maybe_retire(hosts: &mut [HostRt], trs: &mut [TenantRt], tenant: usize, replica: usize) {
    let weight = trs[tenant].spec.weight_bytes();
    let r = &mut trs[tenant].replicas[replica];
    if r.live && !r.routable && r.outstanding == 0 {
        r.live = false;
        hosts[r.host].weight_used -= weight;
        hosts[r.host].live_slots -= 1;
    }
}

/// Re-route parked requests while candidates exist.
fn unpark(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    spec: &FleetSpec,
    tenant: usize,
    now: f64,
) {
    while let Some(&ts) = trs[tenant].parked.front() {
        if !trs[tenant].has_candidates(hosts) {
            break;
        }
        trs[tenant].parked.pop_front();
        route_request(q, hosts, trs, spec, tenant, ts, now);
    }
}

/// Evaluate and apply one tenant's autoscaling decision.
fn autoscale_tenant(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    spec: &FleetSpec,
    tenant: usize,
    now: f64,
    cfg: &crate::autoscale::AutoscaleConfig,
) {
    // Gather the window signals and advance the watermarks. Window
    // latencies include draining replicas (their completions are real
    // tail samples), but the utilization signal counts only *serving*
    // replicas' busy time — busy time burned by draining or crashed
    // replicas must not inflate the per-serving-replica average and
    // trigger spurious scale-ups.
    let mut window: Vec<f64> = Vec::new();
    let mut busy_delta = 0.0;
    {
        let tr = &mut trs[tenant];
        for r in &mut tr.replicas {
            let core = &hosts[r.host].core;
            window.extend(core.slot_latencies_from(r.slot, r.window_mark));
            r.window_mark = core.latency_count(r.slot);
            let busy = core.slot_busy_ms(r.slot);
            let delta = busy - r.busy_mark;
            r.busy_mark = busy;
            if serving(r, hosts) {
                busy_delta += delta;
            }
        }
    }
    window.sort_unstable_by(|a, b| a.total_cmp(b));
    let window_p99 = if window.is_empty() {
        None
    } else {
        Some(percentile(&window, 0.99))
    };
    let serving = trs[tenant].serving_replicas(hosts);
    let util = busy_delta / (cfg.interval_ms * serving.max(1) as f64);
    let decision = decide(
        cfg,
        &ScaleSignals {
            window_p99,
            slo_ms: trs[tenant].spec.tenant.slo_ms,
            replica_util: util,
            replicas: serving,
            min_replicas: trs[tenant].spec.min_replicas,
            max_replicas: trs[tenant].spec.max_replicas,
            since_last_action_ms: now - trs[tenant].last_scale_ms,
        },
    );
    match decision {
        ScaleDecision::Hold => {}
        ScaleDecision::Up => {
            try_scale_up(q, hosts, trs, spec, tenant, now);
        }
        ScaleDecision::Down => {
            let victim = trs[tenant]
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| self::serving(r, hosts))
                .min_by_key(|(i, r)| (r.outstanding, *i))
                .map(|(i, _)| i);
            if let Some(replica) = victim {
                let (host, slot) = {
                    let tr = &mut trs[tenant];
                    let r = &mut tr.replicas[replica];
                    r.routable = false;
                    let (o, warm) = (r.outstanding, r.warm);
                    let (h, s) = (r.host, r.slot);
                    // The victim was serving (the filter above);
                    // draining removes it from the routable set.
                    tr.index.remove(o, replica);
                    if tr.swap_indexed && warm {
                        tr.warm.remove(o, replica);
                    }
                    (h, s)
                };
                hosts[host].core.set_draining(slot, true);
                try_dispatch_host(q, hosts, trs, host, now);
                maybe_retire(hosts, trs, tenant, replica);
                trs[tenant].last_scale_ms = now;
            }
        }
    }
}

/// Place one more replica of a tenant on the best eligible host
/// (healthy, free weight memory, not already hosting it), route any
/// parked requests to it, and stamp the cooldown. Returns whether a
/// replica was placed.
fn try_scale_up(
    q: &mut EventQueue<FleetEvent>,
    hosts: &mut [HostRt],
    trs: &mut [TenantRt],
    spec: &FleetSpec,
    tenant: usize,
    now: f64,
) -> bool {
    // The ceiling counts *live* replicas, including ones on crashed
    // hosts (they rejoin on recovery): a transient outage must not let
    // the tenant durably exceed its configured max_replicas.
    let live = trs[tenant].replicas.iter().filter(|r| r.live).count();
    if live >= trs[tenant].spec.max_replicas {
        return false;
    }
    let weight = trs[tenant].spec.weight_bytes();
    let target = hosts
        .iter()
        .enumerate()
        .filter(|(h, hr)| {
            hr.healthy
                && !hr.partitioned
                && hr.weight_used + weight <= spec.hosts[*h].weight_capacity_bytes
                && !trs[tenant].replicas.iter().any(|r| r.live && r.host == *h)
        })
        .min_by_key(|(h, hr)| (hr.live_slots, *h))
        .map(|(h, _)| h);
    let Some(host) = target else {
        return false;
    };
    let slot = hosts[host]
        .core
        .add_slot(trs[tenant].spec.tenant.clone(), trs[tenant].curve);
    if let Some(mw) = trs[tenant].weights {
        hosts[host].core.set_slot_weights(slot, mw);
    }
    hosts[host].slot_owner.push(tenant);
    hosts[host].slot_replica.push(trs[tenant].replicas.len());
    hosts[host].weight_used += weight;
    hosts[host].live_slots += 1;
    if trs[tenant].drained {
        hosts[host].core.set_draining(slot, true);
    }
    let mark = hosts[host].core.latency_count(slot);
    let busy = hosts[host].core.slot_busy_ms(slot);
    let warm_bit = trs[tenant].swap_indexed && hosts[host].core.slot_has_warm_die(slot);
    let replica = trs[tenant].replicas.len();
    trs[tenant].index.insert(0, replica);
    if warm_bit {
        trs[tenant].warm.insert(0, replica);
    }
    trs[tenant].replicas.push(ReplicaRt {
        host,
        slot,
        routable: true,
        live: true,
        outstanding: 0,
        window_mark: mark,
        busy_mark: busy,
        warm: warm_bit,
    });
    trs[tenant].last_scale_ms = now;
    unpark(q, hosts, trs, spec, tenant, now);
    true
}

/// Emit one cadence sample's fleet gauges: per tenant the outstanding
/// / serving-replica / parked / cumulative-retry / cumulative-arrival
/// counts and live-replica placement, per host the die utilization,
/// raw busy-time, backlog, resident weight sets, and pending swaps.
/// Shared by the metrics recorder and the health monitor so an offline
/// monitor replay from the metrics artifact sees exactly the gauge
/// values the online monitor saw.
fn fleet_gauges(now: f64, trs: &[TenantRt], hosts: &[HostRt], emit: &mut dyn FnMut(String, f64)) {
    for tr in trs {
        let name = &tr.spec.tenant.name;
        let outstanding: usize = tr.replicas.iter().map(|r| r.outstanding).sum();
        emit(format!("outstanding/{name}"), outstanding as f64);
        emit(
            format!("replicas/{name}"),
            tr.serving_replicas(hosts) as f64,
        );
        emit(format!("parked/{name}"), tr.parked.len() as f64);
        emit(format!("retries/{name}"), tr.retries as f64);
        // Requests delivered out of the front end so far (monotone) —
        // the monitor's outage demand gate.
        emit(
            format!("arrived/{name}"),
            (tr.gen.total() - tr.undelivered()) as f64,
        );
        // Live-replica placement per host; retired placements keep
        // emitting 0 so a stale snapshot can't pin demand on a host
        // the autoscaler vacated.
        let mut placed: BTreeMap<usize, usize> = BTreeMap::new();
        for r in &tr.replicas {
            *placed.entry(r.host).or_insert(0) += r.live as usize;
        }
        for (h, n) in placed {
            emit(format!("placed/{name}/host{h}"), n as f64);
        }
    }
    for (h, host) in hosts.iter().enumerate() {
        let util = if now > 0.0 {
            (host.core.busy_ms() / (host.core.die_count() as f64 * now)).min(1.0)
        } else {
            0.0
        };
        emit(format!("util/host{h}"), util);
        emit(format!("busy/host{h}"), host.core.busy_ms());
        let backlog: usize = (0..host.core.slot_count())
            .map(|s| host.core.outstanding(s))
            .sum();
        emit(format!("backlog/host{h}"), backlog as f64);
        emit(format!("resident/host{h}"), host.live_slots as f64);
        emit(
            format!("pending_swaps/host{h}"),
            host.core.pending_swaps() as f64,
        );
    }
}

/// Record one cadence sample of the fleet probe series at stamp `t`.
fn sample_metrics(m: &mut MetricsRecorder, t: f64, now: f64, trs: &[TenantRt], hosts: &[HostRt]) {
    fleet_gauges(now, trs, hosts, &mut |name, v| m.record(&name, t, v));
}

/// Snapshot the per-tenant serving replica counts.
fn sample_now(t_ms: f64, trs: &[TenantRt], hosts: &[HostRt]) -> ReplicaSample {
    ReplicaSample {
        t_ms,
        replicas: trs.iter().map(|tr| tr.serving_replicas(hosts)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_serve::tenant::ArrivalProcess;
    use tpu_serve::{BatchPolicy, TenantSpec};

    /// The debug-build cross-check is live: a replica whose outstanding
    /// count moves behind its index's back fails the very next
    /// least-outstanding pick instead of misrouting silently.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "least-outstanding index pick differs from the scan")]
    fn a_desynced_index_fails_the_next_pick() {
        let cfg = TpuConfig::paper();
        let spec = FleetSpec::new(2, 2, 42).with_router(RouterPolicy::LeastOutstanding);
        let tenant = TenantSpec::new(
            "MLP0",
            ArrivalProcess::Poisson {
                rate_rps: 100_000.0,
            },
            BatchPolicy::Fixed { batch: 8 },
            7.0,
            100,
        );
        let tenants = [FleetTenantSpec::new(tenant, 2)];
        let placement = plan_placement(&spec, &tenants, &cfg);
        let scope = Scope::identity(&spec, &placement.assignments);
        let (hosts, mut trs) = init_scope(&spec, &tenants, &cfg, &scope);
        // The index still files replica 0 at zero outstanding, so it
        // picks replica 0; the scan sees three and picks replica 1.
        trs[0].replicas[0].outstanding = 3;
        pick_replica(&mut trs, &hosts, &spec, 0);
    }
}

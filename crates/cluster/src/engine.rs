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
//!
//! All of one run's state lives in a `FleetState`: the scope's hosts
//! and tenants, the event queue, the brownout controllers, the
//! front-end trace track, the replica timeline and the event tallies.
//! The loop pops an event and hands it to that variant's handler
//! (`on_arrival`, `on_deliver`, `on_host`, `on_autoscale`, `on_failure`,
//! `on_retry`, `on_hedge_fire`). A new event needs three things: a
//! `FleetEvent` variant, its profile name in `event_kinds!`, and its
//! handler. Instruments are fed only through the `RunTelemetry` hooks
//! the serve loop shares (cadence sample, completed batch, end of run).

#![warn(clippy::too_many_lines)]

use crate::autoscale::{decide, AutoscaleConfig, ScaleDecision, ScaleSignals};
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
use tpu_serve::{CompletedBatch, HostCore, HostEvent, ServeReport, ServiceCurve};
use tpu_telemetry::{HostProbe, RunTelemetry};

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

/// Declares the engine profile's event tallies once: each kind's
/// counter slot (its discriminant) next to its `EngineProfile` name, in
/// the order `--engine-stats` prints them and `bench_fleet` reads them.
macro_rules! event_kinds {
    ($($kind:ident => $name:literal,)*) => {
        /// What one popped [`FleetEvent`] turned out to be.
        #[derive(Debug, Clone, Copy)]
        enum EventKind {
            $($kind,)*
        }

        impl EventKind {
            /// Each kind's profile name, indexed by discriminant.
            const NAMES: &'static [&'static str] = &[$($name,)*];
        }
    };
}

event_kinds! {
    Arrival => "arrival",
    Deliver => "deliver",
    Timer => "timer",
    WeightSwap => "weight-swap",
    DieFree => "die-free",
    StaleHost => "stale-host",
    Autoscale => "autoscale",
    Failure => "failure",
    Retry => "retry",
    HedgeFire => "hedge-fire",
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
    /// [`FleetState::refresh_host_warmth`] pass re-derives the bits and
    /// fixes the swap-affinity warm-index memberships.
    warm_epoch: u64,
}

impl HostRt {
    /// Global host `gh` at time zero: healthy, empty, and recording
    /// onto `tel`'s live instruments.
    fn new(spec: &FleetSpec, gh: usize, tel: &RunTelemetry) -> Self {
        let h = &spec.hosts[gh];
        // Host 0 shares the master seed so a 1-host fleet replays
        // tpu_serve's service-jitter stream exactly.
        let mut core = HostCore::new(h.dies, h.dispatch, sim::stream_seed(spec.seed, gh as u64));
        core.attach_probes(tel, gh as u32);
        // Hedging needs to see dispatches to resolve ties first-wins;
        // the log is a no-op for every fleet that doesn't opt in.
        if spec.retry.is_some_and(|r| r.hedge.is_some()) {
            core.enable_dispatch_log();
        }
        HostRt {
            core,
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
        }
    }
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
    /// The model's full weight footprint, charged to a host per live
    /// replica (resolved once: `FleetTenantSpec::weight_bytes` builds
    /// the whole model).
    weight_bytes: u64,
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

    /// Record one outcome (`miss` = SLO miss or abandoned request) for
    /// `tenant`'s component, marking a trip or clear on the front-end
    /// track.
    fn observe(&mut self, tenant: usize, miss: bool, now: f64, fe_probe: &mut Option<HostProbe>) {
        if let Some(tripped) = self.groups[self.group_of[tenant]].observe(miss, now) {
            if let Some(p) = fe_probe.as_mut() {
                let what = if tripped {
                    "brownout-trip"
                } else {
                    "brownout-clear"
                };
                p.instant("fleet", what, now);
            }
        }
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
    /// Global tenant `gt` at time zero, with no replica placed yet.
    fn new(spec: &FleetSpec, cfg: &TpuConfig, ft: &FleetTenantSpec, gt: usize) -> Self {
        assert!(
            ft.tenant.requests > 0,
            "tenant {} has no requests",
            ft.tenant.name
        );
        let weight_bytes = ft.weight_bytes();
        TenantRt {
            weight_bytes,
            curve: ft.tenant.effective_curve(cfg),
            hop_ms: spec.hop.hop_ms(&ft.tenant.workload),
            gen: ft.tenant.arrivals.source(
                &ft.tenant.name,
                ft.tenant.requests,
                sim::stream_seed(spec.seed, gt as u64),
            ),
            pending_arrival: false,
            replicas: Vec::new(),
            router: RouterState::new(),
            in_hop: 0,
            displaced_pending: 0,
            parked: VecDeque::new(),
            retries: 0,
            drained: false,
            last_scale_ms: f64::NEG_INFINITY,
            index: OutstandingIndex::new(),
            warm: OutstandingIndex::new(),
            cand_buf: Vec::new(),
            // Swap-affinity routing additionally maintains the warm
            // subset index.
            swap_indexed: spec.router == RouterPolicy::SwapAware,
            // Co-location: the tenant is model `gt` — its *global*
            // index, so shards charge identical swap stalls — and its
            // batches pay the calibrated cost on a model change.
            weights: spec.colocate.map(|c| ModelWeights {
                model: gt,
                bytes: weight_bytes,
                swap_ms: tenant_swap_ms(ft, cfg, c.swap_scale),
            }),
            retry_rt: spec.retry.map(|policy| RetryRt {
                policy,
                rng: StdRng::seed_from_u64(sim::stream_seed(spec.seed, 0xB0FF_0000 + gt as u64)),
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
    }

    /// Place a new replica of this tenant (local index `t`) on `host`:
    /// a slot with the tenant's curve and model, charged to the host's
    /// weight memory, serving, and in the indexes with nothing
    /// outstanding.
    fn place_replica(&mut self, t: usize, host: usize, hosts: &mut [HostRt]) {
        let h = &mut hosts[host];
        let slot = h.core.add_slot(self.spec.tenant.clone(), self.curve);
        if let Some(mw) = self.weights {
            h.core.set_slot_weights(slot, mw);
        }
        let replica = self.replicas.len();
        h.slot_owner.push(t);
        h.slot_replica.push(replica);
        h.weight_used += self.weight_bytes;
        h.live_slots += 1;
        if self.drained {
            h.core.set_draining(slot, true);
        }
        let warm = self.swap_indexed && h.core.slot_has_warm_die(slot);
        self.index.insert(0, replica);
        if warm {
            self.warm.insert(0, replica);
        }
        self.replicas.push(ReplicaRt {
            host,
            slot,
            routable: true,
            live: true,
            outstanding: 0,
            window_mark: h.core.latency_count(slot),
            busy_mark: h.core.slot_busy_ms(slot),
            warm,
        });
    }

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

    /// The hedge-fire delay for a fresh arrival, or `None` when hedging
    /// is off. The delay is the configured quantile over the recent
    /// completion window, floored at `min_delay_ms` — and pinned to the
    /// floor until 20 completions exist (a tail estimate over fewer
    /// samples is noise). The quantile is cached until the window next
    /// changes, so the arrivals between two completions sort it once.
    /// Debug builds check every cached delay against a fresh quantile.
    fn hedge_delay(&mut self) -> Option<f64> {
        let rt = self.retry_rt.as_mut()?;
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
            self.spec.tenant.name
        );
        Some(delay)
    }

    /// Feed one completed batch's latencies to the hedge-delay window
    /// (a no-op unless the tenant hedges).
    fn observe_hedge_window(&mut self, lats: &[f64]) {
        let Some(rt) = self.retry_rt.as_mut() else {
            return;
        };
        let Some(h) = rt.policy.hedge else {
            return;
        };
        if !lats.is_empty() {
            rt.hedge_delay_ms = None;
        }
        for &l in lats {
            if rt.lat_window.len() == h.window {
                rt.lat_window.pop_front();
            }
            rt.lat_window.push_back(l);
            rt.lat_seen += 1;
        }
    }
}

/// The hedge config's quantile over a completion window, floored at its
/// `min_delay_ms`.
fn window_delay(window: &VecDeque<f64>, h: HedgeConfig) -> f64 {
    let mut lat: Vec<f64> = window.iter().copied().collect();
    lat.sort_unstable_by(|a, b| a.total_cmp(b));
    percentile(&lat, h.quantile).max(h.min_delay_ms)
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

/// Run the fleet event loop over one [`Scope`] — the whole fleet for
/// the single-threaded reference, one connected component for a shard:
/// build the state, hand each popped event to its handler, finish.
fn run_scoped(
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
    tel: &mut RunTelemetry,
    scope: &Scope,
) -> ScopedRun {
    let mut st = FleetState::new(spec, tenants, cfg, tel, scope);
    while let Some((now, event)) = st.q.pop() {
        st.tel
            .sample(now, |emit| fleet_gauges(now, &st.trs, &st.hosts, emit));
        match event {
            FleetEvent::Arrival { tenant } => st.on_arrival(tenant, now),
            FleetEvent::Deliver {
                tenant,
                replica,
                arrived_ms,
            } => st.on_deliver(tenant, replica, arrived_ms, now),
            FleetEvent::Host { host, epoch, event } => st.on_host(host, epoch, event, now),
            FleetEvent::Autoscale => st.on_autoscale(now),
            FleetEvent::Failure { index } => st.on_failure(index, now),
            FleetEvent::Retry { tenant, ts } => st.on_retry(tenant, ts, now),
            FleetEvent::HedgeFire { tenant, ts } => st.on_hedge_fire(tenant, ts, now),
        }
    }
    st.finish()
}

/// One scope's simulation state. All seeds, model identities, and
/// probe labels use **global** ids via the scope mapping, so a
/// component's sub-run replays exactly the global run restricted to
/// that component.
struct FleetState<'a> {
    spec: &'a FleetSpec,
    scope: &'a Scope,
    tel: &'a mut RunTelemetry,
    q: EventQueue<FleetEvent>,
    hosts: Vec<HostRt>,
    trs: Vec<TenantRt>,
    /// Graceful degradation (opt-in): one brownout controller per
    /// placement-connected component sheds the lowest-priority
    /// admissions while its component's SLO burn stays high.
    brownout: Option<BrownoutCtl>,
    /// The front end's own trace track (pid = host count) for
    /// fleet-level instants: retries, parks, scale decisions, faults.
    fe_probe: Option<HostProbe>,
    /// Replica-count samples so far (see [`ScopedRun::timeline`]).
    timeline: Vec<ReplicaSample>,
    /// See [`ScopedRun::fail_samples`].
    fail_samples: Vec<(usize, ReplicaSample)>,
    failures_processed: usize,
    /// Events popped, per [`EventKind`].
    counts: [u64; EventKind::NAMES.len()],
}

impl<'a> FleetState<'a> {
    /// Every replica of `scope.plan` placed, serving, and in its
    /// tenant's indexes with nothing outstanding; each tenant's first
    /// arrival, the failure schedule, and the first autoscale tick
    /// queued.
    fn new(
        spec: &'a FleetSpec,
        tenants: &[FleetTenantSpec],
        cfg: &TpuConfig,
        tel: &'a mut RunTelemetry,
        scope: &'a Scope,
    ) -> Self {
        let mut hosts: Vec<HostRt> = scope
            .hosts
            .iter()
            .map(|&gh| HostRt::new(spec, gh, tel))
            .collect();
        let trs: Vec<TenantRt> = scope
            .tenants
            .iter()
            .enumerate()
            .map(|(t, &gt)| {
                let mut tr = TenantRt::new(spec, cfg, &tenants[gt], gt);
                for &host in &scope.plan[t] {
                    tr.place_replica(t, host, &mut hosts);
                }
                tr
            })
            .collect();
        let fe_probe = tel
            .tracer
            .is_some()
            .then(|| HostProbe::new(spec.hosts.len() as u32, "front-end", 0));
        let mut st = FleetState {
            spec,
            scope,
            tel,
            q: EventQueue::new(),
            brownout: spec
                .brownout
                .map(|b| BrownoutCtl::new(b, &scope.plan, hosts.len())),
            hosts,
            trs,
            fe_probe,
            timeline: Vec::new(),
            fail_samples: Vec::new(),
            failures_processed: 0,
            counts: [0; EventKind::NAMES.len()],
        };
        for t in 0..st.trs.len() {
            let first = st.schedule_next_arrival(t, 0.0);
            assert!(first, "a source emits at least one arrival");
        }
        for (i, (_, f)) in scope.failures.iter().enumerate() {
            st.q.schedule(f.at_ms, FleetEvent::Failure { index: i });
        }
        if let Some(a) = &spec.autoscale {
            st.q.schedule(a.interval_ms, FleetEvent::Autoscale);
        }
        let sample = st.sample_now(0.0);
        st.timeline.push(sample);
        st
    }

    fn tally(&mut self, kind: EventKind) {
        self.counts[kind as usize] += 1;
    }

    /// Mark a fleet-level instant on the front-end trace track.
    fn note(&mut self, what: &str, now: f64) {
        if let Some(p) = self.fe_probe.as_mut() {
            p.instant("fleet", what, now);
        }
    }

    /// A front-end arrival: shed under a tripped brownout, else route it
    /// (arming the hedge timer), or park it when every replica is down.
    fn on_arrival(&mut self, tenant: usize, now: f64) {
        self.tally(EventKind::Arrival);
        self.trs[tenant].pending_arrival = false;
        // Graceful degradation (opt-in): a tripped brownout controller
        // rejects the lowest-priority admissions at the front door,
        // before any routing work.
        let priority = self.trs[tenant].spec.tenant.priority;
        if self
            .brownout
            .as_ref()
            .is_some_and(|b| b.sheds(tenant, priority))
        {
            self.schedule_next_arrival(tenant, now);
            self.trs[tenant].shed += 1;
            self.note("shed", now);
            if let Some(l) = self.tel.requests.as_mut() {
                l.note_shed(&self.trs[tenant].spec.tenant.name, now);
            }
            // The shed may have been the tenant's last undelivered
            // request: flush now-drained replicas.
            self.flush_if_drained(tenant, now);
            return;
        }
        let picked = self.pick_replica(tenant);
        // Schedule the next arrival before delivering, so the zero-hop
        // path makes schedule calls in exactly tpu_serve::run's order
        // (next arrival, then timer re-arm inside the delivery tail).
        self.schedule_next_arrival(tenant, now);
        let Some(replica) = picked else {
            // Every replica is down: park the request; it re-routes on
            // recovery or scale-up.
            self.note("park", now);
            self.trs[tenant].parked.push_back(now);
            return;
        };
        // Hedging (opt-in): arm the tied-copy timer at the delay the
        // recent completion tail implies, measured past the hop so the
        // primary is always delivered before the hedge can fire.
        if let Some(delay) = self.trs[tenant].hedge_delay() {
            let tr = &mut self.trs[tenant];
            let rt = tr.retry_rt.as_mut().expect("hedge implies policy");
            rt.hedge_pending
                .insert(now.to_bits(), HedgeTie::Pending { primary: replica });
            self.q.schedule(
                now + tr.hop_ms + delay,
                FleetEvent::HedgeFire { tenant, ts: now },
            );
        }
        self.deliver_or_hop(tenant, replica, now, now);
    }

    /// Queue the tenant's next front-end arrival, if its source has one
    /// left; returns whether it did.
    fn schedule_next_arrival(&mut self, tenant: usize, now: f64) -> bool {
        let Some(at) = self.trs[tenant].gen.next_arrival_ms(now) else {
            return false;
        };
        self.trs[tenant].pending_arrival = true;
        self.q.schedule(at, FleetEvent::Arrival { tenant });
        true
    }

    /// A routed request reaches its replica after the hop. If the host
    /// crashed meanwhile, retry it elsewhere at its original arrival
    /// time `ts`.
    fn on_deliver(&mut self, tenant: usize, replica: usize, ts: f64, now: f64) {
        self.tally(EventKind::Deliver);
        self.trs[tenant].in_hop -= 1;
        if self.hosts[self.trs[tenant].replicas[replica].host].healthy {
            self.enqueue(tenant, replica, ts, now);
            return;
        }
        // A mid-hop request can't be tied yet, so any hedge entry is
        // still pending — discard it (retries are never hedged).
        self.release(tenant, replica, 1);
        if let Some(rt) = self.trs[tenant].retry_rt.as_mut() {
            rt.hedge_pending.remove(&ts.to_bits());
        }
        self.retry_or_drop(tenant, ts, now);
    }

    /// A host-internal event — batching timer, weight-swap promotion,
    /// or die completion — then a dispatch pass. Events scheduled
    /// before the host's last crash are stale.
    fn on_host(&mut self, host: usize, epoch: u32, event: HostEvent, now: f64) {
        if epoch != self.hosts[host].epoch {
            self.tally(EventKind::StaleHost);
            return;
        }
        self.hosts[host].events += 1;
        match event {
            HostEvent::Timer { slot, generation } => {
                self.tally(EventKind::Timer);
                if !self.hosts[host].core.on_timer(slot, generation) {
                    return; // stale timer; the queue changed
                }
            }
            HostEvent::WeightSwap { die } => {
                self.tally(EventKind::WeightSwap);
                // Bookkeeping only: the die's pending model becomes
                // active. No capacity changed (the die stays busy until
                // its DieFree), so skip the dispatch pass — but the
                // promotion cooled the die's previous model, so refresh
                // warmth.
                self.hosts[host].core.on_weight_swap(die);
                self.refresh_host_warmth(host);
                return;
            }
            HostEvent::DieFree { die, generation } => {
                self.tally(EventKind::DieFree);
                if let Some(done) = self.hosts[host].core.on_die_free(die, generation) {
                    self.complete_batch(host, die, done, now);
                }
            }
        }
        self.try_dispatch_host(host, now);
    }

    /// A batch finished on `(host, die)`: release its requests, then
    /// feed its just-committed latencies to the hedge window, the
    /// brownout controller, and the instruments.
    fn complete_batch(&mut self, host: usize, die: usize, done: CompletedBatch, now: f64) {
        let tenant = self.hosts[host].slot_owner[done.slot];
        let replica = self.hosts[host].slot_replica[done.slot];
        self.release(tenant, replica, done.completions);
        // The batch's latencies were just committed at the end of the
        // slot's buffer.
        let core = &self.hosts[host].core;
        let lats =
            core.slot_latencies_from(done.slot, core.latency_count(done.slot) - done.completions);
        let tr = &mut self.trs[tenant];
        tr.observe_hedge_window(lats);
        let spec = &tr.spec.tenant;
        if let Some(b) = self.brownout.as_mut() {
            for &l in lats {
                b.observe(tenant, l > spec.slo_ms, now, &mut self.fe_probe);
            }
        }
        let service_ms = done.end_ms - done.start_ms - done.swap_ms;
        self.tel
            .observe_batch(&spec.name, spec.slo_ms, host, die, lats, service_ms);
    }

    /// Autoscaler tick: evaluate every tenant, rescue parked requests,
    /// sample the replica counts, and re-arm while work remains.
    fn on_autoscale(&mut self, now: f64) {
        self.tally(EventKind::Autoscale);
        let cfg = self.spec.autoscale.as_ref().expect("tick implies config");
        // Serving counts before the pass, so scale decisions can be
        // traced as front-end instants afterwards.
        let before = self.fe_probe.is_some().then(|| self.sample_now(now));
        for t in 0..self.trs.len() {
            self.autoscale_tenant(t, now, cfg);
        }
        // Rescue path: parked requests mean every replica of a tenant
        // is unreachable — effectively infinite queue depth — so try to
        // place a replica regardless of the window signals or cooldown.
        // If nothing can be placed and no failure event is still
        // pending, the fleet can never serve them: fail loudly instead
        // of ticking forever.
        for t in 0..self.trs.len() {
            self.unpark(t, now);
            if self.trs[t].parked.is_empty() {
                continue;
            }
            let rescued = self.try_scale_up(t, now);
            if !rescued && self.failures_processed == self.scope.failures.len() {
                panic!(
                    "tenant {t} ({}) has {} parked requests, no healthy \
                     replica, no pending recovery, and nowhere to place a \
                     new replica — the fleet is unservable",
                    self.trs[t].spec.tenant.name,
                    self.trs[t].parked.len()
                );
            }
        }
        let sample = self.sample_now(now);
        if let (Some(p), Some(before)) = (self.fe_probe.as_mut(), before) {
            let counts = before.replicas.iter().zip(&sample.replicas);
            for (tr, (b, a)) in self.trs.iter().zip(counts) {
                if a > b {
                    p.instant("scale-up", &tr.spec.tenant.name, now);
                } else if a < b {
                    p.instant("scale-down", &tr.spec.tenant.name, now);
                }
            }
        }
        self.timeline.push(sample);
        let active = self.trs.iter().any(|tr| {
            tr.undelivered() > 0
                || tr.in_hop > 0
                || tr.displaced_pending > 0
                || !tr.parked.is_empty()
                || tr.replicas.iter().any(|r| r.outstanding > 0)
        });
        if active {
            self.q
                .schedule(now + cfg.interval_ms, FleetEvent::Autoscale);
        }
    }

    /// The `index`-th scheduled failure strikes its host; the replica
    /// counts are sampled after it.
    fn on_failure(&mut self, index: usize, now: f64) {
        self.tally(EventKind::Failure);
        self.failures_processed += 1;
        let (fail_id, f) = self.scope.failures[index];
        let host = f.host;
        match f.kind {
            FailureKind::Crash => self.crash(host, now),
            FailureKind::Recover if !self.hosts[host].healthy => {
                if let Some(p) = self.fe_probe.as_mut() {
                    p.instant("fault", &format!("recover host{host}"), now);
                }
                self.hosts[host].healthy = true;
                // A recovery behind a partition restores the core but
                // not routability; the reinsert and unpark happen at
                // rejoin.
                if !self.hosts[host].partitioned {
                    self.rejoin(host, now);
                }
            }
            FailureKind::SlowStart { factor } => self.hosts[host].core.set_slow_factor(factor),
            FailureKind::SlowEnd => self.hosts[host].core.set_slow_factor(1.0),
            FailureKind::PartitionStart if !self.hosts[host].partitioned => {
                if let Some(p) = self.fe_probe.as_mut() {
                    p.instant("fault", &format!("partition host{host}"), now);
                }
                // The host looks dead to the router but keeps draining
                // its queues; a crashed host's replicas are already out
                // of every index.
                if self.hosts[host].healthy {
                    self.reindex_host(host, false);
                }
                self.hosts[host].partitioned = true;
            }
            FailureKind::PartitionEnd if self.hosts[host].partitioned => {
                if let Some(p) = self.fe_probe.as_mut() {
                    p.instant("fault", &format!("rejoin host{host}"), now);
                }
                self.hosts[host].partitioned = false;
                // Rejoin with whatever stale queues built up while
                // unreachable; routable again iff the host is also
                // healthy.
                if self.hosts[host].healthy {
                    self.rejoin(host, now);
                }
            }
            FailureKind::DieFail { die } => {
                // Partial degradation: the die leaves the pool whether
                // or not the host is up (the outage survives a
                // crash/recover cycle); a displaced in-flight batch
                // re-enters through the retry layer.
                let displaced = self.hosts[host].core.fail_die(die, now);
                self.requeue_displaced(host, displaced, now);
                // The weight wipe cooled the die; re-derive the cached
                // warmth for swap-affinity routing.
                self.refresh_host_warmth(host);
            }
            FailureKind::DieRecover { die } => {
                self.hosts[host].core.recover_die(die);
                if self.hosts[host].healthy {
                    // The pool grew: queued work may dispatch.
                    self.try_dispatch_host(host, now);
                }
            }
            FailureKind::DieSlow { die, factor } => {
                self.hosts[host].core.set_die_slow(die, factor);
            }
            // A recovery of a healthy host, a second partition, or a
            // rejoin of a reachable one changes nothing.
            FailureKind::Recover | FailureKind::PartitionStart | FailureKind::PartitionEnd => {}
        }
        let sample = self.sample_now(now);
        self.fail_samples.push((fail_id, sample.clone()));
        self.timeline.push(sample);
    }

    /// A host crash: its replicas leave the serving index, its epoch
    /// moves on (staling every event it had scheduled), and the
    /// requests queued or in flight on it re-enter through the retry
    /// layer.
    fn crash(&mut self, host: usize, now: f64) {
        if !self.hosts[host].healthy {
            return;
        }
        // Serving replicas on this host leave the routing index before
        // the health flip (they are already out if partitioned).
        if !self.hosts[host].partitioned {
            self.reindex_host(host, false);
        }
        let h = &mut self.hosts[host];
        h.healthy = false;
        h.epoch += 1;
        h.crashes += 1;
        let displaced = h.core.crash(now);
        // The wipe bumped the weights epoch; the replicas are already
        // out of every index and re-derive warmth at recover, so just
        // sync the cache marker.
        h.warm_epoch = h.core.weights_epoch();
        self.requeue_displaced(host, displaced, now);
    }

    /// Send the requests a crash or die failure displaced from `host`'s
    /// slots (`(slot, arrival times)`) back through the retry layer.
    fn requeue_displaced(
        &mut self,
        host: usize,
        displaced: impl IntoIterator<Item = (usize, Vec<f64>)>,
        now: f64,
    ) {
        // Two phases: first count every displaced request as pending so
        // no re-delivery can prematurely mark its tenant drained (and
        // flush partial batches) while siblings are still waiting to be
        // re-routed.
        let mut requeue: Vec<(usize, f64)> = Vec::new();
        for (slot, arrivals) in displaced {
            let tenant = self.hosts[host].slot_owner[slot];
            let replica = self.hosts[host].slot_replica[slot];
            self.release(tenant, replica, arrivals.len());
            self.trs[tenant].displaced_pending += arrivals.len();
            requeue.extend(arrivals.into_iter().map(|ts| (tenant, ts)));
        }
        for (tenant, ts) in requeue {
            self.trs[tenant].displaced_pending -= 1;
            // Hedge interplay: a displaced copy's tie is broken. A
            // still-queued sibling on another host serves the request
            // alone (no retry); a sole pending copy falls through to the
            // retry layer. In-flight requests resolved their ties at
            // dispatch, so they have no entry.
            let tie = self.trs[tenant]
                .retry_rt
                .as_mut()
                .and_then(|rt| rt.hedge_pending.remove(&ts.to_bits()));
            if !matches!(tie, Some(HedgeTie::Tied { .. })) {
                self.retry_or_drop(tenant, ts, now);
            }
        }
    }

    /// A host became routable again (recovered while reachable, or
    /// rejoined while healthy): its replicas re-enter the serving
    /// indexes and parked requests re-route.
    fn rejoin(&mut self, host: usize, now: f64) {
        self.reindex_host(host, true);
        for t in 0..self.trs.len() {
            self.unpark(t, now);
        }
    }

    /// The backoff elapsed: re-route at the original arrival time `ts`
    /// (or park if every replica is down).
    fn on_retry(&mut self, tenant: usize, ts: f64, now: f64) {
        self.tally(EventKind::Retry);
        self.trs[tenant].displaced_pending -= 1;
        self.route_request(tenant, ts, now);
    }

    /// The hedge delay elapsed for the request that arrived at `ts`: if
    /// it is still pending, tie a copy to the least-outstanding serving
    /// replica other than the one holding it.
    fn on_hedge_fire(&mut self, tenant: usize, ts: f64, now: f64) {
        self.tally(EventKind::HedgeFire);
        let bits = ts.to_bits();
        let tr = &mut self.trs[tenant];
        let rt = tr.retry_rt.as_mut().expect("fire implies policy");
        // Still pending? Dispatched or displaced requests had their
        // entries removed; this fire is then stale.
        let Some(&HedgeTie::Pending { primary }) = rt.hedge_pending.get(&bits) else {
            return;
        };
        let second = tr
            .replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| i != primary && serving(r, &self.hosts))
            .min_by_key(|&(i, r)| (r.outstanding, i))
            .map(|(i, _)| i);
        let Some(second) = second else {
            // Nowhere to hedge to; the primary stays solo.
            rt.hedge_pending.remove(&bits);
            return;
        };
        rt.hedge_pending.insert(
            bits,
            HedgeTie::Tied {
                primary,
                hedge: second,
            },
        );
        tr.hedges += 1;
        self.note("hedge", now);
        // The tied copy injects straight into the second replica's
        // queue (the hedge delay already dominates the hop) and keeps
        // the original arrival time, so a hedge win is a real latency
        // win.
        let o = self.trs[tenant].replicas[second].outstanding;
        self.set_outstanding(tenant, second, o + 1);
        self.enqueue(tenant, second, ts, now);
    }

    /// Check the end state, close the replica timeline at the makespan,
    /// and hand the instruments their end-of-run data.
    fn finish(mut self) -> ScopedRun {
        for (t, tr) in self.trs.iter().enumerate() {
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
                .map(|r| self.hosts[r.host].core.latency_count(r.slot))
                .sum();
            assert_eq!(
                served + tr.dropped + tr.shed,
                tr.spec.tenant.requests,
                "tenant {t} lost requests (engine bug)"
            );
        }
        let makespan_ms = self
            .hosts
            .iter()
            .map(|h| h.core.makespan_ms())
            .fold(0.0, f64::max);
        // Close the timeline at the makespan, unless the last recorded
        // sample already covers that instant with the same counts.
        let last_t = self.timeline.last().map_or(0.0, |s| s.t_ms);
        let closing = self.sample_now(makespan_ms.max(last_t));
        if self.timeline.last() != Some(&closing) {
            self.timeline.push(closing);
        }
        let q = &self.q;
        self.tel.finish_run(
            self.hosts.iter_mut().map(|h| h.core.take_probes()),
            self.fe_probe.take(),
            makespan_ms,
            EventKind::NAMES.iter().copied().zip(self.counts),
            || q.wheel_profile(),
        );
        ScopedRun {
            hosts: self.hosts,
            trs: self.trs,
            events_processed: self.counts.iter().sum(),
            timeline: self.timeline,
            fail_samples: self.fail_samples,
            makespan_ms,
        }
    }

    /// Pick a replica for one request of `tenant`, or `None` when
    /// nothing is routable. Least-outstanding and swap affinity read the
    /// delta-maintained indexes — the same minimum as a candidate scan,
    /// without the per-request O(replicas) walk; the other policies go
    /// through the reused candidate buffer. Debug builds check every
    /// indexed pick against the scan over live replica state.
    fn pick_replica(&mut self, tenant: usize) -> Option<usize> {
        let tr = &mut self.trs[tenant];
        let hosts = &self.hosts;
        match self.spec.router {
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
                // outstanding, then lowest index. The warm subset falls
                // back to the full serving index when no replica is warm
                // — the `(cold, outstanding, replica)` minimum, since
                // warm always beats cold.
                let pick = tr.warm.least().or_else(|| tr.index.least());
                debug_assert_eq!(
                    pick,
                    scan_swap_aware(tr, hosts),
                    "tenant {}: swap-aware index pick differs from the scan",
                    tr.spec.tenant.name
                );
                pick
            }
            policy => {
                tr.fill_candidates(hosts);
                tr.router.pick(policy, tenant, &tr.cand_buf)
            }
        }
    }

    /// Route one request (fresh, retried, or unparked) at time `now`,
    /// keeping its original arrival timestamp `ts` for latency
    /// accounting.
    fn route_request(&mut self, tenant: usize, ts: f64, now: f64) {
        match self.pick_replica(tenant) {
            None => self.trs[tenant].parked.push_back(ts),
            Some(replica) => self.deliver_or_hop(tenant, replica, ts, now),
        }
    }

    /// Hand one routed request (front-end arrival time `ts`) to
    /// `replica`: either schedule the network hop or deliver straight
    /// into the host queue. The single delivery path shared by fresh
    /// arrivals, crash retries, and unparked requests.
    fn deliver_or_hop(&mut self, tenant: usize, replica: usize, ts: f64, now: f64) {
        let o = self.trs[tenant].replicas[replica].outstanding;
        self.set_outstanding(tenant, replica, o + 1);
        let hop = self.trs[tenant].hop_ms;
        if hop > 0.0 {
            self.trs[tenant].in_hop += 1;
            self.q.schedule(
                now + hop,
                FleetEvent::Deliver {
                    tenant,
                    replica,
                    arrived_ms: ts,
                },
            );
        } else {
            self.enqueue(tenant, replica, ts, now);
        }
    }

    /// Queue a request (front-end arrival time `ts`) on `replica`'s
    /// host, then run the delivery tail: check whether the tenant just
    /// became fully delivered (flush its other replicas), re-arm the
    /// receiving slot's timer, and dispatch — in exactly the order
    /// `tpu_serve::run` uses, so the 1-host fleet replays it bit for
    /// bit.
    fn enqueue(&mut self, tenant: usize, replica: usize, ts: f64, now: f64) {
        let r = &self.trs[tenant].replicas[replica];
        let (host, slot) = (r.host, r.slot);
        self.hosts[host].core.enqueue(slot, ts);
        self.hosts[host].events += 1;
        let flush_hosts = self.mark_drained(tenant, host);
        {
            let (core, mut sched) = self.host_core(host);
            core.after_arrival(slot, now, &mut sched);
        }
        self.try_dispatch_host(host, now);
        for h in flush_hosts {
            self.try_dispatch_host(h, now);
        }
    }

    /// Split borrow: host `host`'s core, and a scheduler that queues the
    /// core's events tagged with the host's current epoch. Callers
    /// scope the pair in a block, since the opaque scheduler holds the
    /// borrow until it drops.
    fn host_core(&mut self, host: usize) -> (&mut HostCore, impl FnMut(f64, HostEvent) + '_) {
        let h = &mut self.hosts[host];
        let (epoch, q) = (h.epoch, &mut self.q);
        let sched = move |at, event| q.schedule(at, FleetEvent::Host { host, epoch, event });
        (&mut h.core, sched)
    }

    /// Mark the tenant drained once every request has been generated
    /// and delivered: all live replicas flush partial batches. Returns
    /// the *other* hosts (not `delivered_host`) that need a dispatch
    /// pass; the caller runs them after its own, preserving single-host
    /// event order.
    fn mark_drained(&mut self, tenant: usize, delivered_host: usize) -> Vec<usize> {
        let tr = &mut self.trs[tenant];
        // Cheap flags first: `pending_arrival` is true for nearly every
        // delivery mid-run, so the virtual `remaining()` call on the
        // boxed arrival source is skipped on the hot path.
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
                self.hosts[r.host].core.set_draining(r.slot, true);
                if r.host != delivered_host && !flush.contains(&r.host) {
                    flush.push(r.host);
                }
            }
        }
        flush
    }

    /// Flush the tenant's replicas if a request leaving without a
    /// delivery (shed or dropped) was its last piece of work.
    fn flush_if_drained(&mut self, tenant: usize, now: f64) {
        for h in self.mark_drained(tenant, usize::MAX) {
            self.try_dispatch_host(h, now);
        }
    }

    /// Dispatch ready work on one host. Dispatches can begin weight
    /// swaps (warming the new model's die, displacing the old), so the
    /// warmth cache is refreshed on the way out, and dispatched hedged
    /// requests cancel their tied copies.
    fn try_dispatch_host(&mut self, host: usize, now: f64) {
        {
            let (core, mut sched) = self.host_core(host);
            core.try_dispatch(now, &mut sched);
        }
        self.refresh_host_warmth(host);
        self.resolve_ties(host, now);
    }

    /// First-wins hedge resolution: every request that just dispatched
    /// on `host` cancels its tied sibling's still-queued copy at that
    /// sibling's queue, so exactly one copy ever executes. Runs directly
    /// after each dispatch pass — before any other host can dispatch —
    /// so two copies of one request can never both reach a die. A no-op
    /// for fleets without hedging (the dispatch log only exists when
    /// it's on).
    fn resolve_ties(&mut self, host: usize, now: f64) {
        let mut dispatched: Vec<(usize, f64)> = Vec::new();
        self.hosts[host].core.drain_dispatched(&mut dispatched);
        for (slot, ts) in dispatched {
            let tenant = self.hosts[host].slot_owner[slot];
            let tr = &mut self.trs[tenant];
            let Some(tie) = tr
                .retry_rt
                .as_mut()
                .and_then(|rt| rt.hedge_pending.remove(&ts.to_bits()))
            else {
                continue;
            };
            let winner = self.hosts[host].slot_replica[slot];
            let loser = match tie {
                // No tied copy was launched; removing the entry just
                // staled the pending hedge timer.
                HedgeTie::Pending { .. } => continue,
                HedgeTie::Tied { primary, hedge } if winner == hedge => {
                    tr.hedge_wins += 1;
                    primary
                }
                HedgeTie::Tied { hedge, .. } => hedge,
            };
            let r = &tr.replicas[loser];
            let (lhost, lslot) = (r.host, r.slot);
            let canceled = {
                let (core, mut sched) = self.host_core(lhost);
                core.cancel_queued(lslot, ts, now, &mut sched)
            };
            if canceled {
                self.release(tenant, loser, 1);
            }
        }
    }

    /// Move a replica's outstanding count to `outstanding`, keeping the
    /// serving indexes in sync when the replica is serving.
    fn set_outstanding(&mut self, tenant: usize, replica: usize, outstanding: usize) {
        let in_index = self.trs[tenant].eligible(replica, &self.hosts);
        let tr = &mut self.trs[tenant];
        let old = tr.replicas[replica].outstanding;
        tr.replicas[replica].outstanding = outstanding;
        if in_index {
            tr.index.update(old, outstanding, replica);
            if tr.swap_indexed && tr.replicas[replica].warm {
                tr.warm.update(old, outstanding, replica);
            }
        }
    }

    /// `n` of a replica's outstanding requests left it (served,
    /// displaced, or canceled); a draining replica retires once the
    /// last one clears.
    fn release(&mut self, tenant: usize, replica: usize, n: usize) {
        let o = self.trs[tenant].replicas[replica].outstanding;
        self.set_outstanding(tenant, replica, o - n);
        let tr = &mut self.trs[tenant];
        let r = &mut tr.replicas[replica];
        if r.live && !r.routable && r.outstanding == 0 {
            r.live = false;
            self.hosts[r.host].weight_used -= tr.weight_bytes;
            self.hosts[r.host].live_slots -= 1;
        }
    }

    /// A host's health flipped: add (`true`) or drop (`false`) every
    /// routable replica it carries from its tenant's serving index.
    fn reindex_host(&mut self, host: usize, now_serving: bool) {
        let h = &self.hosts[host];
        for (&tenant, &replica) in h.slot_owner.iter().zip(&h.slot_replica) {
            let tr = &mut self.trs[tenant];
            let r = &mut tr.replicas[replica];
            if !(r.live && r.routable) {
                continue;
            }
            if now_serving {
                // Warmth is re-derived fresh at insert (the host's dies
                // were wiped by the crash that removed it), so the warm
                // subset never trusts a bit cached across an outage.
                r.warm = tr.swap_indexed && h.core.slot_has_warm_die(r.slot);
                tr.index.insert(r.outstanding, replica);
                if r.warm {
                    tr.warm.insert(r.outstanding, replica);
                }
            } else {
                tr.index.remove(r.outstanding, replica);
                if tr.swap_indexed && r.warm {
                    tr.warm.remove(r.outstanding, replica);
                }
            }
        }
    }

    /// Re-derive the cached warmth bits for one host's replicas after
    /// its die weight state changed (swap begun, swap completed, die
    /// wiped), moving serving replicas between the swap-affinity warm
    /// index and the cold remainder. One integer compare when nothing
    /// changed — the common case for every non-co-located fleet.
    fn refresh_host_warmth(&mut self, host: usize) {
        let h = &mut self.hosts[host];
        let epoch = h.core.weights_epoch();
        if epoch == h.warm_epoch {
            return;
        }
        h.warm_epoch = epoch;
        if !h.healthy || h.partitioned {
            // Crashed and partitioned hosts' replicas are out of every
            // index (a partitioned host still drains, so its warmth
            // keeps changing); their bits are re-derived at the
            // reinsert on recovery or rejoin.
            return;
        }
        for (&tenant, &replica) in h.slot_owner.iter().zip(&h.slot_replica) {
            let tr = &mut self.trs[tenant];
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
                if warm {
                    tr.warm.insert(r.outstanding, replica);
                } else {
                    tr.warm.remove(r.outstanding, replica);
                }
            }
        }
    }

    /// One displaced request hits the retry layer. With no policy this
    /// is the legacy path verbatim: count the retry and re-route
    /// immediately, with no bound. With a policy: bounded attempts
    /// (`max_attempts` counts the original send), a lazily-refilled
    /// token-bucket retry budget, and deterministic exponential backoff
    /// with seeded jitter — the re-route happens at a later
    /// [`FleetEvent::Retry`]. An abandoned request may have been the
    /// tenant's last piece of work, so a drop runs the drained flush.
    fn retry_or_drop(&mut self, tenant: usize, ts: f64, now: f64) {
        let tr = &mut self.trs[tenant];
        let Some(rt) = tr.retry_rt.as_mut() else {
            tr.retries += 1;
            self.note("retry", now);
            if let Some(l) = self.tel.requests.as_mut() {
                l.note_retry(&self.trs[tenant].spec.tenant.name, ts);
            }
            self.route_request(tenant, ts, now);
            return;
        };
        let bits = ts.to_bits();
        let spent = rt.attempts.get(&bits).copied().unwrap_or(0);
        let exhausted = spent + 1 >= rt.policy.max_attempts;
        // Lazily refill the budget bucket before judging this retry.
        let over_budget = rt.policy.budget.is_some_and(|b| {
            rt.tokens = (rt.tokens + (now - rt.last_refill_ms) * b.refill_per_ms).min(b.tokens);
            rt.last_refill_ms = now;
            rt.tokens < 1.0
        });
        if exhausted || over_budget {
            rt.attempts.remove(&bits);
            tr.dropped += 1;
            self.note("drop", now);
            if let Some(l) = self.tel.requests.as_mut() {
                l.note_drop(&self.trs[tenant].spec.tenant.name, ts);
            }
            // An abandoned request is burn: feed the component's
            // brownout controller so retry-budget pressure can trip
            // sheds.
            if let Some(b) = self.brownout.as_mut() {
                b.observe(tenant, true, now, &mut self.fe_probe);
            }
            self.flush_if_drained(tenant, now);
            return;
        }
        rt.attempts.insert(bits, spent + 1);
        if rt.policy.budget.is_some() {
            rt.tokens -= 1.0;
        }
        let u = rt.rng.gen_range(0.0..1.0);
        let delay = rt.policy.backoff_ms(spent + 1, u);
        tr.retries += 1;
        // Count the request as displaced until its Retry fires, so the
        // drained check can't trip while it waits out the backoff.
        tr.displaced_pending += 1;
        self.note("backoff", now);
        if let Some(l) = self.tel.requests.as_mut() {
            l.note_retry(&self.trs[tenant].spec.tenant.name, ts);
        }
        self.q
            .schedule(now + delay, FleetEvent::Retry { tenant, ts });
    }

    /// Re-route parked requests while candidates exist.
    fn unpark(&mut self, tenant: usize, now: f64) {
        while let Some(&ts) = self.trs[tenant].parked.front() {
            if !self.trs[tenant].has_candidates(&self.hosts) {
                break;
            }
            self.trs[tenant].parked.pop_front();
            self.route_request(tenant, ts, now);
        }
    }

    /// Evaluate and apply one tenant's autoscaling decision.
    fn autoscale_tenant(&mut self, tenant: usize, now: f64, cfg: &AutoscaleConfig) {
        // Gather the window signals and advance the watermarks. Window
        // latencies include draining replicas (their completions are
        // real tail samples), but the utilization signal counts only
        // *serving* replicas' busy time — busy time burned by draining
        // or crashed replicas must not inflate the per-serving-replica
        // average and trigger spurious scale-ups.
        let mut window: Vec<f64> = Vec::new();
        let mut busy_delta = 0.0;
        let hosts = &self.hosts;
        let tr = &mut self.trs[tenant];
        for r in &mut tr.replicas {
            let core = &hosts[r.host].core;
            window.extend_from_slice(core.slot_latencies_from(r.slot, r.window_mark));
            r.window_mark = core.latency_count(r.slot);
            let busy = core.slot_busy_ms(r.slot);
            let delta = busy - r.busy_mark;
            r.busy_mark = busy;
            if serving(r, hosts) {
                busy_delta += delta;
            }
        }
        window.sort_unstable_by(|a, b| a.total_cmp(b));
        let window_p99 = (!window.is_empty()).then(|| percentile(&window, 0.99));
        let serving_now = tr.serving_replicas(hosts);
        let decision = decide(
            cfg,
            &ScaleSignals {
                window_p99,
                slo_ms: tr.spec.tenant.slo_ms,
                replica_util: busy_delta / (cfg.interval_ms * serving_now.max(1) as f64),
                replicas: serving_now,
                min_replicas: tr.spec.min_replicas,
                max_replicas: tr.spec.max_replicas,
                since_last_action_ms: now - tr.last_scale_ms,
            },
        );
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up => {
                self.try_scale_up(tenant, now);
            }
            ScaleDecision::Down => self.scale_down(tenant, now),
        }
    }

    /// Drain the least-loaded serving replica of `tenant`: it leaves
    /// the routable set, flushes its queue, and retires once empty.
    fn scale_down(&mut self, tenant: usize, now: f64) {
        let tr = &mut self.trs[tenant];
        let victim = tr
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| serving(r, &self.hosts))
            .min_by_key(|(i, r)| (r.outstanding, *i));
        let Some((replica, _)) = victim else {
            return;
        };
        let r = &mut tr.replicas[replica];
        r.routable = false;
        // The victim was serving (the filter above); draining removes
        // it from the routable set.
        tr.index.remove(r.outstanding, replica);
        if tr.swap_indexed && r.warm {
            tr.warm.remove(r.outstanding, replica);
        }
        let (host, slot) = (r.host, r.slot);
        self.hosts[host].core.set_draining(slot, true);
        self.try_dispatch_host(host, now);
        // Releasing nothing retires the victim at once if it is empty.
        self.release(tenant, replica, 0);
        self.trs[tenant].last_scale_ms = now;
    }

    /// Place one more replica of a tenant on the best eligible host
    /// (healthy, free weight memory, not already hosting it), route any
    /// parked requests to it, and stamp the cooldown. Returns whether a
    /// replica was placed.
    fn try_scale_up(&mut self, tenant: usize, now: f64) -> bool {
        let tr = &self.trs[tenant];
        // The ceiling counts *live* replicas, including ones on crashed
        // hosts (they rejoin on recovery): a transient outage must not
        // let the tenant durably exceed its configured max_replicas.
        if tr.replicas.iter().filter(|r| r.live).count() >= tr.spec.max_replicas {
            return false;
        }
        let target = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(h, hr)| {
                hr.healthy
                    && !hr.partitioned
                    && hr.weight_used + tr.weight_bytes <= self.spec.hosts[*h].weight_capacity_bytes
                    && !tr.replicas.iter().any(|r| r.live && r.host == *h)
            })
            .min_by_key(|(h, hr)| (hr.live_slots, *h));
        let Some((host, _)) = target else {
            return false;
        };
        self.trs[tenant].place_replica(tenant, host, &mut self.hosts);
        self.trs[tenant].last_scale_ms = now;
        self.unpark(tenant, now);
        true
    }

    /// Snapshot the per-tenant serving replica counts.
    fn sample_now(&self, t_ms: f64) -> ReplicaSample {
        ReplicaSample {
            t_ms,
            replicas: self
                .trs
                .iter()
                .map(|tr| tr.serving_replicas(&self.hosts))
                .collect(),
        }
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
        mut hosts,
        trs,
        events_processed,
        timeline,
        makespan_ms,
        ..
    } = out;

    // Reporting sorts every slot's latency log, which `tenant_report`
    // then reads.
    let host_reports: Vec<ServeReport> = hosts
        .iter_mut()
        .map(|h| h.core.report(h.core.makespan_ms(), h.events))
        .collect();
    let tenant_reports: Vec<FleetTenantReport> = trs
        .iter()
        .enumerate()
        .map(|(t, tr)| {
            let counts: Vec<usize> = timeline.iter().map(|s| s.replicas[t]).collect();
            tenant_report(tr, &hosts, &counts, makespan_ms)
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

/// One tenant's fleet-wide row: latencies merged across its replicas,
/// and its serving-replica `counts` along the timeline. `hosts` have
/// been reported, so each slot's latency log is already sorted: a
/// single replica's log is read as it is, and several are merged into
/// one buffer of their exact total length and sorted.
fn tenant_report(
    tr: &TenantRt,
    hosts: &[HostRt],
    counts: &[usize],
    makespan_ms: f64,
) -> FleetTenantReport {
    let slots = || tr.replicas.iter().map(|r| (&hosts[r.host].core, r.slot));
    let merged: Vec<f64>;
    let sorted: &[f64] = match tr.replicas.as_slice() {
        [r] => hosts[r.host].core.slot_latencies(r.slot),
        _ => {
            let len = slots().map(|(core, slot)| core.latency_count(slot)).sum();
            let mut all = Vec::with_capacity(len);
            for (core, slot) in slots() {
                all.extend_from_slice(core.slot_latencies(slot));
            }
            all.sort_unstable_by(f64::total_cmp);
            merged = all;
            &merged
        }
    };
    debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
    let n = sorted.len();
    let batches: usize = slots().map(|(core, slot)| core.slot_batches(slot)).sum();
    let dispatched: usize = slots().map(|(core, slot)| core.slot_dispatched(slot)).sum();
    let slo_ms = tr.spec.tenant.slo_ms;
    let slo_hits = sorted.iter().filter(|&&l| l <= slo_ms).count();
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
        mean_ms: sorted.iter().sum::<f64>() / n.max(1) as f64,
        p50_ms: percentile(sorted, 0.50),
        p95_ms: percentile(sorted, 0.95),
        p99_ms: percentile(sorted, 0.99),
        slo_ms,
        slo_attainment: slo_hits as f64 / n.max(1) as f64,
        throughput_rps: n as f64 / makespan_ms.max(f64::MIN_POSITIVE) * 1000.0,
        replicas_final: *counts.last().expect("timeline non-empty"),
        replicas_min: counts.iter().copied().min().unwrap_or(0),
        replicas_max: counts.iter().copied().max().unwrap_or(0),
        swaps: slots().map(|(core, slot)| core.slot_swaps(slot)).sum(),
        swap_ms: slots().map(|(core, slot)| core.slot_swap_ms(slot)).sum(),
    }
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
        let mut tel = RunTelemetry::off();
        let mut st = FleetState::new(&spec, &tenants, &cfg, &mut tel, &scope);
        // The index still files replica 0 at zero outstanding, so it
        // picks replica 0; the scan sees three and picks replica 1.
        st.trs[0].replicas[0].outstanding = 3;
        st.pick_replica(0);
    }
}

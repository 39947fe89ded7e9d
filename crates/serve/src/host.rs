//! One serving host as a reusable, externally-clocked state machine.
//!
//! [`HostCore`] is the multi-layer extraction behind `tpu_cluster`: it
//! owns everything *inside* one host — per-tenant queues, batching
//! timers, the die pool, the seeded service-jitter stream, committed
//! latencies — but not the clock and not the arrival streams. Callers
//! feed it deliveries and events and pass a `sched` closure through
//! which it schedules its own future [`HostEvent`]s:
//!
//! * `tpu_serve::run` drives one `HostCore` from its own
//!   [`crate::event::EventQueue`], generating arrivals locally;
//! * `tpu_cluster` drives many under a single fleet-level queue,
//!   routing front-end arrivals onto hosts and injecting failures.
//!
//! Latencies are committed when a batch *completes* (the die-free
//! event), not when it dispatches — so a host crash can return both its
//! queued and its in-flight requests for fleet-level retry. Die
//! selection breaks busy-time ties by die index explicitly, keeping
//! dispatch a pure function of host state.

use crate::policy::BatchPolicy;
use crate::report::{percentile, DieReport, ServeReport, TenantReport};
use crate::service::ServiceCurve;
use crate::sim;
use crate::tenant::TenantSpec;
use crate::weights::{DieWeights, ModelWeights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
pub use tpu_platforms::server::Dispatch;
use tpu_telemetry::{HostProbe, RequestProbe, RunTelemetry};

/// An event a host schedules for itself. The embedding simulation maps
/// these onto its own event enum (see [`crate::event::Event`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostEvent {
    /// A batching timer for tenant slot `slot` fires; stale timers are
    /// skipped via `generation`.
    Timer {
        /// Index into the host's slot table.
        slot: usize,
        /// Queue generation the timer was armed against.
        generation: u64,
    },
    /// `die` finishes its current batch; stale events (the die failed
    /// and was cleared since this batch dispatched) are skipped via
    /// `generation`.
    DieFree {
        /// Index into the host's die table.
        die: usize,
        /// Die generation the batch dispatched against (always 0 on a
        /// host that never loses a die).
        generation: u64,
    },
    /// The weight FIFO finishes streaming a new model's weights into
    /// `die` (scheduled only when co-located slots carry
    /// [`ModelWeights`]; a weight-free host never emits it).
    WeightSwap {
        /// Index into the host's die table.
        die: usize,
    },
}

/// A batch that just completed on a die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedBatch {
    /// Tenant slot the batch belonged to.
    pub slot: usize,
    /// Requests in the batch (their latencies are now committed).
    pub completions: usize,
    /// Dispatch time, ms (`end - start - swap` is the on-die service
    /// time the health monitor's straggler detector scores).
    pub start_ms: f64,
    /// Weight-swap stall the batch paid at dispatch, ms.
    pub swap_ms: f64,
    /// Completion time, ms.
    pub end_ms: f64,
}

/// One tenant's residency on this host.
struct Slot {
    spec: TenantSpec,
    curve: ServiceCurve,
    queue: VecDeque<f64>,
    draining: bool,
    timer_generation: u64,
    latencies: Vec<f64>,
    batches: usize,
    dispatched: usize,
    busy_ms: f64,
    /// The model identity behind this slot's weights; `None` (the
    /// default) keeps the slot outside the weight-swap model entirely.
    weights: Option<ModelWeights>,
    /// Swaps this slot's batches initiated.
    swaps: usize,
    /// Total swap stall this slot's batches paid, ms.
    swap_ms: f64,
}

/// A batch in flight on a die. `start_ms`/`swap_ms` exist for the
/// telemetry probe (span reconstruction at completion); the scheduler
/// itself never reads them.
struct Inflight {
    slot: usize,
    start_ms: f64,
    swap_ms: f64,
    end_ms: f64,
    arrivals: Vec<f64>,
}

struct DieState {
    busy: bool,
    busy_ms: f64,
    batches: usize,
    inflight: Option<Inflight>,
    /// Which model's weights this die holds (co-located serving).
    weights: DieWeights,
    /// Whether the die is in the dispatch pool (die-level degradation
    /// takes it out; `true` on every healthy host).
    enabled: bool,
    /// Per-die service-time multiplier (1.0 = full speed), composing
    /// multiplicatively with the host-level straggler factor.
    slow: f64,
    /// Bumped when the die fails so in-flight [`HostEvent::DieFree`]
    /// events scheduled against the old incarnation go stale.
    generation: u64,
}

/// The per-host serving state machine (see module docs).
pub struct HostCore {
    slots: Vec<Slot>,
    dies: Vec<DieState>,
    dispatch: Dispatch,
    rr_next: usize,
    service_rng: StdRng,
    makespan_ms: f64,
    slow_factor: f64,
    /// Bumped whenever some die's loaded/loading weight set changes
    /// (swap begin, swap completion, crash wipe). External warmth
    /// caches ([`Self::slot_has_warm_die`] consumers, e.g. the fleet's
    /// swap-affinity router index) compare it to decide whether a
    /// refresh is needed.
    weights_epoch: u64,
    /// Recycled batch arrival buffers: a completed batch's `Vec` goes
    /// back here instead of being freed, so steady-state dispatch
    /// allocates nothing (bounded by the die count; crash-displaced
    /// buffers leave the pool with their requests).
    spare_batches: Vec<Vec<f64>>,
    /// Telemetry probe recording this host's spans; `None` (the
    /// default) keeps every hook to a single branch.
    probe: Option<Box<HostProbe>>,
    /// Request-log probe recording one record per served request;
    /// `None` (the default) keeps the completion hook to one branch.
    reqlog: Option<Box<RequestProbe>>,
    /// Opt-in dispatch log for the fleet's hedging layer: every
    /// dispatched request's `(slot, arrived_ms)` is appended so the
    /// front end can resolve tied requests first-wins at dispatch
    /// time. `None` (the default) keeps the hot path to one branch.
    dispatch_log: Option<Vec<(usize, f64)>>,
}

impl HostCore {
    /// An idle host: `dies` dies, a dispatch discipline, and a service
    /// jitter stream derived from `host_seed` (see
    /// [`sim::service_seed`]).
    ///
    /// # Panics
    ///
    /// Panics if `dies` is zero.
    pub fn new(dies: usize, dispatch: Dispatch, host_seed: u64) -> Self {
        assert!(dies > 0, "need at least one die");
        HostCore {
            slots: Vec::new(),
            dies: (0..dies)
                .map(|_| DieState {
                    busy: false,
                    busy_ms: 0.0,
                    batches: 0,
                    inflight: None,
                    weights: DieWeights::new(),
                    enabled: true,
                    slow: 1.0,
                    generation: 0,
                })
                .collect(),
            dispatch,
            rr_next: 0,
            service_rng: StdRng::seed_from_u64(sim::service_seed(host_seed)),
            makespan_ms: 0.0,
            slow_factor: 1.0,
            weights_epoch: 0,
            spare_batches: Vec::new(),
            probe: None,
            reqlog: None,
            dispatch_log: None,
        }
    }

    /// Turn on the dispatch log: [`Self::try_dispatch`] now records
    /// every dispatched request's `(slot, arrived_ms)` for
    /// [`Self::drain_dispatched`]. Purely observational.
    pub fn enable_dispatch_log(&mut self) {
        self.dispatch_log = Some(Vec::new());
    }

    /// Move the dispatch log's accumulated `(slot, arrived_ms)` pairs
    /// into `out` (a no-op when the log is off).
    pub fn drain_dispatched(&mut self, out: &mut Vec<(usize, f64)>) {
        if let Some(log) = &mut self.dispatch_log {
            out.append(log);
        }
    }

    /// Record onto `tel`'s live instruments as host `host`: a trace
    /// probe when tracing (batch completions and crashes record spans,
    /// see [`HostProbe`]), a request probe when logging requests (each
    /// completed batch records one [`tpu_telemetry::RequestRecord`] per
    /// request). Purely observational — scheduling decisions, RNG
    /// draws, and reports are unchanged.
    pub fn attach_probes(&mut self, tel: &RunTelemetry, host: u32) {
        if tel.tracer.is_some() {
            let name = format!("host {host}");
            self.probe = Some(Box::new(HostProbe::new(host, &name, self.die_count())));
        }
        if tel.requests.is_some() {
            self.reqlog = Some(Box::new(RequestProbe::new(host)));
        }
    }

    /// Detach the trace and request probes (end of run) for
    /// [`RunTelemetry::finish_run`] to absorb.
    pub fn take_probes(&mut self) -> (Option<HostProbe>, Option<RequestProbe>) {
        (
            self.probe.take().map(|b| *b),
            self.reqlog.take().map(|b| *b),
        )
    }

    /// Add a tenant slot (replica); returns its index. Slots can be
    /// added mid-simulation (fleet autoscaling).
    ///
    /// # Panics
    ///
    /// Panics if the spec's policy has a zero batch bound.
    pub fn add_slot(&mut self, spec: TenantSpec, curve: ServiceCurve) -> usize {
        assert!(
            spec.policy.max_batch() > 0,
            "tenant {} has a zero batch",
            spec.name
        );
        self.slots.push(Slot {
            curve,
            queue: VecDeque::new(),
            draining: false,
            timer_generation: 0,
            latencies: Vec::new(),
            batches: 0,
            dispatched: 0,
            busy_ms: 0.0,
            weights: None,
            swaps: 0,
            swap_ms: 0.0,
            spec,
        });
        self.slots.len() - 1
    }

    /// Enter a slot into the weight-swap model: its batches now pay
    /// `weights.swap_ms` whenever they dispatch onto a die whose active
    /// model differs (see [`crate::weights`]). Hosts whose slots never
    /// call this are byte-identical to the pre-subsystem engine.
    pub fn set_slot_weights(&mut self, slot: usize, weights: ModelWeights) {
        assert!(
            weights.swap_ms.is_finite() && weights.swap_ms >= 0.0,
            "swap cost must be finite and nonnegative"
        );
        self.slots[slot].weights = Some(weights);
    }

    /// Number of tenant slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of dies.
    pub fn die_count(&self) -> usize {
        self.dies.len()
    }

    /// The spec a slot was created with.
    pub fn slot_spec(&self, slot: usize) -> &TenantSpec {
        &self.slots[slot].spec
    }

    /// The slot's effective service curve.
    pub fn slot_curve(&self, slot: usize) -> &ServiceCurve {
        &self.slots[slot].curve
    }

    /// Queue a delivered request (front-end arrival time `arrived_ms`).
    #[inline]
    pub fn enqueue(&mut self, slot: usize, arrived_ms: f64) {
        self.slots[slot].queue.push_back(arrived_ms);
    }

    /// Mark a slot as draining: partial batches flush immediately
    /// because no further arrivals are expected.
    pub fn set_draining(&mut self, slot: usize, draining: bool) {
        self.slots[slot].draining = draining;
    }

    /// Whether a slot is draining.
    pub fn is_draining(&self, slot: usize) -> bool {
        self.slots[slot].draining
    }

    /// Re-arm the slot's batching timer after an arrival when the policy
    /// needs it. A `Timeout` deadline depends only on the oldest
    /// request, so it needs (re)arming only when this arrival *is* the
    /// new oldest; `SloAdaptive`'s depends on queue length too, so every
    /// arrival moves it. Skipping the no-op re-arms keeps the heap free
    /// of one stale timer per request.
    pub fn after_arrival(
        &mut self,
        slot: usize,
        now_ms: f64,
        sched: &mut impl FnMut(f64, HostEvent),
    ) {
        let rearm = match self.slots[slot].spec.policy {
            BatchPolicy::Fixed { .. } => false,
            BatchPolicy::Timeout { .. } => self.slots[slot].queue.len() == 1,
            BatchPolicy::SloAdaptive { .. } => true,
        };
        if rearm {
            self.arm_timer(slot, now_ms, sched);
        }
    }

    /// Handle a timer event; returns `false` for stale timers (the
    /// queue changed since the timer was armed), which the caller should
    /// ignore without attempting dispatch.
    #[inline]
    pub fn on_timer(&mut self, slot: usize, generation: u64) -> bool {
        self.slots[slot].timer_generation == generation
    }

    /// Handle a die-free event: commit the completed batch's latencies
    /// and free the die. Returns `None` if the die held no batch (e.g.
    /// it was cleared by a crash and the event is stale), or if
    /// `generation` doesn't match the die's current incarnation (the
    /// die failed since the batch dispatched — its batch was already
    /// displaced, and a newer incarnation's work must not be freed
    /// early by the stale event).
    pub fn on_die_free(&mut self, die: usize, generation: u64) -> Option<CompletedBatch> {
        let d = &mut self.dies[die];
        if d.generation != generation {
            return None;
        }
        d.busy = false;
        let inflight = d.inflight.take()?;
        // Makespan counts *completed* batches only, so a crash that
        // aborts an in-flight batch never leaves a phantom completion
        // time behind.
        self.makespan_ms = self.makespan_ms.max(inflight.end_ms);
        let slot = &mut self.slots[inflight.slot];
        let completions = inflight.arrivals.len();
        for &arrived in &inflight.arrivals {
            slot.latencies.push(inflight.end_ms - arrived);
        }
        if let Some(p) = self.probe.as_deref_mut() {
            p.batch_complete(
                die,
                &slot.spec.name,
                inflight.start_ms,
                inflight.swap_ms,
                inflight.end_ms,
                &inflight.arrivals,
            );
        }
        if let Some(r) = self.reqlog.as_deref_mut() {
            r.batch_complete(
                die,
                &slot.spec.name,
                slot.spec.slo_ms,
                inflight.start_ms,
                inflight.swap_ms,
                inflight.end_ms,
                &inflight.arrivals,
            );
        }
        let mut spare = inflight.arrivals;
        spare.clear();
        self.spare_batches.push(spare);
        Some(CompletedBatch {
            slot: inflight.slot,
            completions,
            start_ms: inflight.start_ms,
            swap_ms: inflight.swap_ms,
            end_ms: inflight.end_ms,
        })
    }

    /// Handle a weight-swap completion: the die's pending model becomes
    /// active. Returns the model, or `None` for a stale event (the die
    /// was wiped by a crash since the swap began).
    pub fn on_weight_swap(&mut self, die: usize) -> Option<usize> {
        let model = self.dies[die].weights.complete_swap();
        if model.is_some() {
            self.weights_epoch += 1;
        }
        model
    }

    /// The warmth epoch: bumped whenever some die's loaded/loading
    /// weight set changes, so callers caching
    /// [`Self::slot_has_warm_die`] answers can skip refreshes while it
    /// is unchanged.
    pub fn weights_epoch(&self) -> u64 {
        self.weights_epoch
    }

    /// Whether some die is *warm* for this slot's model — its weights
    /// are loaded or loading, so a dispatch may avoid the swap. Slots
    /// outside the weight model are always warm. The fleet front end's
    /// swap-affinity router reads this per candidate replica.
    pub fn slot_has_warm_die(&self, slot: usize) -> bool {
        match self.slots[slot].weights {
            None => true,
            Some(mw) => self.dies.iter().any(|d| d.weights.warm(mw.model)),
        }
    }

    /// Swaps a slot's batches have initiated.
    pub fn slot_swaps(&self, slot: usize) -> usize {
        self.slots[slot].swaps
    }

    /// Total swap stall a slot's batches have paid, ms.
    pub fn slot_swap_ms(&self, slot: usize) -> f64 {
        self.slots[slot].swap_ms
    }

    /// Weight swaps initiated across all dies.
    pub fn swaps(&self) -> usize {
        self.dies.iter().map(|d| d.weights.swaps()).sum()
    }

    /// Total swap stall across all dies, ms.
    pub fn swap_ms(&self) -> f64 {
        self.dies.iter().map(|d| d.weights.swap_ms()).sum()
    }

    /// Straggler injection: scale all *future* batch service times.
    ///
    /// # Panics
    ///
    /// Panics on a nonpositive factor.
    pub fn set_slow_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "slow factor must be positive");
        self.slow_factor = factor;
    }

    /// Current straggler factor (1.0 = healthy).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }

    /// Fail one die (partial degradation): it leaves the dispatch pool
    /// and its weights are wiped; the in-flight batch, if any, is
    /// displaced and returned as `(slot, front-end arrival times)` for
    /// the caller to retry elsewhere, with the un-elapsed remainder of
    /// its die time refunded exactly as [`Self::crash`] does. The
    /// die's generation is bumped so its already-scheduled
    /// [`HostEvent::DieFree`] goes stale.
    pub fn fail_die(&mut self, die: usize, now_ms: f64) -> Option<(usize, Vec<f64>)> {
        if let Some(p) = self.probe.as_deref_mut() {
            p.instant("fault", "die-fail", now_ms);
        }
        let d = &mut self.dies[die];
        d.enabled = false;
        d.generation += 1;
        d.busy = false;
        d.weights.clear();
        self.weights_epoch += 1; // the wipe cools the die
        let inflight = d.inflight.take()?;
        let refund = (inflight.end_ms - now_ms).max(0.0);
        d.busy_ms -= refund;
        d.batches -= 1;
        let s = &mut self.slots[inflight.slot];
        s.busy_ms -= refund;
        s.batches -= 1;
        s.dispatched -= inflight.arrivals.len();
        Some((inflight.slot, inflight.arrivals))
    }

    /// A failed die rejoins the dispatch pool, idle and cold.
    pub fn recover_die(&mut self, die: usize) {
        self.dies[die].enabled = true;
    }

    /// Whether a die is in the dispatch pool.
    pub fn die_enabled(&self, die: usize) -> bool {
        self.dies[die].enabled
    }

    /// Per-die slowdown injection: scale the die's *future* batch
    /// service times by `factor` (1.0 restores full speed); composes
    /// multiplicatively with [`Self::set_slow_factor`].
    ///
    /// # Panics
    ///
    /// Panics on a nonpositive factor.
    pub fn set_die_slow(&mut self, die: usize, factor: f64) {
        assert!(factor > 0.0, "die slow factor must be positive");
        self.dies[die].slow = factor;
    }

    /// Remove the still-queued copy of a hedged request — identified
    /// by its exact arrival-timestamp bits — from `slot`'s queue,
    /// re-arming the slot's batching timer around the removal (the
    /// removed request may have been the oldest, which the timer
    /// deadline keys on). Returns `false` when no such request is
    /// queued (it already dispatched or was displaced).
    pub fn cancel_queued(
        &mut self,
        slot: usize,
        arrived_ms: f64,
        now_ms: f64,
        sched: &mut impl FnMut(f64, HostEvent),
    ) -> bool {
        let s = &mut self.slots[slot];
        let Some(pos) = s
            .queue
            .iter()
            .position(|q| q.to_bits() == arrived_ms.to_bits())
        else {
            return false;
        };
        s.queue.remove(pos);
        self.arm_timer(slot, now_ms, sched);
        true
    }

    /// Crash the host at time `now_ms`: every queued and in-flight
    /// request is displaced and returned as `(slot, front-end arrival
    /// times)` for the caller to retry elsewhere; dies go idle. Busy
    /// time that actually elapsed and committed latencies are kept, but
    /// the un-elapsed remainder of aborted batches is refunded so
    /// utilization never counts die time that never happened. The
    /// caller is responsible for ignoring this host's already-scheduled
    /// events (e.g. by epoch-tagging them).
    pub fn crash(&mut self, now_ms: f64) -> Vec<(usize, Vec<f64>)> {
        if let Some(p) = self.probe.as_deref_mut() {
            p.instant("fault", "crash", now_ms);
        }
        let mut displaced: Vec<(usize, Vec<f64>)> = Vec::new();
        self.weights_epoch += 1; // the wipe below cools every die
        for d in &mut self.dies {
            d.busy = false;
            // The crash wipes whatever weights were loaded or loading;
            // a restarted die reloads from DDR3 (cold) on next dispatch.
            d.weights.clear();
            if let Some(inflight) = d.inflight.take() {
                let refund = (inflight.end_ms - now_ms).max(0.0);
                d.busy_ms -= refund;
                d.batches -= 1;
                let s = &mut self.slots[inflight.slot];
                s.busy_ms -= refund;
                s.batches -= 1;
                s.dispatched -= inflight.arrivals.len();
                displaced.push((inflight.slot, inflight.arrivals));
            }
        }
        for (i, s) in self.slots.iter_mut().enumerate() {
            s.timer_generation += 1; // invalidate armed timers
            if !s.queue.is_empty() {
                displaced.push((i, s.queue.drain(..).collect()));
            }
        }
        displaced
    }

    /// Requests queued at a slot (not yet dispatched).
    pub fn queued(&self, slot: usize) -> usize {
        self.slots[slot].queue.len()
    }

    /// Requests of a slot currently in flight on dies.
    pub fn in_flight(&self, slot: usize) -> usize {
        self.dies
            .iter()
            .filter_map(|d| d.inflight.as_ref())
            .filter(|b| b.slot == slot)
            .map(|b| b.arrivals.len())
            .sum()
    }

    /// Queued plus in-flight requests for a slot (the routing signal
    /// behind least-outstanding-requests).
    pub fn outstanding(&self, slot: usize) -> usize {
        self.queued(slot) + self.in_flight(slot)
    }

    /// Busy time a slot has accumulated on this host's dies, ms.
    pub fn slot_busy_ms(&self, slot: usize) -> f64 {
        self.slots[slot].busy_ms
    }

    /// Latencies committed for a slot so far.
    pub fn latency_count(&self, slot: usize) -> usize {
        self.slots[slot].latencies.len()
    }

    /// Total busy time across dies, ms.
    pub fn busy_ms(&self) -> f64 {
        self.dies.iter().map(|d| d.busy_ms).sum()
    }

    /// Busy time one die has accumulated, ms (telemetry's per-die
    /// utilization probe).
    pub fn die_busy_ms(&self, die: usize) -> f64 {
        self.dies[die].busy_ms
    }

    /// Dies currently streaming a weight swap (telemetry's pending
    /// weight-set probe).
    pub fn pending_swaps(&self) -> usize {
        self.dies
            .iter()
            .filter(|d| d.weights.pending().is_some())
            .count()
    }

    /// Completion time of the latest batch dispatched so far, ms.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Dispatch ready batches onto free dies until nothing can move.
    /// Ready slots contend by (priority desc, oldest wait asc, slot
    /// index asc); free dies by the dispatch discipline with explicit
    /// index tie-breaks. Any event can unblock a dispatch: a batch may
    /// have become ready (arrival/timer) or capacity may have appeared
    /// (die free).
    pub fn try_dispatch(&mut self, now_ms: f64, sched: &mut impl FnMut(f64, HostEvent)) {
        loop {
            if !self.dies.iter().any(|d| !d.busy && d.enabled) {
                return;
            }
            let ready = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.spec.policy.should_dispatch(
                        now_ms,
                        s.queue.front().copied().unwrap_or(f64::INFINITY),
                        s.queue.len(),
                        s.draining,
                        &s.curve,
                    )
                })
                .min_by(|(ia, a), (ib, b)| {
                    b.spec
                        .priority
                        .cmp(&a.spec.priority)
                        .then(
                            a.queue
                                .front()
                                .partial_cmp(&b.queue.front())
                                .expect("finite arrivals"),
                        )
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i);
            let Some(slot) = ready else { return };

            // Weighted slots prefer a free die already warm for their
            // model (no reload to dispatch there); weight-free slots
            // keep the plain discipline, bit for bit.
            let die = match self.slots[slot].weights {
                Some(mw) => pick_die_warm(&self.dies, self.dispatch, &mut self.rr_next, mw.model),
                None => pick_die(&self.dies, self.dispatch, &mut self.rr_next),
            };
            // Weight swap: a batch whose model is not the one the die's
            // weight FIFO last streamed pays the DDR3 load first.
            let swap = self.slots[slot]
                .weights
                .filter(|mw| self.dies[die].weights.needs_swap(mw.model));
            let swap_ms = swap.map_or(0.0, |mw| mw.swap_ms);
            let die_slow = self.dies[die].slow;
            let s = &mut self.slots[slot];
            let batch = s.queue.len().min(s.spec.policy.max_batch());
            let jitter = sim::lognormal_multiplier(&mut self.service_rng, s.curve.jitter_sigma);
            let service = s.curve.service_ms(batch) * jitter * self.slow_factor * die_slow;
            let end = now_ms + swap_ms + service;

            let mut arrivals = self.spare_batches.pop().unwrap_or_default();
            arrivals.extend(s.queue.drain(..batch));
            if let Some(log) = &mut self.dispatch_log {
                log.extend(arrivals.iter().map(|&a| (slot, a)));
            }
            s.batches += 1;
            s.dispatched += batch;
            s.busy_ms += swap_ms + service;
            if let Some(mw) = swap {
                s.swaps += 1;
                s.swap_ms += mw.swap_ms;
            }
            self.arm_timer(slot, now_ms, sched);

            let d = &mut self.dies[die];
            d.busy = true;
            d.busy_ms += swap_ms + service;
            d.batches += 1;
            d.inflight = Some(Inflight {
                slot,
                start_ms: now_ms,
                swap_ms,
                end_ms: end,
                arrivals,
            });
            if let Some(mw) = swap {
                d.weights.begin_swap(mw.model, mw.swap_ms);
                self.weights_epoch += 1;
                sched(now_ms + swap_ms, HostEvent::WeightSwap { die });
            }
            let generation = self.dies[die].generation;
            sched(end, HostEvent::DieFree { die, generation });
        }
    }

    /// Arm (or re-arm) the slot's dispatch timer for its current oldest
    /// request. Each queue mutation bumps the generation so earlier
    /// timers become no-ops.
    fn arm_timer(&mut self, slot: usize, now_ms: f64, sched: &mut impl FnMut(f64, HostEvent)) {
        let s = &mut self.slots[slot];
        s.timer_generation += 1;
        if let Some(&oldest) = s.queue.front() {
            if let Some(deadline) = s
                .spec
                .policy
                .next_deadline_ms(oldest, s.queue.len(), &s.curve)
            {
                sched(
                    deadline.max(now_ms),
                    HostEvent::Timer {
                        slot,
                        generation: s.timer_generation,
                    },
                );
            }
        }
    }

    /// Build the host's [`ServeReport`] (per-slot percentiles and SLO
    /// attainment against `makespan_ms`, per-die utilization). The host
    /// state is left untouched, so fleet-level reports can merge raw
    /// latencies afterwards.
    pub fn report(&self, makespan_ms: f64, events_processed: u64) -> ServeReport {
        let tenants: Vec<TenantReport> = self
            .slots
            .iter()
            .map(|s| {
                let mut sorted = s.latencies.clone();
                sorted.sort_unstable_by(|a, b| a.total_cmp(b)); // finite, ±0-free: same order, no float Option
                let n = sorted.len();
                let slo_hits = sorted.iter().filter(|&&l| l <= s.spec.slo_ms).count();
                TenantReport {
                    name: s.spec.name.clone(),
                    workload: s.spec.workload.clone(),
                    priority: s.spec.priority,
                    requests: n,
                    batches: s.batches,
                    mean_batch: s.dispatched as f64 / s.batches.max(1) as f64,
                    mean_ms: sorted.iter().sum::<f64>() / n.max(1) as f64,
                    p50_ms: percentile(&sorted, 0.50),
                    p95_ms: percentile(&sorted, 0.95),
                    p99_ms: percentile(&sorted, 0.99),
                    slo_ms: s.spec.slo_ms,
                    slo_attainment: slo_hits as f64 / n.max(1) as f64,
                    throughput_rps: n as f64 / makespan_ms.max(f64::MIN_POSITIVE) * 1000.0,
                }
            })
            .collect();
        let dies: Vec<DieReport> = self
            .dies
            .iter()
            .map(|d| DieReport {
                batches: d.batches,
                busy_ms: d.busy_ms,
                utilization: (d.busy_ms / makespan_ms.max(f64::MIN_POSITIVE)).min(1.0),
            })
            .collect();
        ServeReport {
            tenants,
            dies,
            makespan_ms,
            events_processed,
        }
    }

    /// One slot's committed latencies, in commit order (for
    /// fleet-level merging across replicas).
    pub fn slot_latencies(&self, slot: usize) -> &[f64] {
        &self.slots[slot].latencies
    }

    /// The latencies committed for a slot since index `from` (a
    /// completed batch's, or the autoscaler's sliding window; pair with
    /// [`Self::latency_count`]).
    pub fn slot_latencies_from(&self, slot: usize, from: usize) -> &[f64] {
        &self.slots[slot].latencies[from..]
    }

    /// Batches dispatched by a slot so far.
    pub fn slot_batches(&self, slot: usize) -> usize {
        self.slots[slot].batches
    }

    /// Requests dispatched by a slot so far (sum of batch sizes).
    pub fn slot_dispatched(&self, slot: usize) -> usize {
        self.slots[slot].dispatched
    }
}

/// Choose a free die. Round-robin cycles the pool (skipping busy dies);
/// least-loaded picks the free die with the least accumulated busy
/// time, breaking exact ties by die index so dispatch never depends on
/// iteration accidents.
fn pick_die(dies: &[DieState], dispatch: Dispatch, rr_next: &mut usize) -> usize {
    match dispatch {
        Dispatch::RoundRobin => {
            let n = dies.len();
            for k in 0..n {
                let d = (*rr_next + k) % n;
                if !dies[d].busy && dies[d].enabled {
                    *rr_next = (d + 1) % n;
                    return d;
                }
            }
            unreachable!("caller checked a free die exists")
        }
        Dispatch::LeastLoaded => dies
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.busy && d.enabled)
            .min_by(|a, b| {
                a.1.busy_ms
                    .partial_cmp(&b.1.busy_ms)
                    .expect("finite busy times")
                    .then(a.0.cmp(&b.0))
            })
            .map(|(i, _)| i)
            .expect("caller checked a free die exists"),
    }
}

/// Choose a free die for a *weighted* slot: prefer dies already warm
/// for `model` (its weights loaded or loading — dispatching there
/// charges no swap), falling back to every free die when none is warm;
/// within the preferred set, the configured discipline decides exactly
/// as [`pick_die`] would.
fn pick_die_warm(
    dies: &[DieState],
    dispatch: Dispatch,
    rr_next: &mut usize,
    model: usize,
) -> usize {
    let warm_exists = dies
        .iter()
        .any(|d| !d.busy && d.enabled && d.weights.warm(model));
    let eligible = |d: &DieState| !d.busy && d.enabled && (!warm_exists || d.weights.warm(model));
    match dispatch {
        Dispatch::RoundRobin => {
            let n = dies.len();
            for k in 0..n {
                let d = (*rr_next + k) % n;
                if eligible(&dies[d]) {
                    *rr_next = (d + 1) % n;
                    return d;
                }
            }
            unreachable!("caller checked a free die exists")
        }
        Dispatch::LeastLoaded => dies
            .iter()
            .enumerate()
            .filter(|(_, d)| eligible(d))
            .min_by(|a, b| {
                a.1.busy_ms
                    .partial_cmp(&b.1.busy_ms)
                    .expect("finite busy times")
                    .then(a.0.cmp(&b.0))
            })
            .map(|(i, _)| i)
            .expect("caller checked a free die exists"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::ArrivalProcess;

    fn spec(policy: BatchPolicy) -> TenantSpec {
        TenantSpec::new(
            "MLP0",
            ArrivalProcess::Poisson { rate_rps: 1000.0 },
            policy,
            7.0,
            100,
        )
    }

    fn fresh_host(dies: usize) -> HostCore {
        let mut h = HostCore::new(dies, Dispatch::LeastLoaded, 42);
        h.add_slot(
            spec(BatchPolicy::Fixed { batch: 2 }),
            ServiceCurve::new(1.0, 0.1, 0.0),
        );
        h
    }

    /// Regression: equal-load ties must break by die index, lowest
    /// first, so cluster-level determinism never leans on heap or
    /// iterator accidents.
    #[test]
    fn least_loaded_breaks_ties_by_die_index() {
        let mut h = fresh_host(4);
        let mut scheduled = Vec::new();
        // All four dies idle at 0.0 busy: the first dispatch must land
        // on die 0, the next (with die 0 busy, 1..3 still tied) on 1.
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.0);
        h.try_dispatch(0.0, &mut |at, e| scheduled.push((at, e)));
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.0);
        h.try_dispatch(0.0, &mut |at, e| scheduled.push((at, e)));
        let dies: Vec<usize> = scheduled
            .iter()
            .filter_map(|(_, e)| match e {
                HostEvent::DieFree { die, .. } => Some(*die),
                _ => None,
            })
            .collect();
        assert_eq!(dies, vec![0, 1], "ties break toward the lowest index");
    }

    #[test]
    fn latencies_commit_at_completion_not_dispatch() {
        let mut h = fresh_host(1);
        let mut scheduled = Vec::new();
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.5);
        h.try_dispatch(1.0, &mut |at, e| scheduled.push((at, e)));
        assert_eq!(h.latency_count(0), 0, "in flight, not committed");
        assert_eq!(h.in_flight(0), 2);
        let done = h.on_die_free(0, 0).expect("batch completes");
        assert_eq!(done.completions, 2);
        assert_eq!(h.latency_count(0), 2);
        assert_eq!(h.in_flight(0), 0);
    }

    #[test]
    fn crash_displaces_queued_and_inflight_requests() {
        let mut h = fresh_host(1);
        let mut scheduled = Vec::new();
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.1);
        h.try_dispatch(0.2, &mut |at, e| scheduled.push((at, e)));
        let busy_before = h.busy_ms();
        h.enqueue(0, 0.3); // queued behind the busy die
        let displaced = h.crash(0.4);
        let total: usize = displaced.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 3, "both in-flight and queued come back");
        assert_eq!(h.latency_count(0), 0, "nothing was committed");
        assert_eq!(h.on_die_free(0, 0), None, "stale die-free is a no-op");
        // The batch was dispatched at 0.2 and aborted at 0.4: only the
        // 0.2 ms that elapsed stays on the books, and the aborted batch
        // no longer counts as executed.
        assert_eq!(h.slot_batches(0), 0);
        assert_eq!(h.slot_dispatched(0), 0);
        assert!(
            (h.busy_ms() - 0.2).abs() < 1e-12,
            "busy {} vs dispatched {busy_before}",
            h.busy_ms()
        );
        assert_eq!(h.makespan_ms(), 0.0, "no batch ever completed");
    }

    #[test]
    fn slow_factor_scales_service_times() {
        let mut fast = fresh_host(1);
        let mut slow = fresh_host(1);
        slow.set_slow_factor(4.0);
        let mut ends = Vec::new();
        for h in [&mut fast, &mut slow] {
            h.enqueue(0, 0.0);
            h.enqueue(0, 0.0);
            let mut got = Vec::new();
            h.try_dispatch(0.0, &mut |at, _| got.push(at));
            ends.push(got[0]);
        }
        assert!((ends[1] - 4.0 * ends[0]).abs() < 1e-12);
    }

    /// Die-level degradation: a failed die displaces its in-flight
    /// batch with a refund (exactly like a crash, but scoped to one
    /// die), its scheduled die-free goes stale via the generation, and
    /// dispatch flows to the surviving dies until it recovers.
    #[test]
    fn die_failure_displaces_and_disables_until_recovery() {
        let mut h = fresh_host(2);
        let mut sched: Vec<(f64, HostEvent)> = Vec::new();
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.0);
        h.try_dispatch(0.0, &mut |at, e| sched.push((at, e)));
        assert_eq!(h.in_flight(0), 2, "batch in flight on die 0");

        let displaced = h.fail_die(0, 0.1).expect("in-flight work comes back");
        assert_eq!(displaced.0, 0);
        assert_eq!(displaced.1.len(), 2);
        assert!(!h.die_enabled(0));
        assert_eq!(
            h.on_die_free(0, 0),
            None,
            "the old incarnation's die-free is stale"
        );
        assert!(
            (h.busy_ms() - 0.1).abs() < 1e-12,
            "only elapsed die time stays on the books"
        );

        // Dispatch lands on die 1 (the only enabled die), even though
        // die 0 has less accumulated busy time.
        sched.clear();
        h.enqueue(0, 0.2);
        h.enqueue(0, 0.2);
        h.try_dispatch(0.2, &mut |at, e| sched.push((at, e)));
        let frees: Vec<(usize, u64)> = sched
            .iter()
            .filter_map(|(_, e)| match e {
                HostEvent::DieFree { die, generation } => Some((*die, *generation)),
                _ => None,
            })
            .collect();
        assert_eq!(frees, vec![(1, 0)]);

        // An idle failed die accepts no work at all.
        sched.clear();
        h.enqueue(0, 0.3);
        h.enqueue(0, 0.3);
        h.try_dispatch(0.3, &mut |at, e| sched.push((at, e)));
        assert!(sched.is_empty(), "no free enabled die");

        // Recovery: the die rejoins (cold) at its bumped generation.
        h.recover_die(0);
        assert!(h.die_enabled(0));
        h.try_dispatch(0.3, &mut |at, e| sched.push((at, e)));
        let frees: Vec<(usize, u64)> = sched
            .iter()
            .filter_map(|(_, e)| match e {
                HostEvent::DieFree { die, generation } => Some((*die, *generation)),
                _ => None,
            })
            .collect();
        assert_eq!(frees, vec![(0, 1)], "new incarnation's generation");
    }

    #[test]
    fn die_slow_scales_only_that_die() {
        let mut base = fresh_host(2);
        let mut degraded = fresh_host(2);
        degraded.set_die_slow(0, 3.0);
        let ends = |h: &mut HostCore| -> Vec<(usize, f64)> {
            let mut got = Vec::new();
            h.enqueue(0, 0.0);
            h.enqueue(0, 0.0);
            h.try_dispatch(0.0, &mut |at, e| {
                if let HostEvent::DieFree { die, .. } = e {
                    got.push((die, at));
                }
            });
            got
        };
        let b = ends(&mut base);
        let d = ends(&mut degraded);
        assert_eq!(b[0].0, 0, "both dispatch onto die 0");
        assert_eq!(d[0].0, 0);
        assert!((d[0].1 - 3.0 * b[0].1).abs() < 1e-12, "die 0 is 3× slow");
        // Restore: the next batch (same jitter stream position) runs
        // at full speed again.
        degraded.on_die_free(0, 0);
        base.on_die_free(0, 0);
        degraded.set_die_slow(0, 1.0);
        let b = ends(&mut base);
        let d = ends(&mut degraded);
        assert!((d[0].1 - b[0].1).abs() < 1e-12);
    }

    /// The hedging hooks: the dispatch log records exactly what
    /// dispatched, and `cancel_queued` removes a queued copy by
    /// timestamp bits (re-arming the timer) without touching anything
    /// in flight.
    #[test]
    fn dispatch_log_and_queue_cancellation() {
        let mut h = HostCore::new(1, Dispatch::LeastLoaded, 42);
        h.add_slot(
            spec(BatchPolicy::Fixed { batch: 2 }),
            ServiceCurve::new(1.0, 0.1, 0.0),
        );
        h.enable_dispatch_log();
        let mut sched: Vec<(f64, HostEvent)> = Vec::new();
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.25);
        h.try_dispatch(0.25, &mut |at, e| sched.push((at, e)));
        let mut dispatched = Vec::new();
        h.drain_dispatched(&mut dispatched);
        assert_eq!(dispatched, vec![(0, 0.0), (0, 0.25)]);
        h.drain_dispatched(&mut dispatched);
        assert_eq!(dispatched.len(), 2, "drain empties the log");

        // Queue two more; cancel one by its exact timestamp.
        h.enqueue(0, 0.5);
        h.enqueue(0, 0.75);
        assert!(h.cancel_queued(0, 0.5, 0.8, &mut |_, _| {}));
        assert!(!h.cancel_queued(0, 0.5, 0.8, &mut |_, _| {}), "gone");
        assert!(
            !h.cancel_queued(0, 0.0, 0.8, &mut |_, _| {}),
            "the dispatched copy is not queued"
        );
        assert_eq!(h.queued(0), 1);
        // The survivor still dispatches once the die frees.
        h.on_die_free(0, 0);
        h.set_draining(0, true);
        sched.clear();
        h.try_dispatch(1.5, &mut |at, e| sched.push((at, e)));
        h.drain_dispatched(&mut dispatched);
        assert_eq!(dispatched.last(), Some(&(0, 0.75)));
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn zero_dies_rejected() {
        let _ = HostCore::new(0, Dispatch::LeastLoaded, 1);
    }

    /// Co-location: alternating models on one die pay the swap stall,
    /// repeat batches of the warm model do not, and the swap completion
    /// event lands on the queue at dispatch + swap_ms.
    #[test]
    fn weight_swaps_charge_only_on_model_change() {
        let mut h = HostCore::new(1, Dispatch::LeastLoaded, 42);
        let curve = ServiceCurve::new(1.0, 0.0, 0.0); // flat 1 ms, no jitter
        let a = h.add_slot(spec(BatchPolicy::Fixed { batch: 1 }), curve);
        let b = h.add_slot(spec(BatchPolicy::Fixed { batch: 1 }), curve);
        h.set_slot_weights(
            a,
            ModelWeights {
                model: 0,
                bytes: 10,
                swap_ms: 0.5,
            },
        );
        h.set_slot_weights(
            b,
            ModelWeights {
                model: 1,
                bytes: 10,
                swap_ms: 0.25,
            },
        );
        let mut sched: Vec<(f64, HostEvent)> = Vec::new();

        // Cold die: slot a's first batch pays its 0.5 ms load.
        h.enqueue(a, 0.0);
        h.try_dispatch(0.0, &mut |at, e| sched.push((at, e)));
        assert_eq!(
            sched,
            vec![
                (0.5, HostEvent::WeightSwap { die: 0 }),
                (
                    1.5,
                    HostEvent::DieFree {
                        die: 0,
                        generation: 0
                    }
                ),
            ]
        );
        assert!(!h.slot_has_warm_die(b));
        assert_eq!(h.on_weight_swap(0), Some(0));
        assert!(h.slot_has_warm_die(a));
        assert_eq!(h.on_die_free(0, 0).unwrap().end_ms, 1.5);

        // Warm model: no swap, no WeightSwap event, plain 1 ms batch.
        sched.clear();
        h.enqueue(a, 1.5);
        h.try_dispatch(1.5, &mut |at, e| sched.push((at, e)));
        assert_eq!(
            sched,
            vec![(
                2.5,
                HostEvent::DieFree {
                    die: 0,
                    generation: 0
                }
            )]
        );
        h.on_die_free(0, 0);

        // Model change: slot b evicts a's weights, paying 0.25 ms.
        sched.clear();
        h.enqueue(b, 2.5);
        h.try_dispatch(2.5, &mut |at, e| sched.push((at, e)));
        assert_eq!(
            sched,
            vec![
                (2.75, HostEvent::WeightSwap { die: 0 }),
                (
                    3.75,
                    HostEvent::DieFree {
                        die: 0,
                        generation: 0
                    }
                ),
            ]
        );
        assert_eq!(h.on_weight_swap(0), Some(1));
        h.on_die_free(0, 0);

        assert_eq!((h.slot_swaps(a), h.slot_swaps(b)), (1, 1));
        assert_eq!(h.swaps(), 2);
        assert!((h.swap_ms() - 0.75).abs() < 1e-12);
        assert!((h.slot_swap_ms(b) - 0.25).abs() < 1e-12);
        // Swap stalls count as die busy time (the FIFO occupies the die).
        assert!((h.busy_ms() - 3.75).abs() < 1e-12);
    }

    /// A host whose slots carry no weights never schedules a swap event
    /// and never charges a stall — the opt-in contract behind the
    /// byte-identity of all pre-existing scenarios.
    #[test]
    fn weight_free_slots_never_swap() {
        let mut h = fresh_host(1);
        let mut sched = Vec::new();
        h.enqueue(0, 0.0);
        h.enqueue(0, 0.0);
        h.try_dispatch(0.0, &mut |at, e| sched.push((at, e)));
        assert!(sched
            .iter()
            .all(|(_, e)| !matches!(e, HostEvent::WeightSwap { .. })));
        assert_eq!(h.swaps(), 0);
        assert_eq!(h.swap_ms(), 0.0);
        assert!(h.slot_has_warm_die(0), "weight-free slots are always warm");
    }

    /// An attached probe records swap/service spans whose totals match
    /// the host's own counters, and recording changes no observable
    /// host state (same latencies, same busy time as a probe-free run).
    #[test]
    fn probe_spans_agree_with_swap_counters() {
        let traced = tpu_telemetry::TelemetryConfig {
            trace: true,
            ..Default::default()
        };
        let run = |probed: bool| {
            let mut h = HostCore::new(1, Dispatch::LeastLoaded, 42);
            let curve = ServiceCurve::new(1.0, 0.0, 0.0);
            let a = h.add_slot(spec(BatchPolicy::Fixed { batch: 1 }), curve);
            h.set_slot_weights(
                a,
                ModelWeights {
                    model: 0,
                    bytes: 10,
                    swap_ms: 0.5,
                },
            );
            if probed {
                h.attach_probes(&RunTelemetry::from_config(&traced), 0);
            }
            let mut sched = Vec::new();
            h.enqueue(a, 0.0);
            h.try_dispatch(0.0, &mut |at, e| sched.push((at, e)));
            h.on_weight_swap(0);
            h.on_die_free(0, 0);
            h
        };
        let mut probed = run(true);
        let bare = run(false);
        assert_eq!(probed.slot_latencies(0), bare.slot_latencies(0));
        assert_eq!(probed.busy_ms(), bare.busy_ms());
        let tracer = probed
            .take_probes()
            .0
            .expect("probe attached")
            .into_tracer();
        let rows = tracer.summary();
        let total = |cat: &str| {
            rows.iter()
                .filter(|r| r.cat == cat)
                .map(|r| r.total_ms)
                .sum::<f64>()
        };
        assert!((total("swap") - probed.slot_swap_ms(0)).abs() < 1e-12);
        assert!((total("swap") + total("service") - probed.busy_ms()).abs() < 1e-12);
    }

    /// An attached request probe records one decomposed record per
    /// served request, agreeing with the slot's committed latencies,
    /// and changes no observable host state.
    #[test]
    fn request_probe_records_agree_with_latencies() {
        let logged = tpu_telemetry::TelemetryConfig {
            requests: true,
            ..Default::default()
        };
        let run = |probed: bool| {
            let mut h = HostCore::new(1, Dispatch::LeastLoaded, 42);
            let curve = ServiceCurve::new(1.0, 0.0, 0.0);
            let a = h.add_slot(spec(BatchPolicy::Fixed { batch: 2 }), curve);
            h.set_slot_weights(
                a,
                ModelWeights {
                    model: 0,
                    bytes: 10,
                    swap_ms: 0.5,
                },
            );
            if probed {
                h.attach_probes(&RunTelemetry::from_config(&logged), 7);
            }
            let mut sched = Vec::new();
            h.enqueue(a, 0.0);
            h.enqueue(a, 0.25);
            h.try_dispatch(0.25, &mut |at, e| sched.push((at, e)));
            h.on_weight_swap(0);
            h.on_die_free(0, 0);
            h
        };
        let mut probed = run(true);
        let bare = run(false);
        assert_eq!(probed.slot_latencies(0), bare.slot_latencies(0));
        assert_eq!(probed.busy_ms(), bare.busy_ms());
        let probe = probed.take_probes().1.expect("probe attached");
        let mut log = tpu_telemetry::RequestLog::new();
        log.absorb(probe);
        assert_eq!(log.len(), 2);
        let latencies: Vec<f64> = log.records().iter().map(|r| r.latency_ms()).collect();
        assert_eq!(latencies, probed.slot_latencies(0));
        for r in log.records() {
            assert_eq!(r.host, 7);
            assert_eq!(r.die, 0);
            assert_eq!(r.swap_ms, 0.5);
            assert!((r.queue_ms() + r.swap_ms + r.service_ms() - r.latency_ms()).abs() < 1e-12);
        }
        assert_eq!(log.tenant_name(0), "MLP0");
        assert_eq!(log.tenant_slo_ms(0), 7.0);
    }
}

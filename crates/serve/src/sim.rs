//! The extracted event core: a generic, deterministic discrete-event
//! queue plus the seeded-RNG stream plumbing, shared by `tpu_serve`
//! (one host) and `tpu_cluster` (a fleet of hosts under one clock).
//!
//! Everything here is deliberately free of serving semantics:
//!
//! * [`EventQueue`] is generic over the event payload `E`. Events pop in
//!   `(time, sequence)` order, so simulations are bit-identical from a
//!   seed even when events share a timestamp — `tpu_serve` instantiates
//!   it with its host-level [`crate::event::Event`], `tpu_cluster` with
//!   a fleet-level event that wraps per-host events;
//! * [`stream_seed`] / [`service_seed`] derive independent RNG streams
//!   from one master seed. Stream 0 *is* the master seed
//!   (`stream_seed(s, 0) == s`), which is what lets a 1-host fleet
//!   reproduce a single-host `tpu_serve` run bit for bit;
//! * [`lognormal_multiplier`] is the shared service-jitter model — a
//!   re-export of [`tpu_platforms::jitter::lognormal_multiplier`], the
//!   single Box–Muller sampler both `queue_sim` and this engine draw
//!   from. It draws from the RNG **only when** `sigma > 0`, so
//!   deterministic (TPU-like) curves leave the stream untouched.
//!
//! # The timer wheel
//!
//! The future-event list is a hierarchical timer wheel (a 64-ary radix
//! heap / calendar queue) rather than a binary heap. Event times are
//! finite, non-negative `f64` milliseconds, and for such floats the IEEE
//! bit pattern is *monotone*: `a <= b` iff `a.to_bits() <= b.to_bits()`.
//! Each event is therefore keyed by the `u64` time-bits of its
//! timestamp, and every comparison the scheduler makes is an integer
//! comparison — no `partial_cmp` on floats anywhere in the hot path.
//!
//! The wheel has [`WHEEL_LEVELS`] levels of 64 slots each; level `l`
//! buckets keys by bit range `[6l, 6l+6)` relative to the *hand* (the
//! key prefix of the most recently drained or split slot). Scheduling
//! hashes the key into the level of its highest bit differing from the
//! hand — O(1). Below the levels sits the **bottom rung**: the most
//! recently drained slot, sorted once, from which pops are O(1). When
//! the rung runs dry the wheel rolls forward: the lowest occupied slot
//! of the lowest occupied level (the overflow levels re-bucket on
//! rollover) holds exactly the globally smallest keys. If it holds at
//! most [`RUNG_SPILL_THRESHOLD`] entries, or sits on level 0 where all
//! its entries share one key, it becomes the next rung. Otherwise it is
//! **split**, as the ladder queue (Tang, Goh & Thng, ACM TOMACS 2005)
//! splits an oversized bucket into a finer rung: the hand moves to the
//! slot's prefix and its entries re-bucket, in FIFO order, into the
//! levels below, which are empty at that moment. The roll repeats until
//! a slot qualifies. A rung starts no larger than the threshold, and one
//! that later inserts grow past twice the threshold hands its upper keys
//! back to the levels below it the same way. Because simulated time is
//! monotone (scheduling into the past is rejected), an event only ever
//! moves down a level, at most once per level, so the sorted inserts
//! that later keys pay into the rung stay short and schedule/pop stay
//! O(1) amortized. A drained or split slot keeps at most a small buffer,
//! so the wheel's memory follows the pending set rather than its
//! high-water mark. Equal-key events stay in FIFO (sequence) order end
//! to end: slot buckets are FIFO, a split keeps each bucket's order, the
//! rung sort is stable, and late same-key inserts land after their
//! elders — so pops remain *exactly* `(time, sequence)` ordered. The
//! differential proptest in `tests/event_queue_props.rs` pins the wheel
//! against the reference binary heap on arbitrary schedules.
//!
//! The pre-wheel `BinaryHeap` implementation is kept as
//! [`QueueBackend::BinaryHeap`], the reference the differential tests
//! compare the wheel against. Only [`EventQueue::with_backend`] builds
//! it; [`EventQueue::new`], which both engines use, always runs the
//! wheel.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
pub use tpu_platforms::jitter::lognormal_multiplier;
use tpu_telemetry::WheelProfile;

/// Weyl-sequence increment (2^64 / φ) used to derive per-stream seeds.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derive the seed of an indexed RNG stream from a master seed.
///
/// Stream 0 is the master seed itself, so single-stream simulations
/// (one tenant, one host) reproduce legacy seeding exactly.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    master.wrapping_add(stream.wrapping_mul(GOLDEN_GAMMA))
}

/// Derive the service-jitter stream for a host from its seed. XORing
/// keeps it out of the [`stream_seed`] additive orbit.
pub fn service_seed(host_seed: u64) -> u64 {
    host_seed ^ 0x5bd1_e995_9e37_79b9
}

/// Bits per wheel level (64 slots).
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels covering the full 64-bit key space (the upper levels are the
/// overflow levels that re-bucket on rollover).
pub const WHEEL_LEVELS: usize = 11; // ceil(64 / 6)

/// Bottom-rung size bound. A push whose key lands inside the rung's
/// range pays a sorted insert — O(rung length) of memmove — so the rung
/// must stay short. This bound keeps it short three ways:
///
/// * **Drain.** `advance` turns a slot into the rung only if it holds at
///   most this many entries (or sits on level 0, where all its entries
///   share one key and need no sort); a larger slot is split into the
///   levels below first. Without the split a single slot of a large
///   fleet could hold tens of thousands of in-flight events, and every
///   push landing inside its key range would sorted-insert across all
///   of them.
/// * **Spill.** Once the rung holds this many entries, a push at or
///   above the rung's *maximum* key spills into the wheel instead
///   (shrinking the rung's claimed key range), which is always
///   order-safe: the spilled key is ≥ every rung key, and equal keys
///   keep FIFO order because wheel buckets drain after the rung. This
///   stops long runs of equal or increasing keys, such as a huge
///   equal-time burst.
/// * **Trim.** Pushes strictly below the rung maximum must still insert
///   (they pop before it). Once they grow the rung past twice this
///   bound, its keys from this index up go back into the wheel's lower
///   levels, and the rung's range shrinks beneath them.
pub const RUNG_SPILL_THRESHOLD: usize = 128;

/// Capacity a slot buffer keeps once drained or split. A `VecDeque`
/// never shrinks by itself, so without this every slot would hold the
/// high-water mark of everything that ever passed through it.
const RETAINED_SLOT_CAPACITY: usize = 64;

/// The monotone integer key of a finite, non-negative event time.
/// `+ 0.0` collapses `-0.0` to `+0.0` so the one non-monotone bit
/// pattern in the accepted domain is normalized away.
#[inline]
fn time_key(at_ms: f64) -> u64 {
    (at_ms + 0.0).to_bits()
}

#[derive(Debug, Clone, Copy)]
struct Scheduled<E> {
    at_ms: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms == other.at_ms && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time first, then lower sequence number.
        // Times are finite by construction (asserted on push).
        other
            .at_ms
            .partial_cmp(&self.at_ms)
            .expect("finite event times")
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One pending event inside the wheel.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    key: u64,
    event: E,
}

/// Stable ascending sort by key for one drained slot. Insertion sort
/// for the common handful of entries (in place, no allocation), the
/// standard library's stable sort above that; both preserve the FIFO
/// order of equal keys, which *is* the sequence order.
fn sort_rung<E>(rung: &mut [Entry<E>]) {
    if rung.len() <= 32 {
        for i in 1..rung.len() {
            let mut j = i;
            while j > 0 && rung[j - 1].key > rung[j].key {
                rung.swap(j - 1, j);
                j -= 1;
            }
        }
    } else {
        rung.sort_by_key(|e| e.key);
    }
}

/// Lifetime counters the wheel keeps about itself. All updates happen
/// in the `#[cold]` drain, split and trim paths, the rare spill branch,
/// or the already-O(rung) sorted insert, so the hot push/pop paths are
/// untouched; `EventQueue::wheel_profile` snapshots them for
/// `--engine-stats`.
#[derive(Debug, Clone)]
struct WheelStats {
    /// Times `advance` drained a slot from each level.
    drains_per_level: [u64; WHEEL_LEVELS],
    /// Rung length at each drain, in power-of-two buckets (index =
    /// `floor(log2 len)`).
    rung_hist: [u64; 32],
    /// Longest bottom rung observed (at drain or after a push into it).
    max_rung: usize,
    /// Times `advance` ran (each ends in exactly one drain).
    advances: u64,
    /// Oversized buckets handed down to finer levels: slots `advance`
    /// split instead of draining, and overgrown rungs trimmed (see
    /// [`RUNG_SPILL_THRESHOLD`]).
    splits: u64,
    /// Pushes diverted into the wheel by the [`RUNG_SPILL_THRESHOLD`]
    /// guard.
    spills: u64,
}

impl WheelStats {
    fn new() -> Self {
        WheelStats {
            drains_per_level: [0; WHEEL_LEVELS],
            rung_hist: [0; 32],
            max_rung: 0,
            advances: 0,
            splits: 0,
            spills: 0,
        }
    }
}

/// The hierarchical timer wheel (see the module docs).
#[derive(Debug)]
struct Wheel<E> {
    /// `slots[level * 64 + slot]`; each bucket is FIFO in sequence
    /// order (pushes happen in sequence order).
    slots: Vec<VecDeque<Entry<E>>>,
    /// Per-level occupancy bitmaps: bit `s` set iff slot `s` non-empty.
    occupied: [u64; WHEEL_LEVELS],
    /// Key prefix of the most recently drained or split slot. Wheel
    /// entries are bucketed relative to it; all wheel keys exceed
    /// `bottom_bound`.
    hand: u64,
    /// Inclusive upper key bound of the bottom rung: the top of the
    /// most recently drained slot's key range.
    bottom_bound: u64,
    /// The bottom rung: the most recently drained slot, sorted
    /// ascending by `(key, sequence)`. Pops come off the front in O(1);
    /// newly scheduled keys at or below `bottom_bound` sorted-insert
    /// here (equal keys after their elders, keeping FIFO).
    bottom: VecDeque<Entry<E>>,
    len: usize,
    /// Boxed so the counters don't bloat the `Fel` enum variant.
    stats: Box<WheelStats>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            slots: (0..WHEEL_LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_LEVELS],
            hand: 0,
            bottom_bound: 0,
            bottom: VecDeque::new(),
            len: 0,
            stats: Box::new(WheelStats::new()),
        }
    }

    /// The (level, slot) a key hashes to, relative to the hand.
    #[inline]
    fn bucket(hand: u64, key: u64) -> (usize, usize) {
        let diff = hand ^ key;
        if diff == 0 {
            (0, (key & (SLOTS as u64 - 1)) as usize)
        } else {
            let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
            let slot = ((key >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
            (level, slot)
        }
    }

    #[inline]
    fn push(&mut self, key: u64, event: E) {
        self.len += 1;
        if key <= self.bottom_bound {
            // Spill: the rung is at its threshold and this key is at or
            // above every key in it, so handing it to the wheel cannot
            // reorder anything (wheel entries pop after the rung, and
            // equal keys pushed later carry higher sequence numbers).
            // Shrinking `bottom_bound` below the key sends the rest of
            // the burst the same way — the rung stops growing. Keys of
            // exactly 0 cannot shrink the bound further and fall back
            // to the (bounded, since every key ≥ 0 now spills) insert.
            if self.bottom.len() >= RUNG_SPILL_THRESHOLD {
                let rung_max = self.bottom.back().expect("rung at threshold").key;
                if key >= rung_max && key > 0 {
                    self.stats.spills += 1;
                    self.bottom_bound = key - 1;
                    let (level, slot) = Self::bucket(self.hand, key);
                    self.occupied[level] |= 1 << slot;
                    self.slots[level * SLOTS + slot].push_back(Entry { key, event });
                    return;
                }
            }
            // Lands inside the bottom rung's key range: sorted insert,
            // after any entries sharing the key (they have lower
            // sequence numbers).
            let at = self.bottom.partition_point(|e| e.key <= key);
            self.bottom.insert(at, Entry { key, event });
            if self.bottom.len() > 2 * RUNG_SPILL_THRESHOLD {
                self.trim_rung();
            }
            if self.bottom.len() > self.stats.max_rung {
                self.stats.max_rung = self.bottom.len();
            }
            return;
        }
        let (level, slot) = Self::bucket(self.hand, key);
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push_back(Entry { key, event });
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry<E>> {
        if let Some(entry) = self.bottom.pop_front() {
            self.len -= 1;
            return Some(entry);
        }
        if self.len == 0 {
            return None;
        }
        self.advance();
        self.len -= 1;
        self.bottom.pop_front()
    }

    /// Roll the wheel forward: drain the lowest occupied slot of the
    /// lowest occupied level — by construction every key in it is `<=`
    /// every key elsewhere in the wheel — into the (empty) bottom rung,
    /// sort it once, and advance the hand to the slot's key-range
    /// prefix. A slot above level 0 holding more than
    /// [`RUNG_SPILL_THRESHOLD`] entries is split into the levels below
    /// first, and the search repeats, so the rung starts small and each
    /// event moves at most once per level, keeping schedule/pop O(1)
    /// amortized even though adjacent `f64` times differ deep in the
    /// mantissa.
    #[cold]
    fn advance(&mut self) {
        debug_assert!(self.bottom.is_empty(), "checked by pop");
        let (level, slot) = loop {
            let level = (0..WHEEL_LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("len > 0 with an empty bottom rung means a slot is occupied");
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 || self.slots[level * SLOTS + slot].len() <= RUNG_SPILL_THRESHOLD {
                break (level, slot);
            }
            self.split(level, slot);
        };
        self.occupied[level] &= !(1u64 << slot);
        // The slot's buffer becomes the bottom rung; the old (empty)
        // rung buffer takes its place, trimmed to a small capacity.
        std::mem::swap(&mut self.bottom, &mut self.slots[level * SLOTS + slot]);
        self.slots[level * SLOTS + slot].shrink_to(RETAINED_SLOT_CAPACITY);
        sort_rung(self.bottom.make_contiguous());
        self.stats.advances += 1;
        self.stats.drains_per_level[level] += 1;
        let n = self.bottom.len();
        self.stats.rung_hist[((usize::BITS - 1 - n.leading_zeros()) as usize).min(31)] += 1;
        if n > self.stats.max_rung {
            self.stats.max_rung = n;
        }
        let shift = level as u32 * LEVEL_BITS;
        self.hand = (self.bottom.front().expect("occupancy bit was set").key >> shift) << shift;
        // The rung is entitled to the drained slot's whole key range,
        // but claiming only up to its current maximum keeps it small:
        // later keys land in the wheel's lower levels (relative to the
        // advanced hand) instead of sorted-inserting into an
        // ever-growing rung. Only keys tying or interleaving the
        // already-drained ones pay the rung insert.
        self.bottom_bound = self.bottom.back().expect("occupancy bit was set").key;
    }

    /// Hand the upper part of an overgrown rung back to the wheel. A
    /// push below the rung's maximum must sorted-insert (it pops
    /// first), so a rung drained from a slot holding a few widely
    /// spread keys would otherwise absorb every push inside that range.
    /// The keys from index [`RUNG_SPILL_THRESHOLD`] up (from the first
    /// key above it, if the entries below it all share it) move into
    /// the wheel's levels below the rung's — they share its prefix — and
    /// the rung's bound drops beneath them. They go to the *front* of
    /// their buckets, in order: a spilled push may have left a later
    /// entry of the rung's maximum key there. A rung of a single key
    /// stays whole.
    #[cold]
    fn trim_rung(&mut self) {
        let cut = self.bottom[RUNG_SPILL_THRESHOLD].key;
        let mut keep = self.bottom.partition_point(|e| e.key < cut);
        if keep == 0 {
            keep = self.bottom.partition_point(|e| e.key <= cut);
        }
        if keep == self.bottom.len() {
            return;
        }
        self.bottom_bound = self.bottom[keep - 1].key;
        for entry in self.bottom.drain(keep..).rev() {
            let (level, slot) = Self::bucket(self.hand, entry.key);
            self.occupied[level] |= 1 << slot;
            self.slots[level * SLOTS + slot].push_front(entry);
        }
        self.stats.splits += 1;
    }

    /// Split the lowest occupied slot, `slot` of `level > 0`: move the
    /// hand to the slot's key-range prefix and re-bucket its entries,
    /// in FIFO order, relative to it. Every entry shares the prefix, so
    /// each lands on a lower level; those levels are empty (this is the
    /// lowest occupied slot), so every bucket stays in sequence order.
    /// No other entry changes bucket: the new hand agrees with the old
    /// one on every bit above `level`, and on `level` it takes this
    /// slot's index, below every other occupied slot there.
    fn split(&mut self, level: usize, slot: usize) {
        self.occupied[level] &= !(1u64 << slot);
        let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        let shift = level as u32 * LEVEL_BITS;
        self.hand = (entries.front().expect("occupancy bit was set").key >> shift) << shift;
        for entry in entries.drain(..) {
            let (l, s) = Self::bucket(self.hand, entry.key);
            debug_assert!(l < level, "a split entry moves down a level");
            self.occupied[l] |= 1 << s;
            self.slots[l * SLOTS + s].push_back(entry);
        }
        entries.shrink_to(RETAINED_SLOT_CAPACITY);
        self.slots[level * SLOTS + slot] = entries;
        self.stats.splits += 1;
    }
}

/// Which future-event-list implementation an [`EventQueue`] runs on.
///
/// Both backends pop in exactly `(time, sequence)` order — the choice
/// can never change a simulation result, only its speed. The reference
/// heap exists for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueBackend {
    /// The hierarchical timer wheel (default).
    TimerWheel,
    /// The pre-wheel `BinaryHeap` reference implementation.
    BinaryHeap,
}

#[derive(Debug)]
enum Fel<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// A deterministic future-event list, generic over the event payload.
#[derive(Debug)]
pub struct EventQueue<E> {
    fel: Fel<E>,
    next_seq: u64,
    now_ms: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero on the timer wheel.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::TimerWheel)
    }

    /// An empty queue at time zero on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            fel: match backend {
                QueueBackend::TimerWheel => Fel::Wheel(Wheel::new()),
                QueueBackend::BinaryHeap => Fel::Heap(BinaryHeap::new()),
            },
            next_seq: 0,
            now_ms: 0.0,
        }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.fel {
            Fel::Wheel(_) => QueueBackend::TimerWheel,
            Fel::Heap(_) => QueueBackend::BinaryHeap,
        }
    }

    /// Current simulated time in milliseconds (the timestamp of the last
    /// popped event).
    #[inline]
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Schedule `event` at absolute time `at_ms`. Scheduling *at* the
    /// current time is allowed (the event pops after everything already
    /// pending at that timestamp); scheduling before it is not.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is not finite or lies in the simulated past.
    #[inline]
    pub fn schedule(&mut self, at_ms: f64, event: E) {
        assert!(at_ms.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        assert!(
            at_ms >= self.now_ms,
            "cannot schedule into the past: event seq {seq} at {at_ms} < now {}",
            self.now_ms
        );
        self.next_seq += 1;
        match &mut self.fel {
            Fel::Wheel(w) => w.push(time_key(at_ms), event),
            Fel::Heap(h) => h.push(Scheduled { at_ms, seq, event }),
        }
    }

    /// Pop the next event, advancing simulated time to it.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let (at_ms, event) = match &mut self.fel {
            Fel::Wheel(w) => {
                let e = w.pop()?;
                (f64::from_bits(e.key), e.event)
            }
            Fel::Heap(h) => {
                let s = h.pop()?;
                (s.at_ms, s.event)
            }
        };
        self.now_ms = at_ms;
        Some((at_ms, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.fel {
            Fel::Wheel(w) => w.len,
            Fel::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently in the wheel's sorted bottom rung (always 0 on
    /// the heap backend). Exposed so the spill-threshold tests can
    /// assert the rung stays bounded under equal-time bursts (see
    /// [`RUNG_SPILL_THRESHOLD`]).
    pub fn rung_len(&self) -> usize {
        match &self.fel {
            Fel::Wheel(w) => w.bottom.len(),
            Fel::Heap(_) => 0,
        }
    }

    /// Snapshot the wheel's self-profile for `--engine-stats`: drains
    /// per level, current occupied-slot counts, the rung-length
    /// histogram, and the [`RUNG_SPILL_THRESHOLD`] split and spill
    /// counters.
    /// `None` on the reference heap backend, which keeps no statistics.
    pub fn wheel_profile(&self) -> Option<WheelProfile> {
        match &self.fel {
            Fel::Wheel(w) => {
                let mut rung_hist = w.stats.rung_hist.to_vec();
                while rung_hist.last() == Some(&0) {
                    rung_hist.pop();
                }
                Some(WheelProfile {
                    slots_per_level: SLOTS,
                    drains_per_level: w.stats.drains_per_level.to_vec(),
                    occupied_slots: w.occupied.iter().map(|b| b.count_ones()).collect(),
                    rung_hist,
                    max_rung: w.stats.max_rung,
                    advances: w.stats.advances,
                    splits: w.stats.splits,
                    spills: w.stats.spills,
                    pending: w.len,
                })
            }
            Fel::Heap(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn stream_zero_is_the_master_seed() {
        assert_eq!(stream_seed(42, 0), 42);
        assert_ne!(stream_seed(42, 1), 42);
        assert_ne!(stream_seed(42, 1), stream_seed(42, 2));
    }

    #[test]
    fn service_seed_leaves_the_stream_orbit() {
        for s in 0..64u64 {
            assert_ne!(service_seed(7), stream_seed(7, s));
        }
    }

    #[test]
    fn zero_sigma_jitter_is_exactly_one_and_draws_nothing() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(lognormal_multiplier(&mut a, 0.0), 1.0);
        // The RNG state must be untouched: the next draws agree.
        let x: f64 = a.gen_range(0.0..1.0);
        let y: f64 = b.gen_range(0.0..1.0);
        assert_eq!(x, y);
    }

    #[test]
    fn positive_sigma_jitter_is_positive_and_seeded() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let x = lognormal_multiplier(&mut a, 0.3);
        let y = lognormal_multiplier(&mut b, 0.3);
        assert!(x > 0.0);
        assert_eq!(x, y, "same seed, same jitter");
    }

    const BOTH: [QueueBackend; 2] = [QueueBackend::TimerWheel, QueueBackend::BinaryHeap];

    #[test]
    fn generic_queue_pops_time_then_fifo() {
        for backend in BOTH {
            let mut q: EventQueue<&'static str> = EventQueue::with_backend(backend);
            q.schedule(2.0, "late");
            q.schedule(1.0, "first");
            q.schedule(1.0, "second");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!["first", "second", "late"], "{backend:?}");
        }
    }

    /// Boundary pinned for the scheduler swap: after popping at time t,
    /// scheduling *at* t is accepted and the event pops next.
    #[test]
    fn equal_time_schedule_after_pop_is_accepted() {
        for backend in BOTH {
            let mut q: EventQueue<u32> = EventQueue::with_backend(backend);
            q.schedule(3.5, 0);
            q.schedule(3.5, 1);
            assert_eq!(q.pop(), Some((3.5, 0)), "{backend:?}");
            assert_eq!(q.now_ms(), 3.5);
            q.schedule(3.5, 2); // at_ms == now_ms: boundary, not the past
            assert_eq!(q.pop(), Some((3.5, 1)), "{backend:?}");
            assert_eq!(q.pop(), Some((3.5, 2)), "{backend:?}");
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past: event seq 2")]
    fn past_time_panic_names_the_event_sequence() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(1.0, 0); // seq 0
        q.schedule(2.0, 1); // seq 1
        q.pop();
        q.pop();
        q.schedule(1.5, 2); // seq 2, in the past of now = 2.0
    }

    #[test]
    fn negative_zero_time_is_normalized() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::TimerWheel);
        q.schedule(-0.0, 7);
        q.schedule(0.0, 8);
        assert_eq!(q.pop(), Some((0.0, 7)));
        assert_eq!(q.pop(), Some((0.0, 8)));
    }

    /// The wheel's overflow levels: keys spanning many orders of
    /// magnitude re-bucket down without losing (time, seq) order.
    #[test]
    fn wheel_handles_wide_time_ranges() {
        let mut q: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let times = [
            0.0,
            1e-9,
            0.25,
            0.250000000001,
            1.0,
            3.0,
            1024.0,
            1e6,
            1e6,
            1e12,
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(t, i);
        }
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t, i));
        }
        // Sorted by time; the two equal timestamps pop in schedule
        // order (8 was scheduled before 7 by the .rev()).
        let popped_times: Vec<f64> = got.iter().map(|&(t, _)| t).collect();
        let mut sorted = popped_times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(popped_times, sorted);
        let equal_pair: Vec<usize> = got
            .iter()
            .filter(|&&(t, _)| t == 1e6)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(equal_pair, vec![8, 7], "FIFO among equal timestamps");
    }

    /// Differential smoke test (the heavyweight version with arbitrary
    /// interleavings lives in `tests/event_queue_props.rs`).
    #[test]
    fn wheel_and_heap_agree_on_an_interleaved_schedule() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0u64;
        for _ in 0..5_000 {
            if rng.gen_range(0.0..1.0) < 0.6 || wheel.is_empty() {
                // Quantized offsets force frequent exact-time collisions.
                let delta = rng.gen_range(0u32..32) as f64 * 0.25;
                let at = wheel.now_ms() + delta;
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            } else {
                assert_eq!(wheel.pop(), heap.pop());
            }
            assert_eq!(wheel.len(), heap.len());
        }
        while !wheel.is_empty() {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert_eq!(heap.pop(), None);
    }

    /// The spill threshold: an equal-time burst aimed at the bottom
    /// rung stops growing it at the threshold (later entries go to the
    /// wheel), and the drain order is still exactly (time, sequence).
    #[test]
    fn equal_time_burst_spills_out_of_the_bottom_rung() {
        let mut q: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        // Establish a rung at t = 1.0 (schedule + pop puts the hand and
        // bottom_bound at that key).
        q.schedule(1.0, usize::MAX);
        assert_eq!(q.pop(), Some((1.0, usize::MAX)));
        // Single-slot burst: every event at the same timestamp, which
        // is exactly the rung's upper bound.
        let burst = RUNG_SPILL_THRESHOLD * 8;
        for i in 0..burst {
            q.schedule(1.0, i);
            assert!(
                q.rung_len() <= RUNG_SPILL_THRESHOLD,
                "rung grew past the spill threshold at push {i}: {}",
                q.rung_len()
            );
        }
        for want in 0..burst {
            assert_eq!(q.pop(), Some((1.0, want)), "FIFO across the spill");
        }
        assert!(q.is_empty());
    }

    /// Spilling must not reorder anything: equal-time runs long enough
    /// to trip the threshold, interleaved with pops and nearby keys,
    /// drain in exactly the reference heap's (time, sequence) order.
    #[test]
    fn spill_keeps_interleaved_schedules_ordered() {
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        for round in 0..6 {
            let base = wheel.now_ms();
            // A run of equal-time events well past the threshold, with
            // a sprinkle of earlier and later keys mixed in.
            for i in 0..(RUNG_SPILL_THRESHOLD * 2 + 17) {
                let at = match i % 9 {
                    0 => base + 0.25,
                    1 => base + 1.75,
                    _ => base + 1.0,
                };
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            }
            // Drain part of it so the hand advances mid-burst.
            for _ in 0..(RUNG_SPILL_THRESHOLD + round) {
                assert_eq!(wheel.pop(), heap.pop());
            }
        }
        while !wheel.is_empty() {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert_eq!(heap.pop(), None);
    }

    /// The self-profile counters observe exactly what the engine did:
    /// the spill path increments `spills`, drains land in the level
    /// histogram, and the heap backend reports no profile at all.
    #[test]
    fn wheel_profile_counts_spills_drains_and_occupancy() {
        let mut q: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        assert_eq!(
            q.wheel_profile().expect("wheel backend profiles").advances,
            0
        );
        q.schedule(1.0, usize::MAX);
        assert_eq!(q.pop(), Some((1.0, usize::MAX)));
        for i in 0..(RUNG_SPILL_THRESHOLD * 2) {
            q.schedule(1.0, i);
        }
        let mid = q.wheel_profile().expect("wheel backend profiles");
        assert!(mid.spills > 0, "equal-time burst must trip the spill path");
        assert!(mid.occupied_slots.iter().sum::<u32>() > 0);
        assert_eq!(mid.pending, RUNG_SPILL_THRESHOLD * 2);
        while q.pop().is_some() {}
        let done = q.wheel_profile().expect("wheel backend profiles");
        assert_eq!(done.pending, 0);
        assert!(done.advances > mid.advances);
        assert_eq!(
            done.drains_per_level.iter().sum::<u64>(),
            done.advances,
            "every advance drains exactly one slot"
        );
        assert_eq!(done.rung_hist.iter().sum::<u64>(), done.advances);
        assert!(done.max_rung >= RUNG_SPILL_THRESHOLD);
        assert_eq!(
            EventQueue::<usize>::with_backend(QueueBackend::BinaryHeap).wheel_profile(),
            None
        );
    }

    /// A slot far larger than the threshold — a thousand distinct keys
    /// inside one top-level slot — is split down the levels instead of
    /// drained whole: no rung starts above the threshold, and the pops
    /// still come out in order. Splits are counted apart from drains.
    #[test]
    fn oversized_slot_is_split_before_it_drains() {
        let mut q: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let n = RUNG_SPILL_THRESHOLD * 8;
        for i in (0..n).rev() {
            q.schedule(1.0 + i as f64 * 1e-3, i);
        }
        for want in 0..n {
            assert_eq!(q.pop().map(|(_, i)| i), Some(want));
            assert!(
                q.rung_len() <= RUNG_SPILL_THRESHOLD,
                "rung {}",
                q.rung_len()
            );
        }
        let p = q.wheel_profile().expect("wheel backend profiles");
        assert!(p.splits > 0, "the 1024-entry slot must be split");
        assert!(
            p.max_rung <= RUNG_SPILL_THRESHOLD,
            "max rung {}",
            p.max_rung
        );
        assert_eq!(p.drains_per_level.iter().sum::<u64>(), p.advances);
        assert_eq!(p.rung_hist.iter().sum::<u64>(), p.advances);
    }

    /// Pushes below the rung's maximum must sorted-insert, so a rung
    /// drained from a sparse, wide slot hands its upper keys back to the
    /// wheel once inserts overgrow it. The rung's maximum key also sits
    /// in the wheel here (a spilled push), and the entries handed back
    /// must still pop before that later one.
    #[test]
    fn overgrown_rung_is_trimmed_without_reordering_equal_keys() {
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        let mut both = |at: f64, wheel: &mut EventQueue<usize>, heap: &mut EventQueue<usize>| {
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
        };
        // One slot of exactly the threshold, keys spread over [1, 2).
        for i in 0..RUNG_SPILL_THRESHOLD {
            both(
                1.0 + i as f64 / RUNG_SPILL_THRESHOLD as f64,
                &mut wheel,
                &mut heap,
            );
        }
        assert_eq!(wheel.pop(), heap.pop());
        let max = 1.0 + (RUNG_SPILL_THRESHOLD - 1) as f64 / RUNG_SPILL_THRESHOLD as f64;
        // Back to the threshold with the maximum key, then one more at
        // the maximum: that one spills into the wheel.
        both(max, &mut wheel, &mut heap);
        both(max, &mut wheel, &mut heap);
        assert_eq!(wheel.wheel_profile().expect("wheel").spills, 1);
        // Fill the rung's range from below until it must be trimmed.
        for i in 0..(3 * RUNG_SPILL_THRESHOLD) {
            both(1.01 + i as f64 * 1e-4, &mut wheel, &mut heap);
            assert!(wheel.rung_len() <= 2 * RUNG_SPILL_THRESHOLD);
        }
        assert!(wheel.wheel_profile().expect("wheel").splits > 0);
        while !heap.is_empty() {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn explicit_backends_report_themselves() {
        assert_eq!(
            EventQueue::<u8>::with_backend(QueueBackend::TimerWheel).backend(),
            QueueBackend::TimerWheel
        );
        assert_eq!(
            EventQueue::<u8>::with_backend(QueueBackend::BinaryHeap).backend(),
            QueueBackend::BinaryHeap
        );
    }
}

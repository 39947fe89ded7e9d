//! Front-end request routing across a tenant's replicas.
//!
//! The router sees, per request, the tenant's *candidate* replicas —
//! live, routable, on healthy hosts — together with each candidate's
//! outstanding request count (routed but not yet completed). All three
//! policies are deterministic: no RNG, ties break by replica index, and
//! the consistent-hash ring is rebuilt only when the candidate set
//! changes, so a fixed seed yields a bit-identical routing trace.

use serde::{Deserialize, Serialize};

/// How the front-end picks a replica for each request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cycle through the candidate replicas per tenant.
    RoundRobin,
    /// Send each request to the candidate with the fewest outstanding
    /// requests (queued + in flight + in hop), ties to the lowest
    /// replica index — the classic least-outstanding-requests balancer.
    LeastOutstanding,
    /// Consistent hashing with bounded load: each request hashes onto a
    /// ring of replica virtual nodes and walks clockwise past replicas
    /// whose outstanding count exceeds `bound` × the fair share. Keeps
    /// per-replica affinity (cache-friendly) without letting a hot
    /// shard melt.
    ConsistentHash {
        /// Virtual nodes per replica on the ring.
        vnodes: usize,
        /// Load bound as a multiple of the mean outstanding load (> 1).
        bound: f64,
    },
    /// Swap-affinity routing for co-located fleets: prefer candidates
    /// whose host already has a die *warm* for the tenant's model (its
    /// weights loaded or loading — no swap stall to dispatch there),
    /// then fewest outstanding, then lowest replica index. The fleet
    /// engine resolves warmth against live host state; a bare
    /// [`RouterState::pick`] has no host view and degrades to
    /// least-outstanding.
    SwapAware,
}

/// One routable replica, as the router sees it.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Fleet-wide replica index (stable across the replica's life).
    pub replica: usize,
    /// Requests routed to it and not yet completed.
    pub outstanding: usize,
}

/// SplitMix64 finalizer: the deterministic hash behind the ring.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-tenant router state (round-robin cursors, hash rings, request
/// counters).
#[derive(Debug, Default, Clone)]
pub struct RouterState {
    rr_cursor: u64,
    requests_routed: u64,
    ring: Vec<(u64, usize)>,
    ring_members: Vec<usize>,
}

impl RouterState {
    /// Fresh state for one tenant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick a replica for the next request, or `None` when no candidate
    /// exists (all hosts down — the caller parks the request).
    pub fn pick(
        &mut self,
        policy: RouterPolicy,
        tenant: usize,
        candidates: &[Candidate],
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let choice = match policy {
            RouterPolicy::RoundRobin => {
                let i = (self.rr_cursor % candidates.len() as u64) as usize;
                self.rr_cursor += 1;
                candidates[i].replica
            }
            RouterPolicy::LeastOutstanding | RouterPolicy::SwapAware => {
                least_outstanding(candidates)
            }
            RouterPolicy::ConsistentHash { vnodes, bound } => {
                assert!(vnodes > 0, "need at least one virtual node");
                assert!(bound > 1.0, "load bound must exceed 1");
                self.rebuild_ring_if_stale(tenant, vnodes, candidates);
                let key = mix((tenant as u64) << 48 ^ self.requests_routed);
                let total: usize = candidates.iter().map(|c| c.outstanding).sum();
                let cap = (((total + 1) as f64) * bound / candidates.len() as f64).ceil() as usize;
                let start = self.ring.partition_point(|&(h, _)| h < key);
                let n = self.ring.len();
                let mut pick = None;
                for k in 0..n {
                    let (_, replica) = self.ring[(start + k) % n];
                    let c = candidates
                        .iter()
                        .find(|c| c.replica == replica)
                        .expect("ring members are candidates");
                    if c.outstanding < cap {
                        pick = Some(replica);
                        break;
                    }
                }
                // Every replica at the bound (tiny candidate sets under
                // bursts): degrade to least-outstanding.
                pick.unwrap_or_else(|| least_outstanding(candidates))
            }
        };
        self.requests_routed += 1;
        Some(choice)
    }

    fn rebuild_ring_if_stale(&mut self, tenant: usize, vnodes: usize, candidates: &[Candidate]) {
        // Compare without collecting: this runs once per request and
        // the candidate set rarely changes.
        if candidates.len() == self.ring_members.len()
            && candidates
                .iter()
                .zip(&self.ring_members)
                .all(|(c, &m)| c.replica == m)
        {
            return;
        }
        let members: Vec<usize> = candidates.iter().map(|c| c.replica).collect();
        self.ring = members
            .iter()
            .flat_map(|&r| {
                (0..vnodes)
                    .map(move |v| (mix((tenant as u64) << 40 ^ (r as u64) << 16 ^ v as u64), r))
            })
            .collect();
        self.ring.sort_unstable();
        self.ring_members = members;
    }
}

/// The `(outstanding, replica)` minimum of a non-empty candidate set —
/// the scan the fleet engine's indexes are checked against.
pub(crate) fn least_outstanding(candidates: &[Candidate]) -> usize {
    candidates
        .iter()
        .min_by_key(|c| (c.outstanding, c.replica))
        .expect("caller checked non-empty")
        .replica
}

/// The indexed least-outstanding balancer over a tenant's *routable*
/// replicas, maintained update-on-delta by the fleet engine instead of
/// re-scanned per request. Replicas are bucketed by outstanding count,
/// each bucket a replica-index bitmap, with a lazily-advanced floor
/// cursor over the buckets: moving a replica between counts is two bit
/// flips, and [`OutstandingIndex::least`] finds the first set bit of
/// the least non-empty bucket — O(1) amortized, no allocation, no
/// ordered-tree walk. `least` is the same `(outstanding, replica)`
/// minimum — ties to the lowest replica index — that
/// [`RouterPolicy::LeastOutstanding`]'s candidate scan computes, so
/// swapping the engine onto the index changes no routing decision (the
/// differential tests below pin that). Membership tracks eligibility:
/// the engine inserts a replica when it becomes routable (placement,
/// host recovery) and removes it when it stops being so (crash, drain,
/// retirement).
#[derive(Debug, Default, Clone)]
pub struct OutstandingIndex {
    /// `buckets[count]` = bitmap over replica indices at that count.
    buckets: Vec<Vec<u64>>,
    /// Set bits per bucket (emptiness without scanning words).
    bucket_len: Vec<usize>,
    /// Total tracked replicas.
    len: usize,
    /// No non-empty bucket lies below this count (advanced lazily in
    /// [`Self::least`], reset by inserts — the classic lazy minimum).
    floor: usize,
}

impl OutstandingIndex {
    /// An empty index (no routable replicas).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of routable replicas tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no replica is routable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Track a replica that just became routable.
    pub fn insert(&mut self, outstanding: usize, replica: usize) {
        if self.buckets.len() <= outstanding {
            self.buckets.resize_with(outstanding + 1, Vec::new);
            self.bucket_len.resize(outstanding + 1, 0);
        }
        let bucket = &mut self.buckets[outstanding];
        let word = replica / 64;
        if bucket.len() <= word {
            bucket.resize(word + 1, 0);
        }
        let bit = 1u64 << (replica % 64);
        debug_assert!(bucket[word] & bit == 0, "replica {replica} already tracked");
        bucket[word] |= bit;
        self.bucket_len[outstanding] += 1;
        self.len += 1;
        self.floor = self.floor.min(outstanding);
    }

    /// Stop tracking a replica (crashed host, draining, retired).
    pub fn remove(&mut self, outstanding: usize, replica: usize) {
        let word = replica / 64;
        let bit = 1u64 << (replica % 64);
        debug_assert!(
            self.buckets
                .get(outstanding)
                .and_then(|b| b.get(word))
                .is_some_and(|w| w & bit != 0),
            "replica {replica} was not tracked at {outstanding}"
        );
        self.buckets[outstanding][word] &= !bit;
        self.bucket_len[outstanding] -= 1;
        self.len -= 1;
    }

    /// Move a tracked replica between outstanding counts (one routed
    /// request in, or a completed batch out).
    pub fn update(&mut self, old_outstanding: usize, new_outstanding: usize, replica: usize) {
        self.remove(old_outstanding, replica);
        self.insert(new_outstanding, replica);
    }

    /// The replica with the fewest outstanding requests, ties to the
    /// lowest replica index; `None` when nothing is routable.
    pub fn least(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        while self.bucket_len[self.floor] == 0 {
            self.floor += 1;
        }
        let bucket = &self.buckets[self.floor];
        let (word, bits) = bucket
            .iter()
            .enumerate()
            .find(|&(_, &w)| w != 0)
            .expect("bucket_len said non-empty");
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(outstanding: &[usize]) -> Vec<Candidate> {
        outstanding
            .iter()
            .enumerate()
            .map(|(replica, &outstanding)| Candidate {
                replica,
                outstanding,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_candidates() {
        let mut s = RouterState::new();
        let c = cands(&[0, 0, 0]);
        let picks: Vec<usize> = (0..6)
            .map(|_| s.pick(RouterPolicy::RoundRobin, 0, &c).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_prefers_idle_then_lowest_index() {
        let mut s = RouterState::new();
        assert_eq!(
            s.pick(RouterPolicy::LeastOutstanding, 0, &cands(&[4, 1, 3])),
            Some(1)
        );
        assert_eq!(
            s.pick(RouterPolicy::LeastOutstanding, 0, &cands(&[2, 2, 2])),
            Some(0),
            "ties break to the lowest replica index"
        );
    }

    #[test]
    fn empty_candidate_set_parks() {
        let mut s = RouterState::new();
        assert_eq!(s.pick(RouterPolicy::LeastOutstanding, 0, &[]), None);
    }

    #[test]
    fn consistent_hash_is_deterministic_and_sticky() {
        let policy = RouterPolicy::ConsistentHash {
            vnodes: 16,
            bound: 2.0,
        };
        let c = cands(&[0, 0, 0, 0]);
        let mut a = RouterState::new();
        let mut b = RouterState::new();
        let pa: Vec<usize> = (0..64).map(|_| a.pick(policy, 3, &c).unwrap()).collect();
        let pb: Vec<usize> = (0..64).map(|_| b.pick(policy, 3, &c).unwrap()).collect();
        assert_eq!(pa, pb, "same state, same trace");
        let hit: std::collections::BTreeSet<usize> = pa.iter().copied().collect();
        assert!(hit.len() >= 3, "64 keys spread over the ring: {hit:?}");
    }

    #[test]
    fn consistent_hash_bounds_the_load() {
        let policy = RouterPolicy::ConsistentHash {
            vnodes: 8,
            bound: 1.25,
        };
        let mut s = RouterState::new();
        // Replica 0 is far over the fair share: the walk must skip it.
        // total=40, cap = ceil(41 * 1.25 / 2) = 26; replica 0 at 40.
        for _ in 0..32 {
            let pick = s.pick(policy, 1, &cands(&[40, 0])).unwrap();
            assert_eq!(pick, 1, "overloaded replica is skipped");
        }
    }

    /// Regression pin for the indexed-router swap: with equal
    /// outstanding counts, both the legacy candidate scan and the
    /// indexed structure must pick the *lowest replica index*.
    #[test]
    fn scan_and_index_break_ties_to_the_lowest_replica() {
        let mut s = RouterState::new();
        let tied = cands(&[3, 3, 3, 3]);
        assert_eq!(s.pick(RouterPolicy::LeastOutstanding, 0, &tied), Some(0));

        let mut idx = OutstandingIndex::new();
        for c in &tied {
            idx.insert(c.outstanding, c.replica);
        }
        assert_eq!(idx.least(), Some(0), "index ties break to lowest replica");

        // Remove the lowest; the tie moves to the next index, in both.
        idx.remove(3, 0);
        assert_eq!(idx.least(), Some(1));
        assert_eq!(
            s.pick(
                RouterPolicy::LeastOutstanding,
                0,
                &cands(&[usize::MAX, 3, 3, 3])[1..]
            ),
            Some(1)
        );
    }

    /// Differential: an arbitrary sequence of insert/remove/delta
    /// updates leaves the index agreeing with a fresh least-outstanding
    /// scan of the same replica population at every step.
    #[test]
    fn index_matches_scan_under_random_updates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut idx = OutstandingIndex::new();
        // tracked[replica] = Some(outstanding) while routable.
        let mut tracked: Vec<Option<usize>> = vec![None; 24];
        for _ in 0..4_000 {
            let replica = rng.gen_range(0..tracked.len());
            match tracked[replica] {
                None => {
                    let outstanding = rng.gen_range(0..4usize);
                    idx.insert(outstanding, replica);
                    tracked[replica] = Some(outstanding);
                }
                Some(outstanding) => {
                    if rng.gen_range(0..4usize) == 0 {
                        idx.remove(outstanding, replica);
                        tracked[replica] = None;
                    } else {
                        let next = if outstanding > 0 && rng.gen_range(0..2usize) == 0 {
                            outstanding - 1
                        } else {
                            outstanding + 1
                        };
                        idx.update(outstanding, next, replica);
                        tracked[replica] = Some(next);
                    }
                }
            }
            let scan: Vec<Candidate> = tracked
                .iter()
                .enumerate()
                .filter_map(|(replica, o)| {
                    o.map(|outstanding| Candidate {
                        replica,
                        outstanding,
                    })
                })
                .collect();
            assert_eq!(idx.len(), scan.len());
            let expected = if scan.is_empty() {
                None
            } else {
                Some(least_outstanding(&scan))
            };
            assert_eq!(idx.least(), expected, "index diverged from the scan");
        }
    }

    #[test]
    fn ring_rebuilds_when_candidates_change() {
        let policy = RouterPolicy::ConsistentHash {
            vnodes: 8,
            bound: 2.0,
        };
        let mut s = RouterState::new();
        let _ = s.pick(policy, 0, &cands(&[0, 0, 0]));
        let before = s.ring.len();
        let _ = s.pick(policy, 0, &cands(&[0, 0])); // one replica gone
        assert_eq!(s.ring.len(), 16);
        assert_eq!(before, 24);
    }
}

//! Partitioning a fleet into independent shards for the parallel
//! engine.
//!
//! The fleet simulation's only cross-host coupling is the front end:
//! a tenant's router picks among *its own* replicas, and a failure
//! touches one host. That makes the tenant↔host bipartite graph of the
//! placement plan the exact interaction structure of the run — two
//! hosts interact iff some tenant has replicas on both, transitively.
//! Each connected component of that graph is a fully independent
//! sub-simulation: no event in one component ever reads or writes
//! state in another, every RNG stream is keyed by *global* host/tenant
//! index, and the event queue's `(time, seq)` order restricted to a
//! component equals the order the component's own queue produces (the
//! engine schedules initial arrivals in ascending tenant order and
//! failures in schedule order, both preserved per component). So the
//! sharded engine runs components on worker threads and merges — and
//! is **byte-identical** to the single-threaded reference for every
//! seed. The differential tests force either engine, and any worker
//! count, through [`crate::engine::run_fleet_on`].
//!
//! Sharding is conservative about what it accepts (anything else falls
//! back to the reference engine, trivially byte-identical):
//!
//! * **no autoscaler** — scale-up may place a replica on any host,
//!   coupling components dynamically;
//! * **no telemetry instruments** — artifacts interleave events across
//!   hosts in global orders the shards don't see;
//! * (for the automatic choice, [`auto_shards`]) **≥ 2 components and
//!   ≥ 2 workers** — otherwise parallelism buys nothing.
//!
//! Results are identical for every worker count; only wall-clock
//! changes. Components are assigned to workers
//! longest-processing-time-first by expected event volume, so a few
//! heavy cells don't serialize behind one thread.

use crate::failure::FailureEvent;
use crate::fleet::{FleetSpec, FleetTenantSpec};

/// One shard's slice of the fleet, everything in **local** index space
/// with the mapping back to global ids. The identity scope (all hosts,
/// all tenants) is what the single-threaded reference runs under.
pub(crate) struct Scope {
    /// Global host index per local host, ascending.
    pub hosts: Vec<usize>,
    /// Global tenant index per local tenant, ascending.
    pub tenants: Vec<usize>,
    /// `(global failure index, event)` in schedule order, with
    /// `event.host` rewritten to the local host index.
    pub failures: Vec<(usize, FailureEvent)>,
    /// `plan[local_tenant][replica]` = local host index — the slice of
    /// the *globally computed* placement (never re-planned, which
    /// could differ).
    pub plan: Vec<Vec<usize>>,
}

impl Scope {
    /// The whole fleet as one scope — the single-threaded reference.
    pub fn identity(spec: &FleetSpec, assignments: &[Vec<usize>]) -> Self {
        Scope {
            hosts: (0..spec.hosts.len()).collect(),
            tenants: (0..assignments.len()).collect(),
            failures: spec.failures.iter().copied().enumerate().collect(),
            plan: assignments.to_vec(),
        }
    }
}

/// The automatic engine choice of `run_fleet`: shard a run iff it has
/// no autoscaler, no instrument on, at least two placement components
/// and at least two workers. Pure, so a test pins its truth table and
/// notices if sharding ever silently switches off.
pub(crate) fn auto_shards(
    autoscaled: bool,
    instrumented: bool,
    components: usize,
    workers: usize,
) -> bool {
    !autoscaled && !instrumented && components >= 2 && workers >= 2
}

/// Partition the fleet into connected components of the tenant↔host
/// graph, each as a self-contained [`Scope`]. Hosts carrying no
/// replica join the first component (they exchange no events with
/// anyone; their failures only flip their own counters). Components
/// come out ordered by their lowest global host index.
pub(crate) fn partition(spec: &FleetSpec, assignments: &[Vec<usize>]) -> Vec<Scope> {
    let n = spec.hosts.len();
    let mut uf = UnionFind::new(n);
    for hosts in assignments {
        for &h in &hosts[1..] {
            uf.union(hosts[0], h);
        }
    }
    // Tenantless hosts ride with the component of the first placed
    // replica's host (tenants are non-empty, so one exists).
    let anchor = assignments[0][0];
    let placed: Vec<bool> = {
        let mut p = vec![false; n];
        for hosts in assignments {
            for &h in hosts {
                p[h] = true;
            }
        }
        p
    };
    for (h, &p) in placed.iter().enumerate() {
        if !p {
            uf.union(anchor, h);
        }
    }

    // Group hosts by root, components ordered by lowest host index
    // (host iteration order is ascending, so first-seen order is it).
    let mut comp_of_root: Vec<Option<usize>> = vec![None; n];
    let mut comp_hosts: Vec<Vec<usize>> = Vec::new();
    let mut comp_of_host = vec![0usize; n];
    for (h, slot) in comp_of_host.iter_mut().enumerate() {
        let root = uf.find(h);
        let c = *comp_of_root[root].get_or_insert_with(|| {
            comp_hosts.push(Vec::new());
            comp_hosts.len() - 1
        });
        comp_hosts[c].push(h);
        *slot = c;
    }

    let mut scopes: Vec<Scope> = comp_hosts
        .into_iter()
        .map(|hosts| Scope {
            hosts,
            tenants: Vec::new(),
            failures: Vec::new(),
            plan: Vec::new(),
        })
        .collect();

    // Local host index lookup, shared across components (host ids are
    // disjoint between scopes).
    let mut local_host = vec![0usize; n];
    for s in &scopes {
        for (local, &h) in s.hosts.iter().enumerate() {
            local_host[h] = local;
        }
    }

    for (t, hosts) in assignments.iter().enumerate() {
        let c = comp_of_host[hosts[0]];
        let s = &mut scopes[c];
        s.tenants.push(t);
        s.plan.push(hosts.iter().map(|&h| local_host[h]).collect());
    }
    for (i, f) in spec.failures.iter().enumerate() {
        let mut local = *f;
        local.host = local_host[f.host];
        scopes[comp_of_host[f.host]].failures.push((i, local));
    }
    scopes
}

/// The expected event volume of a scope — the load-balancing weight
/// for worker assignment (requests dominate the event count; hosts
/// break near-ties between cells of equal traffic).
pub(crate) fn scope_weight(scope: &Scope, tenants: &[FleetTenantSpec]) -> u64 {
    scope
        .tenants
        .iter()
        .map(|&t| tenants[t].tenant.requests as u64)
        .sum::<u64>()
        + scope.hosts.len() as u64
}

/// Deterministic longest-processing-time-first assignment of
/// components to `workers` threads: heaviest first, each onto the
/// least-loaded worker (ties by index). Purely a wall-clock concern —
/// any assignment produces identical results.
pub(crate) fn assign_workers(weights: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.min(weights.len()).max(1);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(weights[c]), c));
    let mut load = vec![0u64; workers];
    let mut out = vec![Vec::new(); workers];
    for c in order {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).expect(">= 1");
        load[w] += weights[c];
        out[w].push(c);
    }
    out
}

/// Path-compressed union-find over host indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Lower root wins: keeps component identity stable under
            // permutations of the union order.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with_hosts(n: usize) -> FleetSpec {
        FleetSpec::new(n, 4, 42)
    }

    #[test]
    fn disjoint_tenants_split_into_components() {
        let spec = spec_with_hosts(6);
        // Tenant 0 on hosts {0,1}, tenant 1 on {2,3}, tenant 2 on {3,4}
        // (overlaps tenant 1), host 5 tenantless.
        let plan = vec![vec![0, 1], vec![2, 3], vec![3, 4]];
        let scopes = partition(&spec, &plan);
        assert_eq!(scopes.len(), 2);
        assert_eq!(scopes[0].hosts, vec![0, 1, 5]); // tenantless rides along
        assert_eq!(scopes[0].tenants, vec![0]);
        assert_eq!(scopes[0].plan, vec![vec![0, 1]]);
        assert_eq!(scopes[1].hosts, vec![2, 3, 4]);
        assert_eq!(scopes[1].tenants, vec![1, 2]);
        assert_eq!(scopes[1].plan, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn failures_follow_their_host_with_localized_indices() {
        let mut spec = spec_with_hosts(4);
        spec.failures = vec![
            FailureEvent::crash(10.0, 3),
            FailureEvent::crash(20.0, 0),
            FailureEvent::recover(30.0, 3),
        ];
        let plan = vec![vec![0, 1], vec![2, 3]];
        let scopes = partition(&spec, &plan);
        assert_eq!(scopes.len(), 2);
        assert_eq!(scopes[0].failures.len(), 1);
        assert_eq!(scopes[0].failures[0].0, 1); // global index kept
        assert_eq!(scopes[0].failures[0].1.host, 0);
        assert_eq!(scopes[1].failures.len(), 2);
        assert_eq!(scopes[1].failures[0].0, 0);
        assert_eq!(scopes[1].failures[0].1.host, 1); // host 3 → local 1
        assert_eq!(scopes[1].failures[1].0, 2);
    }

    /// The automatic choice's truth table: every input at a value on
    /// each side of its threshold, and exactly one row shards.
    #[test]
    fn auto_shards_truth_table() {
        let mut sharding = Vec::new();
        for autoscaled in [false, true] {
            for instrumented in [false, true] {
                for components in [1, 2] {
                    for workers in [1, 2] {
                        if auto_shards(autoscaled, instrumented, components, workers) {
                            sharding.push((autoscaled, instrumented, components, workers));
                        }
                    }
                }
            }
        }
        assert_eq!(sharding, vec![(false, false, 2, 2)]);
        // The benchmark's sharded workload (`outage-cells-960`: 120
        // cells, no autoscaler, no instrument) shards on any multi-core
        // machine, and an empty partition never does.
        assert!(auto_shards(false, false, 120, 2));
        assert!(auto_shards(false, false, 120, 64));
        assert!(!auto_shards(false, false, 0, 64));
    }

    #[test]
    fn lpt_assignment_balances_and_is_deterministic() {
        let weights = [100, 10, 90, 50, 60];
        let a = assign_workers(&weights, 2);
        assert_eq!(a, assign_workers(&weights, 2));
        let loads: Vec<u64> = a
            .iter()
            .map(|comps| comps.iter().map(|&c| weights[c]).sum())
            .collect();
        // LPT on these weights lands within one item of even.
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 20);
        // Every component appears exactly once.
        let mut seen: Vec<usize> = a.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}

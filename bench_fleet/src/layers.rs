//! Per-layer kernels: each drives one layer's public API alone, at the
//! size a workload gives it, so a change to that layer shows up here
//! before it shows up end to end.

use crate::workload::Inputs;
use std::hint::black_box;
use std::time::Instant;
use tpu_cluster::OutstandingIndex;
use tpu_serve::sim::{stream_seed, EventQueue};

/// Pre-drawn random values each kernel cycles through, so the timed
/// loops measure the layer and not the generator.
const DRAWS: usize = 4096;

/// SplitMix64: a small seeded generator for kernel inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// `serve::sim`: ns per hold operation on an `EventQueue` holding
/// `pending` events: pop the earliest, schedule it again at now plus an
/// exponential gap of mean `mean_gap_ms`.
pub fn queue_hold_ns(pending: usize, mean_gap_ms: f64, holds: usize, seed: u64) -> f64 {
    let mut rng = SplitMix(seed);
    let gaps: Vec<f64> = (0..DRAWS).map(|_| -mean_gap_ms * rng.unit().ln()).collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, gap) in gaps.iter().cycle().take(pending.max(1)).enumerate() {
        q.schedule(*gap, i as u32);
    }
    let start = Instant::now();
    for k in 0..holds {
        let (now, event) = q.pop().expect("a hold never drains the queue");
        q.schedule(now + gaps[k % DRAWS], event);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / holds as f64
}

/// `cluster::route`: ns per routed request on an `OutstandingIndex` of
/// `replicas` replicas — `least` plus the `update` that charges the
/// pick, plus the `update` of one random replica completing a request.
pub fn route_least_ns(replicas: usize, routes: usize, seed: u64) -> f64 {
    let mut rng = SplitMix(seed);
    let done: Vec<usize> = (0..DRAWS)
        .map(|_| (rng.next() % replicas as u64) as usize)
        .collect();
    let mut index = OutstandingIndex::new();
    let mut outstanding = vec![0usize; replicas];
    for r in 0..replicas {
        index.insert(0, r);
    }
    let start = Instant::now();
    for k in 0..routes {
        let r = index.least().expect("every replica stays routable");
        index.update(outstanding[r], outstanding[r] + 1, r);
        outstanding[r] += 1;
        let c = done[k % DRAWS];
        if outstanding[c] > 0 {
            index.update(outstanding[c], outstanding[c] - 1, c);
            outstanding[c] -= 1;
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(&outstanding);
    ns / routes as f64
}

/// `serve::workload`: drain every tenant's arrival source, seeded as
/// the engines seed it; returns `(ns per arrival, arrivals)`.
pub fn drain_arrivals(inputs: &Inputs) -> (f64, usize) {
    let seed = inputs.seed();
    let mut arrivals = 0usize;
    let start = Instant::now();
    for (i, t) in inputs.tenant_specs().into_iter().enumerate() {
        let mut source = t
            .arrivals
            .source(&t.name, t.requests, stream_seed(seed, i as u64));
        let mut now = 0.0;
        while let Some(at) = source.next_arrival_ms(now) {
            now = at;
            arrivals += 1;
        }
        black_box(now);
    }
    let ns = start.elapsed().as_nanos() as f64;
    (ns / arrivals.max(1) as f64, arrivals)
}

/// `cluster::shard`: connected components of the tenant↔host graph of
/// a placement (`assignments[tenant][replica]` = host). Hosts without
/// a replica ride with the first placed host, as the sharded engine
/// treats them.
pub fn components(hosts: usize, assignments: &[Vec<usize>]) -> usize {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..hosts).collect();
    let mut placed = vec![false; hosts];
    for replicas in assignments {
        for &h in replicas {
            placed[h] = true;
            let (a, b) = (find(&mut parent, replicas[0]), find(&mut parent, h));
            parent[a.max(b)] = a.min(b);
        }
    }
    let anchor = assignments.first().and_then(|r| r.first()).copied();
    if let Some(anchor) = anchor {
        for h in (0..hosts).filter(|&h| !placed[h]) {
            let (a, b) = (find(&mut parent, anchor), find(&mut parent, h));
            parent[a.max(b)] = a.min(b);
        }
    }
    (0..hosts).filter(|&h| find(&mut parent, h) == h).count()
}

//! Failure-domain topology: die ⊂ host ⊂ rack ⊂ power-domain.
//!
//! Real fleets do not fail host-by-host — a top-of-rack switch takes
//! its whole rack offline at one instant, a power-domain event takes
//! several racks. [`FleetTopology`] names that containment structure
//! over the fleet's flat host indices (hosts `[r·H, (r+1)·H)` form
//! rack `r`, racks `[d·R, (d+1)·R)` form power-domain `d`), and its
//! constructors expand a correlated event into plain per-host
//! [`FailureEvent`]s at the same timestamp. The engine and the sharded
//! partitioner keep seeing only per-host events, so the correlation
//! machinery composes with every existing code path — including the
//! byte-identity contract between the sharded engine, at any worker
//! count, and the single-threaded reference.
//!
//! [`seeded_domain_outages`] draws outage windows from per-rack and
//! per-domain exponential streams (stream ids `0xD0_0000 + rack` and
//! `0xD1_0000 + domain` off the master seed), merges overlapping
//! windows per host — a rack outage inside a domain outage collapses
//! to one crash/recover pair, so [`crate::failure::validate_schedule`]
//! never sees a double crash — and clamps everything to the run
//! horizon, same as [`crate::failure::seeded_outages`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tpu_serve::sim;

use crate::failure::FailureEvent;

/// The containment structure of the fleet's failure domains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetTopology {
    /// Hosts per rack (≥ 1). Host `h` is in rack `h / hosts_per_rack`.
    pub hosts_per_rack: usize,
    /// Racks per power-domain (≥ 1). Rack `r` is in domain
    /// `r / racks_per_domain`.
    pub racks_per_domain: usize,
}

impl FleetTopology {
    /// A topology of `hosts_per_rack`-host racks grouped
    /// `racks_per_domain` to a power-domain.
    ///
    /// # Panics
    ///
    /// Panics when either level is empty.
    pub fn new(hosts_per_rack: usize, racks_per_domain: usize) -> Self {
        assert!(hosts_per_rack >= 1, "a rack holds at least one host");
        assert!(racks_per_domain >= 1, "a domain holds at least one rack");
        FleetTopology {
            hosts_per_rack,
            racks_per_domain,
        }
    }

    /// The rack containing `host`.
    pub fn rack_of(&self, host: usize) -> usize {
        host / self.hosts_per_rack
    }

    /// The power-domain containing `host`.
    pub fn domain_of(&self, host: usize) -> usize {
        self.rack_of(host) / self.racks_per_domain
    }

    /// The hosts of `rack`, clipped to a fleet of `hosts` hosts (the
    /// last rack may be partial).
    pub fn rack_hosts(&self, rack: usize, hosts: usize) -> std::ops::Range<usize> {
        let lo = (rack * self.hosts_per_rack).min(hosts);
        let hi = ((rack + 1) * self.hosts_per_rack).min(hosts);
        lo..hi
    }

    /// The hosts of power-domain `domain`, clipped to `hosts`.
    pub fn domain_hosts(&self, domain: usize, hosts: usize) -> std::ops::Range<usize> {
        let per = self.hosts_per_rack * self.racks_per_domain;
        let lo = (domain * per).min(hosts);
        let hi = ((domain + 1) * per).min(hosts);
        lo..hi
    }

    /// A whole-rack outage window `[at_ms, until_ms)`: every member
    /// host crashes at `at_ms` and recovers at `until_ms`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a rack outside a `hosts`-host
    /// fleet.
    pub fn rack_outage(
        &self,
        at_ms: f64,
        until_ms: f64,
        rack: usize,
        hosts: usize,
    ) -> Vec<FailureEvent> {
        assert!(until_ms > at_ms, "outage window must have extent");
        let members = self.rack_hosts(rack, hosts);
        assert!(!members.is_empty(), "rack {rack} is outside the fleet");
        members
            .flat_map(|h| {
                [
                    FailureEvent::crash(at_ms, h),
                    FailureEvent::recover(until_ms, h),
                ]
            })
            .collect()
    }

    /// A whole-power-domain outage window `[at_ms, until_ms)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a domain outside the fleet.
    pub fn domain_outage(
        &self,
        at_ms: f64,
        until_ms: f64,
        domain: usize,
        hosts: usize,
    ) -> Vec<FailureEvent> {
        assert!(until_ms > at_ms, "outage window must have extent");
        let members = self.domain_hosts(domain, hosts);
        assert!(!members.is_empty(), "domain {domain} is outside the fleet");
        members
            .flat_map(|h| {
                [
                    FailureEvent::crash(at_ms, h),
                    FailureEvent::recover(until_ms, h),
                ]
            })
            .collect()
    }

    /// A rack-wide front-end partition window `[at_ms, until_ms)`:
    /// every member host partitions at `at_ms` and rejoins at
    /// `until_ms` (draining, not losing, its in-flight work).
    ///
    /// # Panics
    ///
    /// Panics on an empty window or a rack outside the fleet.
    pub fn rack_partition(
        &self,
        at_ms: f64,
        until_ms: f64,
        rack: usize,
        hosts: usize,
    ) -> Vec<FailureEvent> {
        assert!(until_ms > at_ms, "partition window must have extent");
        let members = self.rack_hosts(rack, hosts);
        assert!(!members.is_empty(), "rack {rack} is outside the fleet");
        members
            .flat_map(|h| FailureEvent::partition_window(at_ms, until_ms, h))
            .collect()
    }
}

/// Generate a **correlated** outage schedule: per-rack and per-domain
/// exponential failure streams (means `rack_mtbf_ms` / `domain_mtbf_ms`
/// between outages, each lasting `mttr_ms`), expanded to the member
/// hosts and merged — a host inside overlapping rack and domain
/// outages crashes once and recovers once, at the union window's
/// edges. Everything is clamped to `horizon_ms`, and the result always
/// passes [`crate::failure::validate_schedule`]. Events come out
/// sorted by `(time, host)`.
///
/// Streams derive from `seed` (rack `r` uses stream `0xD0_0000 + r`,
/// domain `d` uses `0xD1_0000 + d`), so the schedule is a pure
/// function of its arguments — no wall clock anywhere.
///
/// # Panics
///
/// Panics on nonpositive horizon, MTBFs, or MTTR.
pub fn seeded_domain_outages(
    seed: u64,
    topo: FleetTopology,
    hosts: usize,
    horizon_ms: f64,
    rack_mtbf_ms: f64,
    domain_mtbf_ms: f64,
    mttr_ms: f64,
) -> Vec<FailureEvent> {
    assert!(
        horizon_ms > 0.0 && rack_mtbf_ms > 0.0 && domain_mtbf_ms > 0.0 && mttr_ms > 0.0,
        "horizon, MTBFs, and MTTR must be positive"
    );
    let windows = |stream: u64, mtbf: f64| -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(sim::stream_seed(seed, stream));
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mtbf * u.ln();
            if t >= horizon_ms {
                break;
            }
            out.push((t, (t + mttr_ms).min(horizon_ms)));
            t += mttr_ms;
        }
        out
    };

    // Draw domain and rack streams, then scatter the windows onto
    // member hosts.
    let mut per_host: Vec<Vec<(f64, f64)>> = vec![Vec::new(); hosts];
    let racks = hosts.div_ceil(topo.hosts_per_rack);
    let domains = racks.div_ceil(topo.racks_per_domain);
    for d in 0..domains {
        for w in windows(0xD1_0000 + d as u64, domain_mtbf_ms) {
            for h in topo.domain_hosts(d, hosts) {
                per_host[h].push(w);
            }
        }
    }
    for r in 0..racks {
        for w in windows(0xD0_0000 + r as u64, rack_mtbf_ms) {
            for h in topo.rack_hosts(r, hosts) {
                per_host[h].push(w);
            }
        }
    }

    // Merge overlapping windows per host so a rack outage inside a
    // domain outage yields one crash/recover pair.
    let mut events = Vec::new();
    for (host, mut ws) in per_host.into_iter().enumerate() {
        ws.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut it = ws.into_iter();
        let Some(mut cur) = it.next() else { continue };
        for w in it {
            if w.0 <= cur.1 {
                cur.1 = cur.1.max(w.1);
            } else {
                events.push(FailureEvent::crash(cur.0, host));
                events.push(FailureEvent::recover(cur.1, host));
                cur = w;
            }
        }
        events.push(FailureEvent::crash(cur.0, host));
        events.push(FailureEvent::recover(cur.1, host));
    }
    events.sort_by(|a, b| {
        a.at_ms
            .partial_cmp(&b.at_ms)
            .expect("finite failure times")
            .then(a.host.cmp(&b.host))
    });
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{validate_schedule, FailureKind};

    #[test]
    fn containment_maps_hosts_to_racks_to_domains() {
        let t = FleetTopology::new(4, 2);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(7), 1);
        assert_eq!(t.rack_of(8), 2);
        assert_eq!(t.domain_of(7), 0);
        assert_eq!(t.domain_of(8), 1);
        assert_eq!(t.rack_hosts(1, 16), 4..8);
        assert_eq!(t.rack_hosts(3, 14), 12..14, "last rack may be partial");
        assert_eq!(t.domain_hosts(1, 16), 8..16);
    }

    #[test]
    fn rack_outage_crashes_every_member_at_one_timestamp() {
        let t = FleetTopology::new(4, 2);
        let evs = t.rack_outage(10.0, 25.0, 1, 16);
        assert_eq!(evs.len(), 8);
        for h in 4..8 {
            assert!(evs.contains(&FailureEvent::crash(10.0, h)));
            assert!(evs.contains(&FailureEvent::recover(25.0, h)));
        }
        assert!(validate_schedule(&evs, &[2; 16]).is_ok());
    }

    #[test]
    fn rack_partition_expands_to_member_partition_windows() {
        let t = FleetTopology::new(2, 2);
        let evs = t.rack_partition(5.0, 9.0, 0, 4);
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter()
                .filter(|e| e.kind == FailureKind::PartitionStart)
                .count(),
            2
        );
        assert!(validate_schedule(&evs, &[2; 4]).is_ok());
    }

    #[test]
    fn seeded_domain_outages_are_reproducible_correlated_and_valid() {
        let t = FleetTopology::new(4, 2);
        let a = seeded_domain_outages(42, t, 16, 2000.0, 900.0, 3000.0, 60.0);
        let b = seeded_domain_outages(42, t, 16, 2000.0, 900.0, 3000.0, 60.0);
        assert_eq!(a, b, "pure function of the seed");
        assert_ne!(
            a,
            seeded_domain_outages(43, t, 16, 2000.0, 900.0, 3000.0, 60.0)
        );
        assert!(!a.is_empty(), "a 2 s horizon at these MTBFs must fail");
        assert!(a.iter().all(|e| e.at_ms <= 2000.0), "clamped to horizon");
        // Correlation: some crash timestamp is shared by a whole rack.
        let mut by_time: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for e in a.iter().filter(|e| e.kind == FailureKind::Crash) {
            by_time.entry(e.at_ms.to_bits()).or_default().push(e.host);
        }
        assert!(
            by_time.values().any(|hosts| hosts.len() >= 4),
            "no correlated (whole-rack) crash found"
        );
        // Overlap merging: the expanded schedule is always legal.
        assert!(validate_schedule(&a, &[2; 16]).is_ok());
    }

    #[test]
    fn overlapping_rack_and_domain_windows_merge_per_host() {
        // Force overlap by making domain outages as common as rack
        // outages with a long MTTR: merging must keep the schedule
        // valid (no double crash) at every seed tried.
        let t = FleetTopology::new(2, 2);
        for seed in 0..8 {
            let evs = seeded_domain_outages(seed, t, 8, 1000.0, 300.0, 300.0, 150.0);
            assert!(
                validate_schedule(&evs, &[2; 8]).is_ok(),
                "seed {seed} produced an invalid merged schedule"
            );
        }
    }
}

//! The streaming monitor core: fold accumulation, the four detectors,
//! and alert → incident reconciliation.
//!
//! A [`FleetMonitor`] rides the engine loop exactly like the metrics
//! recorder: `due`/`advance` replicate [`MetricsRecorder`]'s cadence
//! arithmetic bit for bit, gauges are recorded into a snapshot at each
//! fold, and per-request observations accumulate between folds. All
//! state lives in `BTreeMap`s and every floating-point reduction runs
//! in deterministic key order, so the incident set is a pure function
//! of the observation stream — which is what lets
//! [`FleetMonitor::replay`] rebuild it bit-identically from artifacts.
//!
//! [`MetricsRecorder`]: tpu_telemetry::MetricsRecorder

use crate::config::MonitorConfig;
use crate::incident::{Blame, Incident, IncidentKind, IncidentReport, Severity};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tpu_telemetry::MonitorSink;

/// `(tenant, host, die)` — the straggler detector's unit of blame.
type DieKey = (String, usize, usize);

/// Hysteresis state machine shared by every detector: `confirm`
/// consecutive flagged folds to open, `clear` consecutive clean folds
/// to resolve.
#[derive(Debug, Default, Clone, PartialEq)]
struct AlertSm {
    on: bool,
    run: u32,
}

impl AlertSm {
    fn step(&mut self, flagged: bool, confirm: u32, clear: u32) {
        if self.on == flagged {
            self.run = 0;
        } else {
            self.run += 1;
            let needed = if self.on { clear } else { confirm };
            if self.run >= needed {
                self.on = !self.on;
                self.run = 0;
            }
        }
    }

    /// True when the state machine is idle and can be pruned.
    fn idle(&self) -> bool {
        !self.on && self.run == 0
    }
}

#[derive(Debug, Default)]
struct BurnState {
    /// Per-fold `(served, missed)`, newest last, capped at
    /// `slow_folds`.
    window: VecDeque<(u64, u64)>,
    sm: AlertSm,
}

#[derive(Debug, Default)]
struct OutageState {
    /// The host has held a nonzero backlog at least once — hosts that
    /// never received work are exempt from dark alerts.
    ever_active: bool,
    /// Consecutive empty-under-demand folds (the incident magnitude).
    dark_run: u32,
    sm: AlertSm,
}

/// One fold's desired alert surface for a subject, fed into incident
/// reconciliation.
#[derive(Debug)]
struct AlertSpec {
    kind: IncidentKind,
    subject: String,
    severity: Severity,
    magnitude: f64,
    blame: Blame,
}

#[derive(Debug)]
struct ActiveRec {
    /// Index into `FleetMonitor::incidents`.
    idx: usize,
    /// Folds the incident has been active (drives auto-ack).
    folds: u32,
}

/// One retained history row: `(fold stamp, per-host busy delta per
/// simulated ms)` — the fleet heatmap's raw material.
pub type HistoryRow = (f64, Vec<(usize, f64)>);

/// The streaming fleet health monitor (crate docs have the full tour).
///
/// Attach by boxing into [`tpu_telemetry::RunTelemetry::monitor`]; the
/// engine drives the [`MonitorSink`] methods and the harness downcasts
/// back out at end of run to extract the [`IncidentReport`].
#[derive(Debug)]
pub struct FleetMonitor {
    cfg: MonitorConfig,
    interval_ms: f64,
    next_ms: f64,
    folds: u64,
    last_stamp: Option<f64>,
    /// Latest recorded value per gauge series.
    snapshot: BTreeMap<String, f64>,
    /// Per-fold `(served, missed)` per tenant.
    tenant_acc: BTreeMap<String, (u64, u64)>,
    /// Per-fold `(service-time sum, completions)` per die.
    die_acc: BTreeMap<DieKey, (f64, u64)>,
    /// Trailing per-fold `(service-time sum, completions)` windows per
    /// die, newest last, capped at `straggler.window_folds`.
    die_win: BTreeMap<DieKey, VecDeque<(f64, u64)>>,
    burn: BTreeMap<String, BurnState>,
    straggler: BTreeMap<DieKey, AlertSm>,
    outage: BTreeMap<usize, OutageState>,
    /// Previous fold's cumulative `arrived/` gauge per tenant, for the
    /// outage and straggler demand gates.
    arrived_prev: BTreeMap<String, f64>,
    /// Folds since each gauged tenant last arrived anything, for the
    /// straggler drain gate. Tenants with no `arrived/` gauge (the
    /// single-host engine) are absent and never gated.
    arrival_quiet: BTreeMap<String, u32>,
    retry_prev: BTreeMap<String, f64>,
    retry_sm: AlertSm,
    /// Previous fold's busy gauge per host, for history deltas.
    busy_prev: BTreeMap<usize, f64>,
    incidents: Vec<Incident>,
    active: BTreeMap<String, ActiveRec>,
    history: VecDeque<HistoryRow>,
    history_dropped: u64,
}

impl FleetMonitor {
    /// An idle monitor; the first fold closes at t=0.
    pub fn new(cfg: MonitorConfig) -> Self {
        assert!(
            cfg.interval_ms.is_finite() && cfg.interval_ms > 0.0,
            "monitor cadence must be positive"
        );
        let interval_ms = cfg.interval_ms;
        FleetMonitor {
            cfg,
            interval_ms,
            next_ms: 0.0,
            folds: 0,
            last_stamp: None,
            snapshot: BTreeMap::new(),
            tenant_acc: BTreeMap::new(),
            die_acc: BTreeMap::new(),
            die_win: BTreeMap::new(),
            burn: BTreeMap::new(),
            straggler: BTreeMap::new(),
            outage: BTreeMap::new(),
            arrived_prev: BTreeMap::new(),
            arrival_quiet: BTreeMap::new(),
            retry_prev: BTreeMap::new(),
            retry_sm: AlertSm::default(),
            busy_prev: BTreeMap::new(),
            incidents: Vec::new(),
            active: BTreeMap::new(),
            history: VecDeque::new(),
            history_dropped: 0,
        }
    }

    /// The configuration the monitor runs with.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Folds closed so far.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// The incident timeline as a renderable report (incidents still
    /// active stay unresolved — `open_at_end`).
    pub fn report(&self) -> IncidentReport {
        IncidentReport {
            interval_ms: self.interval_ms,
            folds: self.folds,
            incidents: self.incidents.clone(),
        }
    }

    /// Retained per-host utilization history rows, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &HistoryRow> {
        self.history.iter()
    }

    /// History rows dropped to the retention bound.
    pub fn history_dropped(&self) -> u64 {
        self.history_dropped
    }

    /// Every host the monitor has seen a backlog gauge for, ascending.
    pub fn known_hosts(&self) -> Vec<usize> {
        self.outage.keys().copied().collect()
    }

    /// Values of a `prefix{usize}`-keyed gauge family from the
    /// snapshot, ascending by the parsed index.
    fn indexed_gauges(&self, prefix: &str) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = self
            .snapshot
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .filter_map(|(name, &v)| name[prefix.len()..].parse::<usize>().ok().map(|i| (i, v)))
            .collect();
        out.sort_by_key(|&(i, _)| i);
        out
    }

    /// The multi-window burn detector; returns this fold's desired
    /// alert specs.
    fn fold_burn(&mut self, specs: &mut BTreeMap<String, AlertSpec>) {
        let c = &self.cfg.burn;
        let budget = 1.0 - c.target;
        let tenants: BTreeSet<String> = self
            .burn
            .keys()
            .chain(self.tenant_acc.keys())
            .cloned()
            .collect();
        for tenant in tenants {
            let (served, missed) = self.tenant_acc.get(&tenant).copied().unwrap_or((0, 0));
            let st = self.burn.entry(tenant.clone()).or_default();
            st.window.push_back((served, missed));
            while st.window.len() > c.slow_folds {
                st.window.pop_front();
            }
            let sum = |folds: usize| {
                st.window
                    .iter()
                    .rev()
                    .take(folds)
                    .fold((0u64, 0u64), |(s, m), &(fs, fm)| (s + fs, m + fm))
            };
            let rate = |(s, m): (u64, u64)| {
                if s == 0 {
                    0.0
                } else {
                    (m as f64 / s as f64) / budget
                }
            };
            let fast = rate(sum(c.fast_folds));
            let (slow_served, slow_missed) = sum(c.slow_folds);
            let slow = rate((slow_served, slow_missed));
            // Opening needs both windows hot and enough slow-window
            // traffic; once open, only the fast window going cool (for
            // `clear_folds` folds) resolves.
            let flagged = if st.sm.on {
                fast >= c.fast_burn
            } else {
                fast >= c.fast_burn && slow >= c.slow_burn && slow_served >= c.min_served
            };
            st.sm.step(flagged, 1, c.clear_folds);
            if st.sm.on {
                specs.insert(
                    format!("burn:{tenant}"),
                    AlertSpec {
                        kind: IncidentKind::Burn,
                        subject: tenant.clone(),
                        severity: Severity::Page,
                        magnitude: fast.max(slow),
                        blame: Blame {
                            tenant: Some(tenant.clone()),
                            ..Blame::default()
                        },
                    },
                );
            } else if st.sm.idle() && st.window.iter().all(|&(s, _)| s == 0) {
                self.burn.remove(&tenant);
            }
        }
    }

    /// The straggler detector: per tenant, score each die's
    /// trailing-window mean service time against the cross-die median.
    fn fold_straggler(&mut self, specs: &mut BTreeMap<String, AlertSpec>) {
        let c = &self.cfg.straggler;
        // Roll this fold's per-die accumulators into the trailing
        // windows; dies already windowed roll an empty fold so their
        // window keeps sliding.
        let roll: BTreeSet<DieKey> = self
            .die_win
            .keys()
            .chain(self.die_acc.keys())
            .cloned()
            .collect();
        for key in &roll {
            let fold = self.die_acc.get(key).copied().unwrap_or((0.0, 0));
            let win = self.die_win.entry(key.clone()).or_default();
            win.push_back(fold);
            while win.len() > c.window_folds {
                win.pop_front();
            }
        }
        // Per-tenant peer groups of (key, window mean) for dies with
        // enough samples in the window. Window sums run oldest-first in
        // BTreeMap key order, so they are bitwise reproducible from the
        // same per-fold accumulators.
        let mut groups: BTreeMap<&str, Vec<(&DieKey, f64)>> = BTreeMap::new();
        for (key, win) in &self.die_win {
            let (sum, n) = win
                .iter()
                .fold((0.0f64, 0u64), |(s, k), &(fs, fc)| (s + fs, k + fc));
            if n >= c.min_samples {
                groups
                    .entry(key.0.as_str())
                    .or_default()
                    .push((key, sum / n as f64));
            }
        }
        let mut flagged: BTreeMap<DieKey, f64> = BTreeMap::new();
        for (tenant, peers) in &groups {
            if peers.len() < c.min_peers {
                continue;
            }
            // Drain gate: once a gauged tenant's arrivals have been
            // quiet for a quarter window, its dies stop being scored —
            // end-of-run drain flushes ragged partial batches whose
            // durations say nothing about die health.
            let quiet_cap = (c.window_folds / 4) as u32;
            if self
                .arrival_quiet
                .get(*tenant)
                .is_some_and(|&q| q > quiet_cap)
            {
                continue;
            }
            let mut means: Vec<f64> = peers.iter().map(|&(_, m)| m).collect();
            means.sort_by(|a, b| a.partial_cmp(b).expect("finite service means"));
            let med = means[(means.len() - 1) / 2];
            let mut devs: Vec<f64> = means.iter().map(|m| (m - med).abs()).collect();
            devs.sort_by(|a, b| a.partial_cmp(b).expect("finite deviations"));
            let spread = devs[(devs.len() - 1) / 2].max(c.rel_floor * med);
            if spread <= 0.0 {
                continue;
            }
            for &(key, mean) in peers {
                let z = (mean - med) / spread;
                if z >= c.z && mean >= c.ratio * med {
                    flagged.insert(key.clone(), z);
                }
            }
        }
        let keys: BTreeSet<DieKey> = self
            .straggler
            .keys()
            .chain(flagged.keys())
            .cloned()
            .collect();
        for key in keys {
            let sm = self.straggler.entry(key.clone()).or_default();
            sm.step(flagged.contains_key(&key), c.confirm_folds, c.clear_folds);
            if sm.on {
                let (tenant, host, die) = &key;
                specs.insert(
                    format!("straggler:{tenant}:{host}/{die}"),
                    AlertSpec {
                        kind: IncidentKind::Straggler,
                        subject: format!("host{host}/die{die}"),
                        severity: Severity::Warn,
                        magnitude: flagged.get(&key).copied().unwrap_or(0.0),
                        blame: Blame {
                            hosts: vec![*host],
                            tenant: Some(tenant.clone()),
                            ..Blame::default()
                        },
                    },
                );
            } else if sm.idle() {
                self.straggler.remove(&key);
            }
        }
        // Drop windows that hold no completions once their state
        // machine is idle, so dies that stopped serving don't linger.
        let held: BTreeSet<DieKey> = self.straggler.keys().cloned().collect();
        self.die_win
            .retain(|key, win| held.contains(key) || win.iter().any(|&(_, n)| n > 0));
    }

    /// New arrivals this fold per tenant, from the cumulative
    /// `arrived/` gauges; also advances the per-tenant quiet counters
    /// behind the straggler drain gate.
    fn fold_arrivals(&mut self) -> BTreeMap<String, f64> {
        let arrived: Vec<(String, f64)> = self
            .snapshot
            .range("arrived/".to_string()..)
            .take_while(|(name, _)| name.starts_with("arrived/"))
            .map(|(name, &v)| (name["arrived/".len()..].to_string(), v))
            .collect();
        let mut deltas: BTreeMap<String, f64> = BTreeMap::new();
        for (tenant, cur) in arrived {
            let prev = self.arrived_prev.get(&tenant).copied().unwrap_or(0.0);
            let delta = cur - prev;
            self.arrived_prev.insert(tenant.clone(), cur);
            let quiet = self.arrival_quiet.entry(tenant.clone()).or_insert(0);
            *quiet = if delta > 0.0 { 0 } else { *quiet + 1 };
            deltas.insert(tenant, delta);
        }
        deltas
    }

    /// The outage detector: a host whose backlog gauge reads empty
    /// while new arrivals keep flowing for tenants placed on it, with
    /// alerted hosts folded up to rack / power-domain incidents when a
    /// whole domain is dark.
    fn fold_outage(
        &mut self,
        deltas: &BTreeMap<String, f64>,
        specs: &mut BTreeMap<String, AlertSpec>,
    ) {
        // Tenants currently placed on each host, from the
        // `placed/{tenant}/host{h}` live-replica gauges.
        let mut placed: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (name, &v) in self
            .snapshot
            .range("placed/".to_string()..)
            .take_while(|(name, _)| name.starts_with("placed/"))
        {
            if v <= 0.0 {
                continue;
            }
            let rest = &name["placed/".len()..];
            if let Some(i) = rest.rfind("/host") {
                if let Ok(h) = rest[i + "/host".len()..].parse::<usize>() {
                    placed.entry(h).or_default().push(&rest[..i]);
                }
            }
        }
        // Discover hosts via their backlog gauges and step each host's
        // dark state machine.
        let backlog = self.indexed_gauges("backlog/host");
        let confirm = self.cfg.outage.folds;
        let min_demand = self.cfg.outage.min_demand;
        for &(h, b) in &backlog {
            let demand: f64 = placed
                .get(&h)
                .map(|tenants| {
                    tenants
                        .iter()
                        .map(|t| deltas.get(*t).copied().unwrap_or(0.0))
                        .sum()
                })
                .unwrap_or(0.0);
            let st = self.outage.entry(h).or_default();
            if b > 0.0 {
                st.ever_active = true;
            }
            let flagged = st.ever_active && b == 0.0 && demand >= min_demand;
            st.dark_run = if flagged { st.dark_run + 1 } else { 0 };
            st.sm.step(flagged, confirm, 1);
        }
        let alerted: BTreeSet<usize> = self
            .outage
            .iter()
            .filter(|(_, st)| st.sm.on)
            .map(|(&h, _)| h)
            .collect();
        if alerted.is_empty() {
            return;
        }
        let magnitude = |hosts: &[usize]| {
            hosts
                .iter()
                .map(|h| self.outage[h].dark_run as f64)
                .fold(0.0f64, f64::max)
        };
        let Some(topo) = self.cfg.topology else {
            for &h in &alerted {
                specs.insert(
                    format!("outage:host{h}"),
                    AlertSpec {
                        kind: IncidentKind::Outage,
                        subject: format!("host{h}"),
                        severity: Severity::Warn,
                        magnitude: magnitude(&[h]),
                        blame: Blame {
                            hosts: vec![h],
                            ..Blame::default()
                        },
                    },
                );
            }
            return;
        };
        // Fold alerted hosts upward: a rack is dark when every known
        // host in it is alerted; a power domain when every known host
        // across at least two of its racks is.
        let mut rack_members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &h in self.outage.keys() {
            rack_members.entry(topo.rack_of(h)).or_default().push(h);
        }
        let dark_racks: BTreeSet<usize> = rack_members
            .iter()
            .filter(|(_, hosts)| hosts.iter().all(|h| alerted.contains(h)))
            .map(|(&r, _)| r)
            .collect();
        let mut domain_racks: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &r in rack_members.keys() {
            domain_racks
                .entry(r / topo.racks_per_domain)
                .or_default()
                .push(r);
        }
        let dark_domains: BTreeSet<usize> = domain_racks
            .iter()
            .filter(|(_, racks)| racks.len() >= 2 && racks.iter().all(|r| dark_racks.contains(r)))
            .map(|(&d, _)| d)
            .collect();
        for &d in &dark_domains {
            let hosts: Vec<usize> = domain_racks[&d]
                .iter()
                .flat_map(|r| rack_members[r].iter().copied())
                .collect();
            specs.insert(
                format!("outage:domain{d}"),
                AlertSpec {
                    kind: IncidentKind::Outage,
                    subject: format!("domain{d}"),
                    severity: Severity::Page,
                    magnitude: magnitude(&hosts),
                    blame: Blame {
                        hosts,
                        domain: Some(d),
                        ..Blame::default()
                    },
                },
            );
        }
        for &r in &dark_racks {
            if dark_domains.contains(&(r / topo.racks_per_domain)) {
                continue;
            }
            let hosts = rack_members[&r].clone();
            specs.insert(
                format!("outage:rack{r}"),
                AlertSpec {
                    kind: IncidentKind::Outage,
                    subject: format!("rack{r}"),
                    severity: Severity::Page,
                    magnitude: magnitude(&hosts),
                    blame: Blame {
                        hosts,
                        rack: Some(r),
                        domain: Some(r / topo.racks_per_domain),
                        ..Blame::default()
                    },
                },
            );
        }
        for &h in &alerted {
            let r = topo.rack_of(h);
            if dark_racks.contains(&r) || dark_domains.contains(&(r / topo.racks_per_domain)) {
                continue;
            }
            specs.insert(
                format!("outage:host{h}"),
                AlertSpec {
                    kind: IncidentKind::Outage,
                    subject: format!("host{h}"),
                    severity: Severity::Warn,
                    magnitude: magnitude(&[h]),
                    blame: Blame {
                        hosts: vec![h],
                        rack: Some(r),
                        domain: Some(topo.domain_of(h)),
                        ..Blame::default()
                    },
                },
            );
        }
    }

    /// The retry-storm detector: the derivative of the fleet's
    /// cumulative retry counters.
    fn fold_retry(&mut self, t: f64, specs: &mut BTreeMap<String, AlertSpec>) {
        let c = &self.cfg.retry_storm;
        let totals: Vec<(String, f64)> = self
            .snapshot
            .range("retries/".to_string()..)
            .take_while(|(name, _)| name.starts_with("retries/"))
            .map(|(name, &v)| (name["retries/".len()..].to_string(), v))
            .collect();
        let dt = self.last_stamp.map(|p| t - p).unwrap_or(0.0);
        let mut total_delta = 0.0;
        let mut worst: Option<(String, f64)> = None;
        for (tenant, cur) in &totals {
            let delta = cur - self.retry_prev.get(tenant).copied().unwrap_or(0.0);
            total_delta += delta;
            if worst.as_ref().is_none_or(|(_, w)| delta > *w) {
                worst = Some((tenant.clone(), delta));
            }
            self.retry_prev.insert(tenant.clone(), *cur);
        }
        let rate = if dt > 0.0 { total_delta / dt } else { 0.0 };
        self.retry_sm
            .step(rate >= c.rate_per_ms, c.confirm_folds, c.clear_folds);
        if self.retry_sm.on {
            let severity = if rate >= c.page_multiple * c.rate_per_ms {
                Severity::Page
            } else {
                Severity::Warn
            };
            specs.insert(
                "retry-storm".to_string(),
                AlertSpec {
                    kind: IncidentKind::RetryStorm,
                    subject: "fleet".to_string(),
                    severity,
                    magnitude: rate,
                    blame: Blame {
                        tenant: worst.filter(|(_, d)| *d > 0.0).map(|(n, _)| n),
                        ..Blame::default()
                    },
                },
            );
        }
    }

    /// Reconcile this fold's desired alert surface against the active
    /// incident set: open, resolve (folding finer incidents into newly
    /// opened coarser ones), auto-ack, and track peaks.
    fn reconcile(&mut self, t: f64, specs: BTreeMap<String, AlertSpec>) {
        for (key, spec) in &specs {
            if !self.active.contains_key(key) {
                let id = self.incidents.len() as u64 + 1;
                self.incidents.push(Incident {
                    id,
                    kind: spec.kind,
                    subject: spec.subject.clone(),
                    severity: spec.severity,
                    opened_ms: t,
                    acked_ms: None,
                    resolved_ms: None,
                    peak: spec.magnitude,
                    blame: spec.blame.clone(),
                });
                self.active.insert(
                    key.clone(),
                    ActiveRec {
                        idx: self.incidents.len() - 1,
                        folds: 0,
                    },
                );
            }
        }
        // A resolving incident may have been absorbed by a coarser one
        // opened this very fold (host outage → its rack or domain).
        let covering = |key: &str| -> Option<u64> {
            let topo = self.cfg.topology?;
            let coarser = if let Some(h) = key.strip_prefix("outage:host") {
                let h: usize = h.parse().ok()?;
                let r = topo.rack_of(h);
                [
                    format!("outage:rack{r}"),
                    format!("outage:domain{}", topo.domain_of(h)),
                ]
                .into_iter()
                .find(|k| specs.contains_key(k))?
            } else if let Some(r) = key.strip_prefix("outage:rack") {
                let r: usize = r.parse().ok()?;
                let k = format!("outage:domain{}", r / topo.racks_per_domain);
                specs.contains_key(&k).then_some(k)?
            } else {
                return None;
            };
            self.active
                .get(&coarser)
                .map(|rec| self.incidents[rec.idx].id)
        };
        let resolved: Vec<(String, Option<u64>)> = self
            .active
            .keys()
            .filter(|k| !specs.contains_key(*k))
            .map(|k| (k.clone(), covering(k)))
            .collect();
        for (key, merged) in resolved {
            let rec = self.active.remove(&key).expect("key from active");
            let inc = &mut self.incidents[rec.idx];
            inc.resolved_ms = Some(t);
            inc.blame.merged_into = merged;
        }
        for (key, spec) in &specs {
            let rec = self.active.get_mut(key).expect("opened above");
            rec.folds += 1;
            let inc = &mut self.incidents[rec.idx];
            if inc.acked_ms.is_none() && rec.folds >= self.cfg.ack_folds {
                inc.acked_ms = Some(t);
            }
            inc.peak = inc.peak.max(spec.magnitude);
            inc.severity = inc.severity.max(spec.severity);
        }
    }
}

impl MonitorSink for FleetMonitor {
    fn due(&self, now_ms: f64) -> bool {
        now_ms >= self.next_ms
    }

    fn advance(&mut self, now_ms: f64) -> f64 {
        // Bit-for-bit the MetricsRecorder cadence: the last elapsed
        // point, so both instruments fold at identical stamps when on
        // the same interval.
        let k = ((now_ms - self.next_ms) / self.interval_ms).floor();
        let t = self.next_ms + k * self.interval_ms;
        self.next_ms = t + self.interval_ms;
        t
    }

    fn record(&mut self, series: &str, value: f64) {
        self.snapshot.insert(series.to_string(), value);
    }

    fn close_sample(&mut self, t_ms: f64) {
        let mut specs: BTreeMap<String, AlertSpec> = BTreeMap::new();
        let arrival_deltas = self.fold_arrivals();
        self.fold_burn(&mut specs);
        self.fold_straggler(&mut specs);
        self.fold_outage(&arrival_deltas, &mut specs);
        self.fold_retry(t_ms, &mut specs);
        self.reconcile(t_ms, specs);
        // History row: per-host busy delta per simulated ms from the
        // `busy/host{h}` gauges (the fleet heatmap's raw material;
        // detection never reads it back).
        let busy = self.indexed_gauges("busy/host");
        if let Some(prev_t) = self.last_stamp {
            let dt = t_ms - prev_t;
            if dt > 0.0 {
                let deltas: Vec<(usize, f64)> = busy
                    .iter()
                    .map(|&(h, cur)| {
                        let prev = self.busy_prev.get(&h).copied().unwrap_or(0.0);
                        (h, (cur - prev) / dt)
                    })
                    .collect();
                if self.history.len() == self.cfg.history_cap {
                    self.history.pop_front();
                    self.history_dropped += 1;
                }
                self.history.push_back((t_ms, deltas));
            }
        }
        self.busy_prev = busy.into_iter().collect();
        self.tenant_acc.clear();
        self.die_acc.clear();
        self.folds += 1;
        self.last_stamp = Some(t_ms);
    }

    fn observe_latency(&mut self, tenant: &str, latency_ms: f64, slo_ms: f64) {
        // Called once per request: allocate the tenant's key only on
        // its first latency of the fold interval.
        let acc = match self.tenant_acc.get_mut(tenant) {
            Some(acc) => acc,
            None => self.tenant_acc.entry(tenant.to_string()).or_insert((0, 0)),
        };
        acc.0 += 1;
        if latency_ms > slo_ms {
            acc.1 += 1;
        }
    }

    fn observe_service(
        &mut self,
        tenant: &str,
        host: usize,
        die: usize,
        service_ms: f64,
        completions: usize,
    ) {
        let acc = self
            .die_acc
            .entry((tenant.to_string(), host, die))
            .or_insert((0.0, 0));
        // One add per completion, matching the per-record adds an
        // offline replay performs — f64 addition is order-sensitive,
        // and per-(tenant,host,die) the two streams must agree bitwise.
        for _ in 0..completions {
            acc.0 += service_ms;
        }
        acc.1 += completions as u64;
    }

    fn finish(&mut self) {
        // Observations after the last fold stamp are intentionally
        // left unfolded: the streaming monitor never closes a partial
        // fold, and the offline replay attributes the same trailing
        // records past the last stamp, so both paths discard exactly
        // the same tail.
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_cluster::FleetTopology;

    #[test]
    fn alert_sm_confirms_and_clears_with_hysteresis() {
        let mut sm = AlertSm::default();
        sm.step(true, 2, 2);
        assert!(!sm.on, "one flagged fold is below confirm");
        sm.step(true, 2, 2);
        assert!(sm.on, "second consecutive flagged fold opens");
        sm.step(false, 2, 2);
        assert!(sm.on, "one clean fold is below clear");
        sm.step(true, 2, 2);
        sm.step(false, 2, 2);
        assert!(sm.on, "clear run restarts after a flagged fold");
        sm.step(false, 2, 2);
        assert!(!sm.on, "two consecutive clean folds resolve");
    }

    fn drive(mon: &mut FleetMonitor, t: f64, gauges: &[(&str, f64)]) {
        for &(name, v) in gauges {
            mon.record(name, v);
        }
        mon.close_sample(t);
    }

    #[test]
    fn burn_opens_on_both_windows_and_resolves_on_fast() {
        let mut cfg = MonitorConfig::with_interval(1.0);
        cfg.burn.min_served = 8;
        let mut mon = FleetMonitor::new(cfg);
        // 16 folds of clean traffic, then sustained 100% misses.
        for fold in 0..40u64 {
            for _ in 0..4 {
                let lat = if fold >= 16 { 10.0 } else { 1.0 };
                mon.observe_latency("A", lat, 7.0);
            }
            mon.close_sample(fold as f64);
        }
        let report = mon.report();
        assert_eq!(report.incidents.len(), 1);
        let inc = &report.incidents[0];
        assert_eq!(inc.kind, IncidentKind::Burn);
        assert_eq!(inc.subject, "A");
        assert_eq!(inc.severity, Severity::Page);
        assert!(inc.open_at_end());
        assert!(inc.acked_ms.is_some(), "sustained burn auto-acks");
        assert!(inc.peak >= 6.0);
        // Recovery resolves after clear_folds cool fast windows.
        for fold in 40..60u64 {
            for _ in 0..4 {
                mon.observe_latency("A", 1.0, 7.0);
            }
            mon.close_sample(fold as f64);
        }
        assert!(mon.report().incidents[0].resolved_ms.is_some());
    }

    #[test]
    fn dark_backlog_under_arrivals_opens_outage_and_folds_to_rack() {
        let cfg = MonitorConfig::with_interval(1.0).with_topology(FleetTopology {
            hosts_per_rack: 2,
            racks_per_domain: 2,
        });
        let mut mon = FleetMonitor::new(cfg);
        // Four hosts; tenant A placed on hosts 0-1, B on 2-3, both
        // arriving at 8 requests per fold.
        let mut t = 0.0;
        let mut arrived = 0.0f64;
        let mut step = |mon: &mut FleetMonitor, backlog: [f64; 4], t: &mut f64| {
            arrived += 8.0;
            let gauges: Vec<(String, f64)> = (0..4)
                .map(|h| (format!("backlog/host{h}"), backlog[h]))
                .chain((0..4).map(|h| {
                    let tenant = if h < 2 { "A" } else { "B" };
                    (format!("placed/{tenant}/host{h}"), 1.0)
                }))
                .chain([
                    ("arrived/A".to_string(), arrived),
                    ("arrived/B".to_string(), arrived),
                ])
                .collect();
            for (name, v) in &gauges {
                mon.record(name, *v);
            }
            mon.close_sample(*t);
            *t += 1.0;
        };
        // Warm up: everyone holds a backlog.
        for _ in 0..3 {
            step(&mut mon, [2.0; 4], &mut t);
        }
        // Rack 0 (hosts 0,1) goes dark while arrivals keep flowing.
        for _ in 0..6 {
            step(&mut mon, [0.0, 0.0, 2.0, 2.0], &mut t);
        }
        let report = mon.report();
        let racks: Vec<&Incident> = report
            .incidents
            .iter()
            .filter(|i| i.subject == "rack0")
            .collect();
        assert_eq!(racks.len(), 1, "one rack-level incident: {report:?}");
        assert_eq!(racks[0].severity, Severity::Page);
        assert_eq!(racks[0].blame.rack, Some(0));
        assert_eq!(racks[0].blame.hosts, vec![0, 1]);
        // Host-level incidents (if any opened before the rack folded)
        // must have merged into the rack incident.
        for i in &report.incidents {
            if i.subject.starts_with("host") {
                assert_eq!(i.blame.merged_into, Some(racks[0].id));
            }
        }
        // Recovery: backlogs refill, incident resolves next fold.
        for _ in 0..3 {
            step(&mut mon, [2.0; 4], &mut t);
        }
        assert!(mon.report().incidents.iter().all(|i| !i.open_at_end()));
    }

    #[test]
    fn idle_host_without_arrivals_never_alerts() {
        let mut mon = FleetMonitor::new(MonitorConfig::with_interval(1.0));
        // Backlog drains to empty, but its tenant's arrivals stopped —
        // the end-of-run drain pattern.
        for fold in 0..12u64 {
            let backlog = if fold < 2 { 2.0 } else { 0.0 };
            drive(
                &mut mon,
                fold as f64,
                &[
                    ("backlog/host0", backlog),
                    ("placed/A/host0", 1.0),
                    ("arrived/A", 16.0),
                ],
            );
        }
        assert!(mon.report().incidents.is_empty());
    }

    #[test]
    fn empty_host_without_placement_never_alerts() {
        let mut mon = FleetMonitor::new(MonitorConfig::with_interval(1.0));
        // Fleet arrivals flow, but nothing is placed on the empty host
        // (its one replica retired), so no demand reaches it.
        let mut arrived = 0.0;
        for fold in 0..12u64 {
            arrived += 8.0;
            let backlog = if fold < 2 { 2.0 } else { 0.0 };
            drive(
                &mut mon,
                fold as f64,
                &[
                    ("backlog/host0", backlog),
                    ("placed/A/host0", 0.0),
                    ("arrived/A", arrived),
                ],
            );
        }
        assert!(mon.report().incidents.is_empty());
    }

    #[test]
    fn straggler_flags_slow_die_against_tenant_peers() {
        let mut mon = FleetMonitor::new(MonitorConfig::with_interval(1.0));
        for fold in 0..6u64 {
            // Five healthy dies at ~1ms, one at 9ms.
            for die in 0..5usize {
                mon.observe_service("A", die / 2, die % 2, 1.0 + die as f64 * 0.01, 4);
            }
            mon.observe_service("A", 2, 1, 9.0, 4);
            mon.close_sample(fold as f64);
        }
        let report = mon.report();
        assert_eq!(report.incidents.len(), 1, "{report:?}");
        let inc = &report.incidents[0];
        assert_eq!(inc.kind, IncidentKind::Straggler);
        assert_eq!(inc.subject, "host2/die1");
        assert_eq!(inc.blame.tenant.as_deref(), Some("A"));
        assert!(inc.peak >= 4.0);
    }

    #[test]
    fn retry_storm_pages_when_rate_spikes() {
        let mut cfg = MonitorConfig::with_interval(1.0);
        cfg.retry_storm.rate_per_ms = 100.0;
        let mut mon = FleetMonitor::new(cfg);
        let mut total = 0.0;
        for fold in 0..10u64 {
            // 500 retries/ms from fold 3 on — 5x threshold, a page.
            if fold >= 3 {
                total += 500.0;
            }
            drive(&mut mon, fold as f64, &[("retries/blind", total)]);
        }
        let report = mon.report();
        assert_eq!(report.incidents.len(), 1);
        let inc = &report.incidents[0];
        assert_eq!(inc.kind, IncidentKind::RetryStorm);
        assert_eq!(inc.severity, Severity::Page);
        assert_eq!(inc.blame.tenant.as_deref(), Some("blind"));
        assert!(inc.peak >= 500.0 - 1e-9);
    }

    #[test]
    fn cadence_matches_metrics_recorder_bitwise() {
        use tpu_telemetry::{MetricsConfig, MetricsRecorder};
        let mut m = MetricsRecorder::new(&MetricsConfig {
            interval_ms: 0.05,
            ring_cap: 4096,
        });
        let mut mon = FleetMonitor::new(MonitorConfig::with_interval(0.05));
        let mut now = 0.0;
        for i in 0..1000 {
            now += 0.001 + (i % 7) as f64 * 0.013;
            assert_eq!(m.due(now), MonitorSink::due(&mon, now));
            if m.due(now) {
                let tm = m.advance(now);
                let tt = MonitorSink::advance(&mut mon, now);
                assert_eq!(tm.to_bits(), tt.to_bits());
            }
        }
    }
}

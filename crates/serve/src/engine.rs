//! The discrete-event, multi-tenant serving engine for one host.
//!
//! Generalizes the closed-form serving models of `tpu_platforms`
//! (`queue_sim`, `batching`, `server`) into one seeded scheduler:
//! Poisson (or bursty) request streams per tenant, policy-driven batch
//! formation, priority admission onto a pool of accelerator dies, and
//! per-request end-to-end latency accounting. With a single tenant,
//! a [`crate::policy::BatchPolicy::Fixed`] policy and one die, the engine reproduces
//! `queue_sim::simulate` exactly (same seed, same arrival stream, same
//! dispatch instants) — the integration tests pin that equivalence.
//!
//! Since the fleet refactor, this module is a thin orchestration layer:
//! the host state machine lives in [`crate::host::HostCore`], the event
//! queue in [`crate::sim`], and arrival generation in
//! [`crate::workload`] — the engine pulls timestamps from a boxed
//! [`ArrivalSource`] per tenant and never looks at the stream's shape
//! (Poisson, bursty, diurnal, or trace replay all plug in). `run` wires
//! one host to its own queue and locally-generated arrivals;
//! `tpu_cluster::run_fleet` wires many hosts to one shared queue with
//! front-end routing. Everything is deterministic from
//! [`ClusterSpec::seed`]: arrival streams are per-tenant seeded RNGs
//! (stream `i` = [`crate::sim::stream_seed`] of the master seed), ties
//! in the event queue break by schedule order, and die selection is a
//! pure function of engine state.

use crate::event::{Event, EventQueue};
use crate::host::{HostCore, HostEvent};
use crate::report::ServeReport;
use crate::sim;
use crate::tenant::TenantSpec;
use crate::workload::ArrivalSource;
use serde::{Deserialize, Serialize};
use tpu_core::TpuConfig;
pub use tpu_platforms::server::Dispatch;
use tpu_telemetry::RunTelemetry;

impl From<HostEvent> for Event {
    fn from(e: HostEvent) -> Event {
        match e {
            HostEvent::Timer { slot, generation } => Event::Timer {
                tenant: slot,
                generation,
            },
            // Single-host runs never fail a die, so the generation is
            // always 0 and the serve-level event needn't carry it.
            HostEvent::DieFree { die, .. } => Event::DieFree { die },
            HostEvent::WeightSwap { die } => Event::WeightSwap { die },
        }
    }
}

/// The die pool the tenants share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of accelerator dies behind the host.
    pub dies: usize,
    /// How ready batches are routed to free dies.
    pub dispatch: Dispatch,
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
}

impl ClusterSpec {
    /// A pool of `dies` dies with least-loaded dispatch.
    pub fn new(dies: usize, seed: u64) -> Self {
        ClusterSpec {
            dies,
            dispatch: Dispatch::LeastLoaded,
            seed,
        }
    }

    /// Select the dispatch discipline.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> Self {
        self.dispatch = dispatch;
        self
    }
}

/// Run the serving simulation to completion and report.
///
/// # Panics
///
/// Panics on a degenerate setup: no dies, no tenants, a tenant with no
/// requests, or a nonpositive arrival rate.
pub fn run(cluster: &ClusterSpec, tenants: &[TenantSpec], cfg: &TpuConfig) -> ServeReport {
    run_telemetry(cluster, tenants, cfg, &mut RunTelemetry::off())
}

/// [`run`] with telemetry instruments attached (see
/// [`tpu_telemetry::RunTelemetry`]). The instruments only observe —
/// they never schedule events or draw from an RNG — so the returned
/// report is bit-identical to the plain [`run`]'s; with every
/// instrument `None` this *is* [`run`].
///
/// # Panics
///
/// As [`run`].
pub fn run_telemetry(
    cluster: &ClusterSpec,
    tenants: &[TenantSpec],
    cfg: &TpuConfig,
    tel: &mut RunTelemetry,
) -> ServeReport {
    assert!(cluster.dies > 0, "need at least one die");
    assert!(!tenants.is_empty(), "need at least one tenant");

    let mut host = HostCore::new(cluster.dies, cluster.dispatch, cluster.seed);
    let mut sources: Vec<Box<dyn ArrivalSource>> = tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            assert!(spec.requests > 0, "tenant {} has no requests", spec.name);
            host.add_slot(spec.clone(), spec.effective_curve(cfg));
            // Tenant 0 shares the master seed so a single-tenant run
            // reproduces queue_sim's arrival stream bit for bit.
            spec.arrivals.source(
                &spec.name,
                spec.requests,
                sim::stream_seed(cluster.seed, i as u64),
            )
        })
        .collect();
    host.attach_probes(tel, 0);

    let mut q = EventQueue::new();
    for (i, s) in sources.iter_mut().enumerate() {
        let at = s
            .next_arrival_ms(0.0)
            .expect("a source emits at least one arrival");
        q.schedule(at, Event::Arrival { tenant: i });
    }

    // Per-event-type tallies (plain adds, no branches): the engine
    // profile's event counts, and summed, the report's event count.
    let mut counts = [0u64; 4];
    while let Some((now, event)) = q.pop() {
        tel.sample(now, |emit| host_gauges(now, &host, tenants, emit));
        match event {
            Event::Arrival { tenant } => {
                counts[0] += 1;
                host.enqueue(tenant, now);
                match sources[tenant].next_arrival_ms(now) {
                    Some(at) => q.schedule(at, Event::Arrival { tenant }),
                    None => host.set_draining(tenant, true),
                }
                host.after_arrival(tenant, now, &mut |at, e| q.schedule(at, e.into()));
            }
            Event::Timer { tenant, generation } => {
                counts[1] += 1;
                if !host.on_timer(tenant, generation) {
                    continue; // stale timer; the queue changed since
                }
            }
            Event::DieFree { die } => {
                counts[2] += 1;
                if let Some(done) = host.on_die_free(die, 0) {
                    // The batch's latencies were just committed at the
                    // end of the slot's buffer (slot index == tenant
                    // index).
                    let spec = &tenants[done.slot];
                    let from = host.latency_count(done.slot) - done.completions;
                    tel.observe_batch(
                        &spec.name,
                        spec.slo_ms,
                        0,
                        die,
                        host.slot_latencies_from(done.slot, from),
                        done.end_ms - done.start_ms - done.swap_ms,
                    );
                }
            }
            Event::WeightSwap { die } => {
                counts[3] += 1;
                // Bookkeeping only (the die stays busy until DieFree);
                // fires only when slots carry weight identities.
                host.on_weight_swap(die);
                continue;
            }
        }

        // Any event can unblock a dispatch: a batch may have become
        // ready (arrival/timer) or capacity may have appeared (die free).
        host.try_dispatch(now, &mut |at, e| q.schedule(at, e.into()));
    }

    for (i, s) in sources.iter().enumerate() {
        assert!(
            s.remaining() == 0 && host.outstanding(i) == 0,
            "tenant {i} finished with work left (engine bug)"
        );
        assert_eq!(
            host.latency_count(i),
            tenants[i].requests,
            "tenant {i} lost requests (engine bug)"
        );
    }

    tel.finish_run(
        [host.take_probes()],
        None,
        host.makespan_ms(),
        [
            ("arrival", counts[0]),
            ("timer", counts[1]),
            ("die-free", counts[2]),
            ("weight-swap", counts[3]),
        ],
        || q.wheel_profile(),
    );

    host.report(host.makespan_ms(), counts.iter().sum())
}

/// Emit one cadence sample's host gauges (state as of `now`):
/// per-tenant queue depth and mean batch occupancy, per-die
/// utilization, the host's raw busy-time, and the count of dies
/// mid-swap — the emitter [`RunTelemetry::sample`] feeds to the metrics
/// recorder and the health monitor alike.
fn host_gauges(
    now: f64,
    host: &HostCore,
    tenants: &[TenantSpec],
    emit: &mut dyn FnMut(String, f64),
) {
    for (i, spec) in tenants.iter().enumerate() {
        emit(format!("queued/{}", spec.name), host.queued(i) as f64);
        let batches = host.slot_batches(i);
        if batches > 0 {
            emit(
                format!("batch_mean/{}", spec.name),
                host.slot_dispatched(i) as f64 / batches as f64,
            );
        }
    }
    for d in 0..host.die_count() {
        let util = if now > 0.0 {
            (host.die_busy_ms(d) / now).min(1.0)
        } else {
            0.0
        };
        emit(format!("util/die{d}"), util);
    }
    emit("busy/host0".to_string(), host.busy_ms());
    let backlog: usize = (0..host.slot_count()).map(|s| host.outstanding(s)).sum();
    emit("backlog/host0".to_string(), backlog as f64);
    emit("pending_swaps".to_string(), host.pending_swaps() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BatchPolicy;
    use crate::service::ServiceCurve;
    use crate::tenant::ArrivalProcess;

    fn mlp0_tenant(rate: f64, policy: BatchPolicy, requests: usize) -> TenantSpec {
        TenantSpec::new(
            "MLP0",
            ArrivalProcess::Poisson { rate_rps: rate },
            policy,
            7.0,
            requests,
        )
        .with_curve(ServiceCurve::tpu_mlp0_table4())
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let cfg = TpuConfig::paper();
        let r = run(
            &ClusterSpec::new(2, 42),
            &[
                mlp0_tenant(50_000.0, BatchPolicy::Fixed { batch: 64 }, 5_000),
                mlp0_tenant(
                    20_000.0,
                    BatchPolicy::Timeout {
                        max_batch: 64,
                        t_max_ms: 2.0,
                    },
                    3_000,
                ),
            ],
            &cfg,
        );
        assert_eq!(r.tenants[0].requests, 5_000);
        assert_eq!(r.tenants[1].requests, 3_000);
        assert_eq!(r.total_requests(), 8_000);
        let batch_total: usize = r.dies.iter().map(|d| d.batches).sum();
        assert_eq!(
            batch_total,
            r.tenants.iter().map(|t| t.batches).sum::<usize>()
        );
    }

    #[test]
    fn same_seed_same_report() {
        let cfg = TpuConfig::paper();
        let spec = ClusterSpec::new(4, 7);
        let tenants = [
            mlp0_tenant(100_000.0, BatchPolicy::Fixed { batch: 128 }, 10_000),
            mlp0_tenant(
                10_000.0,
                BatchPolicy::Timeout {
                    max_batch: 200,
                    t_max_ms: 1.5,
                },
                2_000,
            ),
        ];
        let a = run(&spec, &tenants, &cfg);
        let b = run(&spec, &tenants, &cfg);
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "seeded runs must be bit-identical"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = TpuConfig::paper();
        let tenants = [mlp0_tenant(
            100_000.0,
            BatchPolicy::Fixed { batch: 128 },
            5_000,
        )];
        let a = run(&ClusterSpec::new(2, 1), &tenants, &cfg);
        let b = run(&ClusterSpec::new(2, 2), &tenants, &cfg);
        assert_ne!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn utilization_is_bounded_and_positive() {
        let cfg = TpuConfig::paper();
        let r = run(
            &ClusterSpec::new(4, 11),
            &[mlp0_tenant(
                200_000.0,
                BatchPolicy::Fixed { batch: 200 },
                20_000,
            )],
            &cfg,
        );
        for d in &r.dies {
            assert!(
                d.utilization > 0.0 && d.utilization <= 1.0,
                "{}",
                d.utilization
            );
        }
    }

    #[test]
    fn round_robin_balances_batches() {
        let cfg = TpuConfig::paper();
        let r = run(
            &ClusterSpec::new(4, 3).with_dispatch(Dispatch::RoundRobin),
            &[mlp0_tenant(
                150_000.0,
                BatchPolicy::Fixed { batch: 100 },
                20_000,
            )],
            &cfg,
        );
        let max = r.dies.iter().map(|d| d.batches).max().unwrap();
        let min = r.dies.iter().map(|d| d.batches).min().unwrap();
        assert!(max - min <= 2, "round robin should balance: {max} vs {min}");
    }

    #[test]
    fn higher_priority_tenant_sees_tighter_tail_under_contention() {
        // Two identical tenants drive 2 dies near saturation; the
        // high-priority tenant wins contended dies and keeps its tail.
        let cfg = TpuConfig::paper();
        let mk = |prio: u8| {
            mlp0_tenant(110_000.0, BatchPolicy::Fixed { batch: 128 }, 20_000)
                .with_priority(prio)
                .named(if prio > 1 { "hi" } else { "lo" })
        };
        let r = run(&ClusterSpec::new(2, 19), &[mk(9), mk(1)], &cfg);
        let hi = &r.tenants[0];
        let lo = &r.tenants[1];
        assert!(
            hi.p99_ms <= lo.p99_ms,
            "priority should not hurt the tail: hi {} vs lo {}",
            hi.p99_ms,
            lo.p99_ms
        );
    }

    #[test]
    fn bursty_arrivals_inflate_the_tail() {
        let cfg = TpuConfig::paper();
        let steady = mlp0_tenant(80_000.0, BatchPolicy::Fixed { batch: 128 }, 20_000);
        let mut bursty = steady.clone();
        bursty.arrivals = ArrivalProcess::Bursty {
            rate_rps: 80_000.0,
            burst_factor: 4.0,
            period_ms: 20.0,
            duty: 0.2,
        };
        let rs = run(&ClusterSpec::new(1, 5), &[steady], &cfg);
        let rb = run(&ClusterSpec::new(1, 5), &[bursty], &cfg);
        assert!(
            rb.tenants[0].p99_ms > rs.tenants[0].p99_ms,
            "bursts must stretch the tail: {} vs {}",
            rb.tenants[0].p99_ms,
            rs.tenants[0].p99_ms
        );
    }

    /// The telemetry contract at engine level: a fully-instrumented run
    /// returns the same report as the plain one, the profile's event
    /// tally matches `events_processed`, and the request spans cover
    /// every request.
    #[test]
    fn telemetry_observes_without_perturbing() {
        use tpu_telemetry::{MetricsConfig, TelemetryConfig};
        let cfg = TpuConfig::paper();
        let spec = ClusterSpec::new(2, 42);
        let tenants = [mlp0_tenant(
            50_000.0,
            BatchPolicy::Timeout {
                max_batch: 64,
                t_max_ms: 2.0,
            },
            2_000,
        )];
        let plain = run(&spec, &tenants, &cfg);
        let mut tel = RunTelemetry::from_config(&TelemetryConfig {
            trace: true,
            metrics: Some(MetricsConfig::default()),
            profile: true,
            requests: true,
        });
        let instrumented = run_telemetry(&spec, &tenants, &cfg, &mut tel);
        assert_eq!(
            format!("{plain}"),
            format!("{instrumented}"),
            "instruments must not change the report"
        );
        let profile = tel.profile.expect("profile filled");
        assert_eq!(profile.total_events(), instrumented.events_processed);
        assert!(profile.wheel.expect("wheel backend").advances > 0);
        let tracer = tel.tracer.expect("tracer filled");
        let requests = tracer
            .summary()
            .into_iter()
            .find(|r| r.cat == "request" && r.name == "MLP0")
            .expect("request spans recorded");
        assert_eq!(requests.count as usize, tenants[0].requests);
        let metrics = tel.metrics.expect("metrics filled");
        assert!(metrics.points("util/die0").len() > 1);
        // The latency sketch saw every request and flushed percentile
        // points on the cadence.
        let sketch = metrics.sketch("latency/MLP0").expect("sketch filled");
        assert_eq!(sketch.count() as usize, tenants[0].requests);
        assert!(!metrics.points("latency/MLP0.p99").is_empty());
        // The request log holds one decomposed record per request, with
        // component sums telling the same story as the report.
        let log = tel.requests.expect("request log filled");
        assert_eq!(log.len(), tenants[0].requests);
        let sum: f64 = log.records().iter().map(|r| r.latency_ms()).sum();
        let report_sum = instrumented.tenants[0].mean_ms * tenants[0].requests as f64;
        assert!(
            (sum - report_sum).abs() < 1e-6 * report_sum.max(1.0),
            "request-log latency sum {sum} vs report {report_sum}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn zero_dies_panics() {
        let cfg = TpuConfig::paper();
        let _ = run(
            &ClusterSpec {
                dies: 0,
                dispatch: Dispatch::RoundRobin,
                seed: 1,
            },
            &[mlp0_tenant(1000.0, BatchPolicy::Fixed { batch: 1 }, 500)],
            &cfg,
        );
    }
}

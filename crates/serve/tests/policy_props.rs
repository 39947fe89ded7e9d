//! Property tests for the batching policies, driven through the real
//! host machinery: batches never exceed their configured bound,
//! timeout-bounded batching never holds a request past `t_max` (when a
//! die is available), and no tenant starves under mixed priorities.

use proptest::prelude::*;
use tpu_serve::event::{Event, EventQueue};
use tpu_serve::tenant::ArrivalProcess;
use tpu_serve::{run, BatchPolicy, ClusterSpec, Dispatch, HostCore, ServiceCurve, TenantSpec};

/// Drive a single tenant through a [`HostCore`] event loop and return
/// (latencies, largest dispatched batch).
fn drive_single(
    policy: BatchPolicy,
    rate_rps: f64,
    requests: usize,
    dies: usize,
    seed: u64,
    curve: ServiceCurve,
) -> (Vec<f64>, usize) {
    let spec = TenantSpec::new(
        "MLP0",
        ArrivalProcess::Poisson { rate_rps },
        policy,
        7.0,
        requests,
    )
    .with_curve(curve);
    let mut host = HostCore::new(dies, Dispatch::LeastLoaded, seed);
    host.add_slot(spec.clone(), curve);
    let mut source = spec.arrivals.source(&spec.name, requests, seed);
    let mut q = EventQueue::new();
    q.schedule(
        source.next_arrival_ms(0.0).expect("nonempty stream"),
        Event::Arrival { tenant: 0 },
    );
    let mut biggest_batch = 0usize;
    while let Some((now, event)) = q.pop() {
        match event {
            Event::Arrival { tenant } => {
                host.enqueue(tenant, now);
                match source.next_arrival_ms(now) {
                    Some(at) => q.schedule(at, Event::Arrival { tenant }),
                    None => host.set_draining(tenant, true),
                }
                host.after_arrival(tenant, now, &mut |at, e| q.schedule(at, e.into()));
            }
            Event::Timer { tenant, generation } => {
                if !host.on_timer(tenant, generation) {
                    continue;
                }
            }
            Event::DieFree { die } => {
                if let Some(done) = host.on_die_free(die, 0) {
                    biggest_batch = biggest_batch.max(done.completions);
                }
            }
            Event::WeightSwap { die } => {
                host.on_weight_swap(die);
                continue;
            }
        }
        host.try_dispatch(now, &mut |at, e| q.schedule(at, e.into()));
    }
    (host.slot_latencies(0).to_vec(), biggest_batch)
}

fn any_policy() -> impl Strategy<Value = BatchPolicy> {
    prop_oneof![
        (1usize..64).prop_map(|batch| BatchPolicy::Fixed { batch }),
        (1usize..64, 0.2f64..4.0).prop_map(|(max_batch, t_max_ms)| BatchPolicy::Timeout {
            max_batch,
            t_max_ms
        }),
        (1usize..64, 0.5f64..4.0).prop_map(|(max_batch, margin_ms)| BatchPolicy::SloAdaptive {
            max_batch,
            slo_ms: 7.0,
            margin_ms,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No dispatched batch ever exceeds the policy's configured bound,
    /// and every request is served exactly once.
    #[test]
    fn batches_never_exceed_the_configured_size(
        policy in any_policy(),
        rate in 5_000.0f64..80_000.0,
        requests in 50usize..400,
        dies in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let curve = ServiceCurve::new(0.3, 0.005, 0.0);
        let (latencies, biggest) = drive_single(policy, rate, requests, dies, seed, curve);
        prop_assert_eq!(latencies.len(), requests, "served exactly once");
        prop_assert!(
            biggest <= policy.max_batch(),
            "batch {} exceeds bound {}",
            biggest,
            policy.max_batch()
        );
        prop_assert!(biggest > 0, "something must dispatch");
    }

    /// With a die always available, timeout-bounded batching never
    /// holds a request longer than `t_max` before dispatch: every
    /// latency is below `t_max + service(max_batch)`.
    #[test]
    fn timeout_batching_never_holds_past_t_max(
        max_batch in 1usize..64,
        t_max_ms in 0.1f64..5.0,
        rate in 1_000.0f64..50_000.0,
        requests in 20usize..120,
        seed in 0u64..1_000,
    ) {
        let curve = ServiceCurve::new(0.3, 0.01, 0.0);
        let policy = BatchPolicy::Timeout { max_batch, t_max_ms };
        // One die per request: dispatch is never blocked on capacity,
        // so accumulation delay is the only wait.
        let (latencies, _) = drive_single(policy, rate, requests, requests, seed, curve);
        let bound = t_max_ms + curve.service_ms(max_batch) + 1e-6;
        for (i, l) in latencies.iter().enumerate() {
            prop_assert!(
                *l <= bound,
                "request {i}: latency {l} exceeds t_max {t_max_ms} + service bound"
            );
        }
    }

    /// Mixed priorities never starve anyone: with three tenants at
    /// arbitrary priorities sharing a pool at moderate load, every
    /// tenant's full request stream is served (the engine itself
    /// asserts completion; the property is that it holds across the
    /// whole priority/config space).
    #[test]
    fn no_tenant_starves_under_mixed_priorities(
        p0 in 1u8..10, p1 in 1u8..10, p2 in 1u8..10,
        seed in 0u64..1_000,
        dies in 1usize..4,
    ) {
        let cfg = tpu_core::TpuConfig::paper();
        let mk = |name: &str, prio: u8, requests: usize| {
            TenantSpec::new(
                "MLP0",
                ArrivalProcess::Poisson { rate_rps: 40_000.0 },
                BatchPolicy::Timeout { max_batch: 64, t_max_ms: 1.0 },
                7.0,
                requests,
            )
            .named(name)
            .with_priority(prio)
            .with_curve(ServiceCurve::tpu_mlp0_table4())
        };
        let tenants = [mk("a", p0, 300), mk("b", p1, 200), mk("c", p2, 100)];
        let report = run(&ClusterSpec::new(dies, seed), &tenants, &cfg);
        prop_assert_eq!(report.tenants[0].requests, 300);
        prop_assert_eq!(report.tenants[1].requests, 200);
        prop_assert_eq!(report.tenants[2].requests, 100);
        for t in &report.tenants {
            prop_assert!(t.slo_attainment > 0.0, "{} served nothing on time", t.name);
        }
    }
}

//! # bench_fleet — the fleet simulator's benchmark
//!
//! The paper judges the TPU by work done per second under a 99th-
//! percentile limit on production traffic. This repository's fleet
//! studies re-run that serving setup on up to a thousand hosts, so what
//! their users wait for is the host time one study takes. `bench_fleet`
//! measures that time on six workloads, checks every output, and in a
//! separate traced run splits it into layers.
//!
//! ## Commands
//!
//! Run from the repository root:
//!
//! ```text
//! # every workload, each in its own child process, one at a time;
//! # prints each end-to-end metric with its unit, appends the run to
//! # results.jsonl, exits non-zero if any output check failed
//! cargo run --release --manifest-path bench_fleet/Cargo.toml -- --seed 42 --out results.jsonl
//!
//! # the traced run: per-layer metrics, plus a Chrome-trace JSON per
//! # workload in DIR (load it in Perfetto)
//! cargo run --release --manifest-path bench_fleet/Cargo.toml -- --seed 42 --trace 1 --trace-dir DIR
//!
//! # one workload; the last stdout line is the JSON result
//! cargo run --release --manifest-path bench_fleet/Cargo.toml -- \
//!     --workload mlp0-1k --seed 7 --seconds 15 --trace 0
//!
//! # verdict per (workload, end-to-end metric): run i of each file is
//! # pair i; bounds come from BENCHMARK.json
//! cargo run --release --manifest-path bench_fleet/Cargo.toml -- --compare parent.jsonl change.jsonl
//! ```
//!
//! The benchmark refuses to run while any `TPU_*` variable is set:
//! those switch the simulator onto its reference paths, and the numbers
//! would measure those instead.
//!
//! ## Workloads
//!
//! The seed is written into `FleetSpec::seed` / `ClusterSpec::seed`;
//! the simulator gets only the built inputs. One op is one simulation
//! call plus rendering its report as text and JSON.
//!
//! * `mlp0-1k` — 1000 hosts × 2 dies, one MLP0 tenant on every host,
//!   least-outstanding routing, Table 5 hops, 2,000 requests per host.
//!   The single engine's cost per event grows with the fleet (the
//!   queue's pending set, per-host and per-tenant state, the router
//!   index); this is where that shows.
//! * `mlp0-100` — the same per-host load on 100 hosts: the control. A
//!   fleet-size fix should move `mlp0-1k` and leave this flat.
//! * `mlp0-100-observed` — `mlp0-100` with the metrics recorder (1 ms
//!   cadence), the request log and the health monitor on; each op also
//!   renders the metrics CSV, the request-log JSON and the incident
//!   report. The only workload where instruments and artifact rendering
//!   do most of the work.
//! * `colocate-100` — MLP0+LSTM0+CNN0 bin-packed on 100 hosts,
//!   swap-aware routing, weight swaps on, 20,000 requests per host. The
//!   warm-set router index, weight-swap events and bin-pack placement
//!   work only here.
//! * `outage-cells-960` — 120 eight-host cells under staggered rack
//!   outages with bounded retries, a retry budget and brownout
//!   shedding, 2,000 requests per host. The only workload with
//!   failures, retries and shedding, the only one on the sharded engine,
//!   and the one whose multi-megabyte report makes rendering matter.
//! * `serve-mix` — `tpu_serve::run` with the six Table 1 tenants of
//!   `mixed-tenants` on one 4-die host, request counts × 10: priority
//!   batching over a tiny queue, with no routing.
//!
//! ## End-to-end metrics (the untraced run)
//!
//! * `sim_requests_per_s` (req/s, higher is better) — requests offered
//!   to the simulator (served + dropped + shed) over the fastest op's
//!   time. Every op does the same work and other processes on a shared
//!   machine only ever add time, so the fastest op is what stays put
//!   when they do; the median and quartiles go to stderr.
//! * `peak_rss_mib` (MiB, lower is better) — the workload process's
//!   `VmHWM`. It moves with the allocator's fragmentation as well as
//!   with the program, hence its wide bound.
//! * `peak_heap_mib` (MiB, lower is better) — the most heap one op
//!   holds at once, counted by this program's allocator in one extra,
//!   untimed op: the program's own memory demand, steady from seed to
//!   seed.
//! * `setup_s` (s, lower is better) — the median of 11 repetitions,
//!   spread over the measuring window, of building the inputs plus the
//!   placement plan (`tpu_serve`: the tenants' service curves). Work
//!   moved out of the op into set-up shows here.
//!
//! Failed ops — a panic, a result that differs from the warm-up run, a
//! tenant whose served + dropped + shed differs from what it was
//! offered, or at seed 42 a report digest other than the pinned one —
//! are reported as `failed` out of `attempted`. Events per second is
//! deliberately a layer metric: a change that removes events lowers it
//! even when the study finishes sooner.
//!
//! ## Per-layer metrics (the traced run)
//!
//! * `cluster::fleet` — `placement.plan_s` (s; `serve-mix`: the service
//!   curves, its only set-up).
//! * `serve::sim` — `queue.hold_ns` (ns per hold of an `EventQueue`
//!   holding dies + replicas events), `queue.advances`, `queue.spills`,
//!   `queue.max_rung` (counts from the engine profile's wheel).
//! * `cluster::route` — `route.least_ns` (ns per `OutstandingIndex`
//!   route at the largest tenant's replica count, or a single host's
//!   dies), `events.arrival`,
//!   `events.deliver` (counts).
//! * `serve::host` — `host.share_ns_per_event` (ns: one host's share of
//!   the workload run alone, one cell for `outage-cells-960`),
//!   `events.timer`, `events.die-free` (counts).
//! * `serve::weights` — `events.weight-swap`, `weights.swaps` (counts).
//! * `cluster::engine` — `engine.run_s` (s), `engine.events` (count),
//!   `engine.ns_per_event` (ns), `engine.scale_overhead` (ratio of
//!   `engine.ns_per_event` to `host.share_ns_per_event`),
//!   `engine.allocs_per_event` (count), `engine.alloc_bytes_per_event`
//!   (B).
//! * `cluster::shard` — `shard.components` (count).
//! * `cluster::resilience` — `events.failure`, `events.retry`,
//!   `resilience.retries`, `resilience.dropped`, `resilience.shed`
//!   (counts).
//! * `telemetry` — `telemetry.metrics_s`, `telemetry.reqlog_s` (s: a run
//!   with only that instrument minus a bare run, on every workload;
//!   instruments force the single engine, so on `outage-cells-960` the
//!   difference includes leaving the sharded one), `telemetry.render_s`
//!   (s, the metrics CSV plus the request-log JSON).
//! * `monitor` — `monitor.fold_s` (s, the same difference),
//!   `monitor.folds` (count), `monitor.render_s` (s).
//! * `cluster::report` — `report.render_s` (s), `report.bytes` (B),
//!   `report.allocs_per_op` (count).
//! * `serve::workload` — `arrivals.ns_per_arrival` (ns, draining every
//!   tenant's arrival source).
//! * `trace.overhead` (ratio) — the traced op median over the untraced
//!   op median.
//!
//! A count whose layer a workload never enters reads 0. Spans are
//! wall-clock, recorded by this program around its calls into each
//! layer's public functions; the simulator itself is not instrumented.

use bench_fleet::check::{check_op, check_reference};
use bench_fleet::layers;
use bench_fleet::mem::{self, CountingAlloc};
use bench_fleet::spans::Spans;
use bench_fleet::stats::{median, quartiles, verdict, Verdict};
use bench_fleet::workload::{
    op, render_incidents, render_report, render_telemetry, simulate, Inputs, Instruments, OpOutput,
    Outcome, Size, Workload,
};
use serde_json::Value;
use std::hint::black_box;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tpu_core::TpuConfig;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: bench_fleet [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-dir DIR] [--out FILE]\n       \
                     bench_fleet --compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]";

/// Set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 11;
/// A set-up repetition repeats set-up until it lasts this long, so
/// sub-millisecond set-ups are timed above the clock's noise.
const SETUP_REP_MIN_S: f64 = 0.02;
/// Ops timed per run however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Default measuring time per workload, seconds (`run_seconds` in
/// BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;
/// Host-share runs last at least this long in total.
const SHARE_MIN_S: f64 = 1.0;
/// Kernel repetitions (medians are reported) and iterations per run.
const KERNEL_REPS: usize = 5;
const KERNEL_ITERS: usize = 1_000_000;

/// What the command line asked for.
enum Mode {
    Run(RunOpts),
    Compare {
        parent: String,
        change: String,
        benchmark: String,
    },
}

struct RunOpts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<String>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = RunOpts {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_dir: None,
        out: None,
    };
    let mut compare: Option<(String, String)> = None;
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                opts.seconds = match value()?.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err("--seconds takes a positive number".into()),
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => {
                opts.trace_dir = Some(value()?.clone());
                opts.trace = true;
            }
            "--out" => opts.out = Some(value()?.clone()),
            "--benchmark" => benchmark = value()?.clone(),
            "--compare" => {
                let parent = value()?.clone();
                let change = value()?.clone();
                compare = Some((parent, change));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(match compare {
        Some((parent, change)) => Mode::Compare {
            parent,
            change,
            benchmark,
        },
        None => Mode::Run(opts),
    })
}

fn main() -> ExitCode {
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("TPU_"))
    {
        eprintln!(
            "bench_fleet: refusing to run with {var} set: TPU_* variables switch the \
             simulator onto reference paths, and the numbers would measure those"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(msg) => {
            eprintln!("bench_fleet: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Compare {
            parent,
            change,
            benchmark,
        }) => compare(&parent, &change, &benchmark),
        Ok(Mode::Run(opts)) => match opts.workload {
            Some(w) => run_one(w, &opts),
            None => run_all(&opts),
        },
    }
}

/// One named measurement.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of measuring one workload.
struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.to_string(),
                Value::object([
                    ("value".to_string(), Value::Number(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ]),
            )
        });
        Value::object([
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            (
                "attempted".to_string(),
                Value::Number(self.attempted as f64),
            ),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), Value::object(metrics)),
        ])
    }
}

/// Ops attempted and failed; the first failure is reported on stderr.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, workload: Workload, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            if self.failed == 0 {
                eprintln!("bench_fleet: {}: op failed: {e}", workload.name());
            }
            self.failed += 1;
        }
    }

    /// Record a later op against the warm-up op.
    fn check(
        &mut self,
        workload: Workload,
        inputs: &Inputs,
        reference: Option<&OpOutput>,
        out: Result<OpOutput, String>,
    ) {
        let result = match (out, reference) {
            (Err(e), _) => Err(e),
            (Ok(_), None) => Err("no warm-up result to compare against".to_string()),
            (Ok(out), Some(reference)) => check_op(inputs, reference, &out),
        };
        self.record(workload, result);
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(spans: &mut Spans, f: impl FnOnce(&mut Spans) -> T) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(|| f(&mut *spans))) {
        Ok(v) => Ok(v),
        Err(payload) => {
            spans.close_abandoned();
            Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked".to_string()))
        }
    }
}

/// Build the inputs, then the placement plan (or service curves).
fn set_up(w: Workload, seed: u64, cfg: &TpuConfig, spans: &mut Spans) -> Inputs {
    let inputs = spans.span("setup.inputs", "bench", |_| w.inputs(seed, Size::Full));
    let (name, layer) = plan_span(&inputs);
    spans.span(name, layer, |_| black_box(inputs.plan(cfg)));
    inputs
}

/// The span a set-up's planning step is recorded under.
fn plan_span(inputs: &Inputs) -> (&'static str, &'static str) {
    match inputs {
        Inputs::Fleet { .. } => ("placement.plan", "cluster::fleet"),
        Inputs::Serve { .. } => ("setup.curves", "serve::service"),
    }
}

/// One timed set-up repetition: set-up repeated `inner` times; returns
/// seconds per set-up.
fn set_up_rep(w: Workload, seed: u64, cfg: &TpuConfig, inner: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..inner {
        black_box(set_up(w, seed, cfg, &mut Spans::off()));
    }
    t0.elapsed().as_secs_f64() / inner as f64
}

/// The warm-up op: untimed, checked against conservation and (at seed
/// 42) the pinned digest, and the reference every later op must equal.
fn warm_up(
    w: Workload,
    inputs: &Inputs,
    cfg: &TpuConfig,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Option<OpOutput> {
    let out = guarded(spans, |s| {
        s.span("warmup", "bench", |s| op(w, inputs, cfg, s))
    });
    let checked = out.and_then(|out| check_reference(w, inputs, &out).map(|()| out));
    match checked {
        Ok(out) => {
            tally.record(w, Ok(()));
            Some(out)
        }
        Err(e) => {
            tally.record(w, Err(e));
            None
        }
    }
}

/// The end-to-end run: set-up, warm-up, then ops for `seconds`, with
/// the timed set-up repetitions spread over the same window so that a
/// burst of interference cannot land on all of them.
fn timed(w: Workload, opts: &RunOpts) -> RunResult {
    let cfg = TpuConfig::paper();
    let mut spans = Spans::off();
    let inputs = set_up(w, opts.seed, &cfg, &mut spans);
    let once = set_up_rep(w, opts.seed, &cfg, 1);
    let inner = ((SETUP_REP_MIN_S / once.max(1e-9)).ceil() as usize).max(1);
    let mut tally = Tally::default();
    let reference = warm_up(w, &inputs, &cfg, &mut spans, &mut tally);
    let mut op_s = Vec::new();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    while op_s.len() < MIN_OPS || start.elapsed().as_secs_f64() < opts.seconds {
        let t0 = Instant::now();
        let out = guarded(&mut spans, |s| op(w, &inputs, &cfg, s));
        op_s.push(t0.elapsed().as_secs_f64());
        tally.check(w, &inputs, reference.as_ref(), out);
        let due = start.elapsed().as_secs_f64() / opts.seconds * SETUP_REPS as f64;
        if (setup_s.len() as f64) < due.min(SETUP_REPS as f64) {
            setup_s.push(set_up_rep(w, opts.seed, &cfg, inner));
        }
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(set_up_rep(w, opts.seed, &cfg, inner));
    }
    let rss = mem::peak_rss_bytes().unwrap_or(0) as f64 / MIB;
    // One more op, untimed, with the allocator counting.
    let (out, heap) = mem::count(|| guarded(&mut spans, |s| op(w, &inputs, &cfg, s)));
    tally.check(w, &inputs, reference.as_ref(), out);
    let (q1, med, q3) = quartiles(&op_s);
    let min = op_s.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "bench_fleet: {}: op time min {min:.6} s, q1 {q1:.6}, median {med:.6}, q3 {q3:.6} \
         over {} ops",
        w.name(),
        op_s.len()
    );
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            // Every op does the same work, and other processes only ever
            // add time to it, so the fastest op tracks the program and
            // not its neighbours.
            metric("sim_requests_per_s", inputs.offered() as f64 / min, "req/s"),
            metric("peak_rss_mib", rss, "MiB"),
            metric("peak_heap_mib", heap.peak_bytes as f64 / MIB, "MiB"),
            metric("setup_s", median(&setup_s), "s"),
        ],
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Run `f` repeatedly inside spans named `name` until `min_s` seconds
/// and `min_reps` runs have passed; returns each run's result.
fn repeat<T>(
    spans: &mut Spans,
    name: &'static str,
    layer: &'static str,
    min_reps: usize,
    min_s: f64,
    mut f: impl FnMut() -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < min_s {
        out.push(spans.span(name, layer, |_| f()));
    }
    out
}

/// The traced run: every per-layer metric, with spans around each
/// layer call, written as a Chrome trace when `--trace-dir` is given.
fn traced(w: Workload, opts: &RunOpts) -> RunResult {
    let cfg = TpuConfig::paper();
    let seed = opts.seed;
    let mut spans = Spans::new();
    let inputs = set_up(w, seed, &cfg, &mut spans);
    let (plan_name, plan_layer) = plan_span(&inputs);
    let plan_s = repeat(&mut spans, plan_name, plan_layer, SETUP_REPS, 0.0, || {
        let t0 = Instant::now();
        black_box(inputs.plan(&cfg));
        t0.elapsed().as_secs_f64()
    });
    let mut tally = Tally::default();
    let Some(reference) = warm_up(w, &inputs, &cfg, &mut spans, &mut tally) else {
        return RunResult {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
        };
    };
    let events = reference.outcome.events() as f64;
    let instruments = w.instruments();

    // Exact counts from one profiled run (instruments observe only, so
    // the run is the op's run).
    let (_, profiled) = spans.span("engine.profile", "cluster::engine", |_| {
        simulate(
            &inputs,
            &cfg,
            Instruments {
                profile: true,
                ..instruments
            },
        )
    });
    let profile = profiled.profile.unwrap_or_default();
    let count_of = |name: &str| {
        profile
            .event_counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, c)| c as f64)
    };
    let wheel = profile.wheel.clone().unwrap_or_default();

    let (_, sim_allocs) = spans.span("engine.allocs", "cluster::engine", |_| {
        mem::count(|| simulate(&inputs, &cfg, instruments))
    });
    let (rendered, report_allocs) = spans.span("report.allocs", "cluster::report", |_| {
        mem::count(|| render_report(&reference.outcome))
    });
    let report_bytes: usize = rendered.iter().map(String::len).sum();

    let share = w.inputs(seed, Size::Share);
    let share_ns = repeat(
        &mut spans,
        "host.share",
        "serve::host",
        3,
        SHARE_MIN_S,
        || {
            let t0 = Instant::now();
            let (outcome, _) = simulate(&share, &cfg, instruments);
            t0.elapsed().as_nanos() as f64 / outcome.events() as f64
        },
    );

    let pending = inputs.pending_set();
    let mean_gap_ms = pending as f64 * reference.outcome.makespan_ms() / events.max(1.0);
    let hold_ns = repeat(
        &mut spans,
        "queue.hold",
        "serve::sim",
        KERNEL_REPS,
        0.0,
        || layers::queue_hold_ns(pending, mean_gap_ms, KERNEL_ITERS, seed),
    );
    let width = inputs.route_width();
    let route_ns = repeat(
        &mut spans,
        "route.least",
        "cluster::route",
        KERNEL_REPS,
        0.0,
        || layers::route_least_ns(width, KERNEL_ITERS, seed),
    );
    let arrival_ns: Vec<f64> = repeat(
        &mut spans,
        "arrivals.drain",
        "serve::workload",
        3,
        0.0,
        || layers::drain_arrivals(&inputs).0,
    );

    // Each instrument's price on this workload, whether or not its ops
    // carry it: runs with only that instrument against bare runs,
    // interleaved so drift hits every variant alike, plus rendering
    // what the instrument recorded. Instruments force the single
    // engine, so on a sharded workload the difference includes that.
    let only = |f: fn(&mut Instruments)| {
        let mut i = Instruments::OFF;
        f(&mut i);
        i
    };
    let variants: [(&'static str, &'static str, Instruments); 4] = [
        ("instruments.none", "telemetry", Instruments::OFF),
        ("telemetry.metrics", "telemetry", only(|i| i.metrics = true)),
        ("telemetry.reqlog", "telemetry", only(|i| i.reqlog = true)),
        ("monitor.fold", "monitor", only(|i| i.monitor = true)),
    ];
    let budget_start = Instant::now();
    let mut variant_s = vec![Vec::new(); variants.len()];
    let mut render_s = vec![Vec::new(); variants.len()];
    let mut folds = 0;
    while variant_s[0].is_empty() || budget_start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        for (i, &(name, layer, variant)) in variants.iter().enumerate() {
            let t0 = Instant::now();
            let (_, observed) = spans.span(name, layer, |_| simulate(&inputs, &cfg, variant));
            variant_s[i].push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            if variant.monitor {
                folds = observed.monitor.as_ref().map_or(0, |m| m.folds());
                spans.span("monitor.render", "monitor", |_| {
                    black_box(render_incidents(&observed))
                });
            } else if variant != Instruments::OFF {
                spans.span("telemetry.render", "telemetry", |_| {
                    black_box(render_telemetry(&observed))
                });
            }
            render_s[i].push(t0.elapsed().as_secs_f64());
        }
    }
    let instrument_cost = |i: usize| median(&variant_s[i]) - median(&variant_s[0]);

    // Untraced and traced ops, alternating, for the rest of the budget.
    let first_op_span = spans.spans().len();
    let mut off = Spans::off();
    let mut untraced_s = Vec::new();
    let loop_start = Instant::now();
    let remaining = opts.seconds - budget_start.elapsed().as_secs_f64();
    while untraced_s.len() < MIN_OPS || loop_start.elapsed().as_secs_f64() < remaining {
        let t0 = Instant::now();
        let out = guarded(&mut off, |s| op(w, &inputs, &cfg, s));
        untraced_s.push(t0.elapsed().as_secs_f64());
        tally.check(w, &inputs, Some(&reference), out);
        let out = guarded(&mut spans, |s| {
            s.span("op", "bench", |s| op(w, &inputs, &cfg, s))
        });
        tally.check(w, &inputs, Some(&reference), out);
    }
    let loop_median = |name| median(&spans.durations_s(name, first_op_span));
    let run_s = loop_median("engine.run");
    let ns_per_event = run_s * 1e9 / events;
    let share_ns_per_event = median(&share_ns);

    let (swaps, retries, dropped, shed, components) = match &reference.outcome {
        Outcome::Fleet(run) => {
            let sum = |f: fn(&tpu_cluster::FleetTenantReport) -> usize| -> f64 {
                run.report.tenants.iter().map(f).sum::<usize>() as f64
            };
            (
                sum(|t| t.swaps),
                sum(|t| t.retries),
                sum(|t| t.dropped),
                sum(|t| t.shed),
                layers::components(run.report.hosts.len(), &run.placement.assignments),
            )
        }
        Outcome::Serve(_) => (0.0, 0.0, 0.0, 0.0, 1),
    };

    if let Some(dir) = &opts.trace_dir {
        let meta = Value::object([
            ("workload".to_string(), Value::String(w.name().to_string())),
            ("seed".to_string(), Value::Number(seed as f64)),
            ("cores".to_string(), Value::Number(cores() as f64)),
        ]);
        let path = std::path::Path::new(dir).join(format!("{}.trace.json", w.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json(meta)));
        match written {
            Ok(()) => eprintln!("bench_fleet: wrote {}", path.display()),
            Err(e) => {
                eprintln!("bench_fleet: cannot write {}: {e}", path.display());
                tally.failed += 1;
            }
        }
    }

    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("placement.plan_s", median(&plan_s), "s"),
            metric("queue.hold_ns", median(&hold_ns), "ns"),
            metric("queue.advances", wheel.advances as f64, "count"),
            metric("queue.spills", wheel.spills as f64, "count"),
            metric("queue.max_rung", wheel.max_rung as f64, "count"),
            metric("route.least_ns", median(&route_ns), "ns"),
            metric("events.arrival", count_of("arrival"), "count"),
            metric("events.deliver", count_of("deliver"), "count"),
            metric("events.timer", count_of("timer"), "count"),
            metric("events.die-free", count_of("die-free"), "count"),
            metric("events.weight-swap", count_of("weight-swap"), "count"),
            metric("events.failure", count_of("failure"), "count"),
            metric("events.retry", count_of("retry"), "count"),
            metric("host.share_ns_per_event", share_ns_per_event, "ns"),
            metric("weights.swaps", swaps, "count"),
            metric("engine.run_s", run_s, "s"),
            metric("engine.events", events, "count"),
            metric("engine.ns_per_event", ns_per_event, "ns"),
            metric(
                "engine.scale_overhead",
                ns_per_event / share_ns_per_event,
                "ratio",
            ),
            metric(
                "engine.allocs_per_event",
                sim_allocs.allocs as f64 / events,
                "count",
            ),
            metric(
                "engine.alloc_bytes_per_event",
                sim_allocs.bytes as f64 / events,
                "B",
            ),
            metric("shard.components", components as f64, "count"),
            metric("resilience.retries", retries, "count"),
            metric("resilience.dropped", dropped, "count"),
            metric("resilience.shed", shed, "count"),
            metric("telemetry.metrics_s", instrument_cost(1), "s"),
            metric("telemetry.reqlog_s", instrument_cost(2), "s"),
            metric(
                "telemetry.render_s",
                median(&render_s[1]) + median(&render_s[2]),
                "s",
            ),
            metric("monitor.fold_s", instrument_cost(3), "s"),
            metric("monitor.folds", folds as f64, "count"),
            metric("monitor.render_s", median(&render_s[3]), "s"),
            metric("report.render_s", loop_median("report.render"), "s"),
            metric("report.bytes", report_bytes as f64, "B"),
            metric("report.allocs_per_op", report_allocs.allocs as f64, "count"),
            metric("arrivals.ns_per_arrival", median(&arrival_ns), "ns"),
            metric(
                "trace.overhead",
                loop_median("op") / median(&untraced_s),
                "ratio",
            ),
        ],
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measure one workload in this process; the JSON result is the last
/// line of stdout.
fn run_one(w: Workload, opts: &RunOpts) -> ExitCode {
    let result = if opts.trace {
        traced(w, opts)
    } else {
        timed(w, opts)
    };
    eprintln!(
        "bench_fleet: {}: {} ops, {} failed",
        w.name(),
        result.attempted,
        result.failed
    );
    println!("{}", serde_json::to_string(&result.to_json()));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure every workload, each in its own child process, one at a
/// time; print every metric, append the run to `--out`.
fn run_all(opts: &RunOpts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_fleet: cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            w.name(),
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if opts.trace { "1" } else { "0" },
        ]);
        if let Some(dir) = &opts.trace_dir {
            child.args(["--trace-dir", dir]);
        }
        let result = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())
            .and_then(|out| {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last = stdout.lines().last().unwrap_or_default();
                serde_json::from_str(last)
                    .map_err(|e| format!("exit {}, unreadable result: {e}", out.status))
            });
        let result = match result {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_fleet: {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        ok &= get(&result, "correct") == Some(&Value::Bool(true));
        println!(
            "{:<18} ops {} failed {}",
            w.name(),
            num(get(&result, "attempted")),
            num(get(&result, "failed"))
        );
        if let Some(Value::Object(metrics)) = get(&result, "metrics") {
            for (name, m) in metrics {
                let unit = match get(m, "unit") {
                    Some(Value::String(u)) => u.as_str(),
                    _ => "",
                };
                println!("  {name:<28} {:>16.6} {unit}", num(get(m, "value")));
            }
        }
        results.push((w.name().to_string(), result));
    }
    if let Some(path) = &opts.out {
        let line = Value::object([
            ("seed".to_string(), Value::Number(opts.seed as f64)),
            ("seconds".to_string(), Value::Number(opts.seconds)),
            ("trace".to_string(), Value::Bool(opts.trace)),
            ("cores".to_string(), Value::Number(cores() as f64)),
            ("workloads".to_string(), Value::object(results)),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", serde_json::to_string(&line)));
        if let Err(e) = appended {
            eprintln!("bench_fleet: cannot append to {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.get(key),
        _ => None,
    }
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Number(n)) => *n,
        _ => f64::NAN,
    }
}

/// Read a JSON-lines file of `--out` runs.
fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// Print a verdict per (workload, end-to-end metric); exit non-zero on
/// any regression or failed op on the change's side.
fn compare(parent: &str, change: &str, benchmark: &str) -> ExitCode {
    let loaded = (|| -> Result<_, String> {
        let bench_text =
            std::fs::read_to_string(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
        let bench = serde_json::from_str(&bench_text).map_err(|e| format!("{benchmark}: {e}"))?;
        Ok((bench, read_runs(parent)?, read_runs(change)?))
    })();
    let (bench, a_runs, b_runs) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bench_fleet: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(Value::Array(e2e)) = get(&bench, "end_to_end") else {
        eprintln!("bench_fleet: {benchmark} has no end_to_end list");
        return ExitCode::from(2);
    };
    let values = |runs: &[Value], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| get(get(get(get(r, "workloads")?, w)?, "metrics")?, m))
            .map(|v| num(get(v, "value")))
            .filter(|v| v.is_finite())
            .collect()
    };
    let failed = |runs: &[Value], w: &str| -> usize {
        runs.iter()
            .filter_map(|r| get(get(r, "workloads")?, w))
            .filter(|r| get(r, "correct") != Some(&Value::Bool(true)))
            .count()
    };
    println!(
        "{:<18} {:<20} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut ok = true;
    for w in Workload::ALL.map(Workload::name) {
        for m in e2e {
            let (Some(Value::String(name)), Some(Value::String(better))) =
                (get(m, "name"), get(m, "better"))
            else {
                continue;
            };
            let bound = num(get(m, "bound"));
            let (a, b) = (values(&a_runs, w, name), values(&b_runs, w, name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let higher = better == "higher";
            let v = verdict(&a, &b, higher, bound);
            let wins = a
                .iter()
                .zip(&b)
                .filter(|&(&p, &c)| if higher { c > p } else { c < p })
                .count();
            let show = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                format!("{med:.6} [{q1:.6}, {q3:.6}]")
            };
            println!(
                "{w:<18} {name:<20} {:>32} {:>32} {:>3}/{:<2}  {}",
                show(&a),
                show(&b),
                wins,
                a.len().min(b.len()),
                v.as_str()
            );
            ok &= v != Verdict::Regressed;
        }
        let bad = failed(&b_runs, w);
        if bad > 0 {
            println!("{w:<18} {bad} change run(s) had failed ops");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The six benchmark workloads and the operation each one times.
//!
//! A workload is a fixed set of simulator inputs built from a seed; the
//! program under test receives only those inputs. One *op* is one
//! simulation call plus rendering its report as text and JSON (and, for
//! `mlp0-100-observed`, its telemetry and incident artifacts) — the
//! host time a study pays per simulated fleet.

use crate::spans::Spans;
use tpu_bench::{colocate_fleet, fleet_tenants, resilient_fleet};
use tpu_cluster::{plan_placement, PlacementPlan, RouterPolicy};
use tpu_cluster::{run_fleet_telemetry, FleetRun, FleetSpec, FleetTenantSpec, HopModel};
use tpu_core::TpuConfig;
use tpu_monitor::{FleetMonitor, MonitorConfig};
use tpu_serve::{ClusterSpec, ServeReport, TenantSpec};
use tpu_telemetry::{EngineProfile, MetricsConfig, MetricsRecorder, RequestLog, RunTelemetry};

/// Requests per host in the MLP0 and outage workloads.
const REQUESTS_PER_HOST: usize = 2_000;
/// Requests per host in `colocate-100` (ten times the others, so the
/// swap path sees a long steady state).
const COLOCATE_REQUESTS_PER_HOST: usize = 20_000;
/// `serve-mix` runs `mixed-tenants` with every request count times ten.
const SERVE_MIX_SCALE: f64 = 10.0;
/// Cadence of the observed workload's metrics recorder and monitor,
/// sim-ms (the CLI default, with the monitor on the metrics cadence).
const OBSERVED_CADENCE_MS: f64 = 1.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1000 hosts × 2 dies, one MLP0 tenant everywhere: the fleet-size
    /// cliff on the single engine.
    Mlp0_1k,
    /// The same per-host load on 100 hosts: the control for `mlp0-1k`.
    Mlp0_100,
    /// `mlp0-100` with the metrics recorder, request log and monitor on.
    Mlp0_100Observed,
    /// MLP0+LSTM0+CNN0 bin-packed on 100 hosts with weight swaps.
    Colocate100,
    /// 120 eight-host cells under rack outages with retries, a retry
    /// budget and brownout shedding, on the sharded engine.
    OutageCells960,
    /// The six Table 1 tenants on one 4-die host through `tpu_serve::run`.
    ServeMix,
}

/// How large to build a workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmarked size.
    Full,
    /// One host's share at the full per-host load (one eight-host cell
    /// for `outage-cells-960`; `serve-mix` is one host already).
    Share,
    /// About 1% of the full size, for smoke tests.
    Smoke,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 6] = [
        Workload::Mlp0_1k,
        Workload::Mlp0_100,
        Workload::Mlp0_100Observed,
        Workload::Colocate100,
        Workload::OutageCells960,
        Workload::ServeMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mlp0_1k => "mlp0-1k",
            Workload::Mlp0_100 => "mlp0-100",
            Workload::Mlp0_100Observed => "mlp0-100-observed",
            Workload::Colocate100 => "colocate-100",
            Workload::OutageCells960 => "outage-cells-960",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The instruments every op of this workload carries.
    pub fn instruments(self) -> Instruments {
        match self {
            Workload::Mlp0_100Observed => Instruments {
                metrics: true,
                reqlog: true,
                monitor: true,
                profile: false,
            },
            _ => Instruments::OFF,
        }
    }

    /// Build the workload's inputs from `seed` (written into
    /// `FleetSpec::seed` / `ClusterSpec::seed`).
    pub fn inputs(self, seed: u64, size: Size) -> Inputs {
        match self {
            Workload::Mlp0_1k | Workload::Mlp0_100 | Workload::Mlp0_100Observed => {
                let hosts = match (self, size) {
                    (_, Size::Share) => 1,
                    (Workload::Mlp0_1k, Size::Full) => 1_000,
                    (Workload::Mlp0_1k, Size::Smoke) => 10,
                    (_, Size::Full) => 100,
                    (_, Size::Smoke) => 1,
                };
                let spec = FleetSpec::new(hosts, 2, seed)
                    .with_router(RouterPolicy::LeastOutstanding)
                    .with_hop(HopModel::Table5 { scale_ms: 1.0 });
                let tenants = fleet_tenants(hosts, REQUESTS_PER_HOST * hosts);
                Inputs::fleet_seeded(spec, tenants, seed)
            }
            Workload::Colocate100 => {
                let hosts = if size == Size::Full { 100 } else { 1 };
                let (spec, tenants) = colocate_fleet(hosts, COLOCATE_REQUESTS_PER_HOST * hosts);
                Inputs::fleet_seeded(spec, tenants, seed)
            }
            Workload::OutageCells960 => {
                let hosts = match size {
                    Size::Full => 960,
                    Size::Share => 8,
                    Size::Smoke => 16,
                };
                let (spec, tenants) = resilient_fleet(hosts, REQUESTS_PER_HOST * hosts);
                Inputs::fleet_seeded(spec, tenants, seed)
            }
            Workload::ServeMix => {
                let scale = if size == Size::Smoke {
                    SERVE_MIX_SCALE / 100.0
                } else {
                    SERVE_MIX_SCALE
                };
                let run = tpu_serve::scenario_by_name("mixed-tenants")
                    .expect("mixed-tenants is a built-in scenario")
                    .with_seed(seed)
                    .scale_requests(scale)
                    .runs
                    .remove(0);
                Inputs::Serve {
                    cluster: run.cluster,
                    tenants: run.tenants,
                }
            }
        }
    }
}

/// The built inputs of one workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// A fleet for `tpu_cluster::run_fleet_telemetry`.
    Fleet {
        /// Hosts, router, failures and policies.
        spec: Box<FleetSpec>,
        /// The tenants and their replica counts.
        tenants: Vec<FleetTenantSpec>,
    },
    /// One host for `tpu_serve::run_telemetry`.
    Serve {
        /// The die pool.
        cluster: ClusterSpec,
        /// The tenants sharing it.
        tenants: Vec<TenantSpec>,
    },
}

impl Inputs {
    fn fleet_seeded(mut spec: FleetSpec, tenants: Vec<FleetTenantSpec>, seed: u64) -> Self {
        spec.seed = seed;
        Inputs::Fleet {
            spec: Box::new(spec),
            tenants,
        }
    }

    /// The master seed the inputs were built with.
    pub fn seed(&self) -> u64 {
        match self {
            Inputs::Fleet { spec, .. } => spec.seed,
            Inputs::Serve { cluster, .. } => cluster.seed,
        }
    }

    /// Each tenant's spec, in declaration order.
    pub fn tenant_specs(&self) -> Vec<&TenantSpec> {
        match self {
            Inputs::Fleet { tenants, .. } => tenants.iter().map(|t| &t.tenant).collect(),
            Inputs::Serve { tenants, .. } => tenants.iter().collect(),
        }
    }

    /// Requests offered to the simulator, all tenants.
    pub fn offered(&self) -> usize {
        self.tenant_specs().iter().map(|t| t.requests).sum()
    }

    /// Dies plus tenant replicas (tenants on one host): the pending-set
    /// size the queue kernel holds, scaling as the engine's standing
    /// event population does.
    pub fn pending_set(&self) -> usize {
        match self {
            Inputs::Fleet { spec, tenants } => {
                spec.hosts.iter().map(|h| h.dies).sum::<usize>()
                    + tenants.iter().map(|t| t.replicas).sum::<usize>()
            }
            Inputs::Serve { cluster, tenants } => cluster.dies + tenants.len(),
        }
    }

    /// How many targets one request is routed among: the largest
    /// tenant's replica count, or a single host's dies.
    pub fn route_width(&self) -> usize {
        match self {
            Inputs::Fleet { tenants, .. } => tenants.iter().map(|t| t.replicas).max().unwrap_or(1),
            Inputs::Serve { cluster, .. } => cluster.dies,
        }
    }

    /// The set-up a run pays before its first event: the placement plan
    /// for a fleet, the tenants' calibrated service curves for one host.
    pub fn plan(&self, cfg: &TpuConfig) -> Option<PlacementPlan> {
        match self {
            Inputs::Fleet { spec, tenants } => Some(plan_placement(spec, tenants, cfg)),
            Inputs::Serve { tenants, .. } => {
                for t in tenants {
                    std::hint::black_box(t.effective_curve(cfg));
                }
                None
            }
        }
    }
}

/// Which instruments a simulation carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruments {
    /// The cadence metrics recorder.
    pub metrics: bool,
    /// The per-request record stream.
    pub reqlog: bool,
    /// The streaming health monitor.
    pub monitor: bool,
    /// The engine self-profile (event counts and wheel statistics).
    pub profile: bool,
}

impl Instruments {
    /// No instruments: the bare engine.
    pub const OFF: Instruments = Instruments {
        metrics: false,
        reqlog: false,
        monitor: false,
        profile: false,
    };

    fn telemetry(self) -> RunTelemetry {
        let mut tel = RunTelemetry::off();
        if self.metrics {
            tel.metrics = Some(MetricsRecorder::new(&MetricsConfig {
                interval_ms: OBSERVED_CADENCE_MS,
                ..MetricsConfig::default()
            }));
        }
        if self.reqlog {
            tel.requests = Some(RequestLog::new());
        }
        if self.monitor {
            tel.monitor = Some(Box::new(FleetMonitor::new(MonitorConfig::with_interval(
                OBSERVED_CADENCE_MS,
            ))));
        }
        if self.profile {
            tel.profile = Some(EngineProfile::new());
        }
        tel
    }
}

/// What one simulation returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A fleet run.
    Fleet(FleetRun),
    /// A single-host run.
    Serve(ServeReport),
}

impl Outcome {
    /// The report as JSON.
    pub fn report_json(&self) -> serde_json::Value {
        match self {
            Outcome::Fleet(run) => run.report.to_json(),
            Outcome::Serve(report) => report.to_json(),
        }
    }

    /// Events the engine processed.
    pub fn events(&self) -> u64 {
        match self {
            Outcome::Fleet(run) => run.report.events_processed,
            Outcome::Serve(report) => report.events_processed,
        }
    }

    /// Completion time of the last batch, sim-ms.
    pub fn makespan_ms(&self) -> f64 {
        match self {
            Outcome::Fleet(run) => run.report.makespan_ms,
            Outcome::Serve(report) => report.makespan_ms,
        }
    }

    /// Per tenant, in declaration order: `(name, served, dropped, shed)`.
    pub fn tenant_counts(&self) -> Vec<(String, usize, usize, usize)> {
        match self {
            Outcome::Fleet(run) => run
                .report
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.requests, t.dropped, t.shed))
                .collect(),
            Outcome::Serve(report) => report
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.requests, 0, 0))
                .collect(),
        }
    }
}

/// The instruments a simulation carried, after the run.
#[derive(Debug, Default)]
pub struct Observed {
    /// Cadence series.
    pub metrics: Option<MetricsRecorder>,
    /// Per-request records.
    pub reqlog: Option<RequestLog>,
    /// The health monitor.
    pub monitor: Option<FleetMonitor>,
    /// The engine self-profile.
    pub profile: Option<EngineProfile>,
}

/// Run one simulation of `inputs` with `instruments` attached.
pub fn simulate(inputs: &Inputs, cfg: &TpuConfig, instruments: Instruments) -> (Outcome, Observed) {
    let mut tel = instruments.telemetry();
    let outcome = match inputs {
        Inputs::Fleet { spec, tenants } => {
            Outcome::Fleet(run_fleet_telemetry(spec, tenants, cfg, &mut tel))
        }
        Inputs::Serve { cluster, tenants } => {
            Outcome::Serve(tpu_serve::run_telemetry(cluster, tenants, cfg, &mut tel))
        }
    };
    let monitor = tel.monitor.take().map(|m| {
        *m.into_any()
            .downcast::<FleetMonitor>()
            .expect("the only monitor attached is a FleetMonitor")
    });
    let observed = Observed {
        metrics: tel.metrics,
        reqlog: tel.requests,
        monitor,
        profile: tel.profile,
    };
    (outcome, observed)
}

/// Render the report as text and as JSON.
pub fn render_report(outcome: &Outcome) -> [String; 2] {
    let text = match outcome {
        Outcome::Fleet(run) => run.report.to_string(),
        Outcome::Serve(report) => report.to_string(),
    };
    [text, serde_json::to_string(&outcome.report_json())]
}

/// Render the telemetry artifacts: the metrics CSV and the request-log
/// JSON, each when its instrument ran.
pub fn render_telemetry(observed: &Observed) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(m) = &observed.metrics {
        out.push(m.to_csv());
    }
    if let Some(r) = &observed.reqlog {
        out.push(r.render());
    }
    out
}

/// Render the monitor's incident report, when the monitor ran.
pub fn render_incidents(observed: &Observed) -> Option<String> {
    observed.monitor.as_ref().map(|m| m.report().render())
}

/// The product of one op.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// The simulation result.
    pub outcome: Outcome,
    /// Every rendered document: report text, report JSON, then the
    /// telemetry and incident artifacts.
    pub rendered: Vec<String>,
}

/// One op: simulate `inputs` with the workload's instruments, then
/// render the report and every artifact. Spans record each layer call
/// when `spans` is on.
pub fn op(workload: Workload, inputs: &Inputs, cfg: &TpuConfig, spans: &mut Spans) -> OpOutput {
    let (outcome, observed) = spans.span("engine.run", "cluster::engine", |_| {
        simulate(inputs, cfg, workload.instruments())
    });
    let mut rendered = spans
        .span("report.render", "cluster::report", |_| {
            render_report(&outcome)
        })
        .to_vec();
    if observed.metrics.is_some() || observed.reqlog.is_some() {
        rendered.extend(spans.span("telemetry.render", "telemetry", |_| {
            render_telemetry(&observed)
        }));
    }
    if observed.monitor.is_some() {
        rendered.extend(spans.span("monitor.render", "monitor", |_| render_incidents(&observed)));
    }
    OpOutput { outcome, rendered }
}

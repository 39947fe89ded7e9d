//! The compact per-request record stream behind `--request-log`.
//!
//! Where the Chrome trace tells the story of a run span by span, the
//! request log is the analysis-ready form: one fixed-width record per
//! served request carrying tenant, placement (host/die), the three
//! timestamps (arrival, dispatch, completion), the weight-swap stall
//! charged to its batch, and how many times a failure made it retry.
//! `tpu_analyze` computes every attribution from this stream alone.
//!
//! Recording follows the [`crate::trace::HostProbe`] pattern: each
//! `HostCore` owns a [`RequestProbe`] that buffers records at batch
//! completion (one per arrival in the batch, in completion order), and
//! the run-level [`RequestLog`] absorbs the probes in host-index order
//! at end of run — so the record order, like everything else in the
//! simulators, is a pure function of the seed and same-seed runs render
//! bit-identical JSON.
//!
//! Component definitions (all in simulated milliseconds):
//!
//! * `queue = dispatch - arrived` — everything before the batch left,
//!   including network/PCIe hop, router parking, and crash-retry delay;
//! * `swap` — the weight-swap stall its batch paid at dispatch;
//! * `service = end - dispatch - swap` — time on the die.
//!
//! Rendering streams: [`RequestLog::render`] writes the sorted-key JSON
//! document once, into a buffer sized from the record count, with
//! `serde_json`'s [`write_number`] and [`write_string`] — the writer
//! `serde_json::to_string` uses for every `Value` tree — so the bytes
//! equal the tree rendering without one node per field. Records of one
//! batch share six of their eight fields, which are formatted once per
//! run of same-batch records.
//!
//! Retries are attributed at absorb time by joining the fleet engine's
//! [`RequestLog::note_retry`] calls against records on the exact
//! `(tenant, arrived_ms)` bits — retried requests keep their original
//! arrival timestamp, so per-tenant retry sums match the report
//! exactly; when several same-tenant requests share one arrival
//! timestamp the full count lands on the first absorbed record.

use serde_json::{write_number, write_string, Value};
use std::collections::BTreeMap;

/// Bytes one rendered record takes at most, in practice: three small
/// integers, three timestamps of up to 17 significant digits, a swap
/// stall, a retry count and the punctuation. Sizes the render buffer up
/// front, so a typical log (about 68 bytes a record at 100 hosts) never
/// regrows it; a larger one only costs a regrowth.
const RECORD_BYTES: usize = 72;

/// One served request, fully decomposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Index into the log's tenant table.
    pub tenant: usize,
    /// Host that served the request.
    pub host: u32,
    /// Die (within the host) that served it.
    pub die: u32,
    /// Arrival at the front end (original arrival for retried requests).
    pub arrived_ms: f64,
    /// When its batch was dispatched to the die.
    pub dispatch_ms: f64,
    /// Weight-swap stall its batch paid at dispatch.
    pub swap_ms: f64,
    /// Batch completion time.
    pub end_ms: f64,
    /// How many times a failure re-routed this request.
    pub retries: u32,
}

impl RequestRecord {
    /// Time from arrival to dispatch (hop + queue + retry delay).
    pub fn queue_ms(&self) -> f64 {
        self.dispatch_ms - self.arrived_ms
    }

    /// Time on the die after the swap stall.
    pub fn service_ms(&self) -> f64 {
        self.end_ms - self.dispatch_ms - self.swap_ms
    }

    /// End-to-end latency (what the report percentiles are over).
    pub fn latency_ms(&self) -> f64 {
        self.end_ms - self.arrived_ms
    }

    /// True when `a` and `b` came from one batch: every field but
    /// `arrived_ms` and `retries` matches to the bit.
    fn same_batch(a: &Self, b: &Self) -> bool {
        (a.tenant, a.host, a.die) == (b.tenant, b.host, b.die)
            && a.dispatch_ms.to_bits() == b.dispatch_ms.to_bits()
            && a.swap_ms.to_bits() == b.swap_ms.to_bits()
            && a.end_ms.to_bits() == b.end_ms.to_bits()
    }
}

/// Per-host request recorder, owned by a `HostCore` while a run is in
/// flight (mirrors [`crate::trace::HostProbe`] ownership).
#[derive(Debug)]
pub struct RequestProbe {
    host: u32,
    tenants: Vec<(String, f64)>,
    by_name: BTreeMap<String, usize>,
    records: Vec<RequestRecord>,
}

impl RequestProbe {
    /// A probe for host `host` with no records.
    pub fn new(host: u32) -> Self {
        Self {
            host,
            tenants: Vec::new(),
            by_name: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    /// Record one completed batch: one record per arrival timestamp,
    /// all sharing the batch's dispatch/swap/end times.
    #[allow(clippy::too_many_arguments)] // one argument per record field
    pub fn batch_complete(
        &mut self,
        die: usize,
        tenant: &str,
        slo_ms: f64,
        start_ms: f64,
        swap_ms: f64,
        end_ms: f64,
        arrivals: &[f64],
    ) {
        let idx = match self.by_name.get(tenant) {
            Some(&i) => i,
            None => {
                let i = self.tenants.len();
                self.tenants.push((tenant.to_string(), slo_ms));
                self.by_name.insert(tenant.to_string(), i);
                i
            }
        };
        for &arrived_ms in arrivals {
            self.records.push(RequestRecord {
                tenant: idx,
                host: self.host,
                die: die as u32,
                arrived_ms,
                dispatch_ms: start_ms,
                swap_ms,
                end_ms,
                retries: 0,
            });
        }
    }

    /// Records buffered so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no batch has completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The run-level request log: the merged record stream plus the tenant
/// table, renderable as a compact JSON artifact and parseable back.
#[derive(Debug, Default)]
pub struct RequestLog {
    tenants: Vec<(String, f64)>,
    by_name: BTreeMap<String, usize>,
    records: Vec<RequestRecord>,
    pending_retries: BTreeMap<(String, u64), u32>,
    /// Requests the retry policy abandoned, per tenant. They never
    /// complete, so they can't join a record — the log carries them as
    /// tallies instead.
    dropped: BTreeMap<String, u64>,
    /// Requests shed at admission by a brownout controller, per tenant.
    shed: BTreeMap<String, u64>,
}

impl RequestLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note that a failure re-routed a `tenant` request that originally
    /// arrived at `arrived_ms`; the count attaches to a matching record
    /// when a probe is absorbed.
    pub fn note_retry(&mut self, tenant: &str, arrived_ms: f64) {
        *self
            .pending_retries
            .entry((tenant.to_string(), arrived_ms.to_bits()))
            .or_insert(0) += 1;
    }

    /// Note that the retry policy abandoned a `tenant` request (its
    /// original arrival time is accepted for call-site symmetry but
    /// only the tally is kept — a dropped request has no record).
    pub fn note_drop(&mut self, tenant: &str, _arrived_ms: f64) {
        *self.dropped.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Note that a brownout controller shed a `tenant` admission.
    pub fn note_shed(&mut self, tenant: &str, _at_ms: f64) {
        *self.shed.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Requests the retry policy abandoned for `tenant`.
    pub fn dropped_for(&self, tenant: &str) -> u64 {
        self.dropped.get(tenant).copied().unwrap_or(0)
    }

    /// Admissions shed for `tenant`.
    pub fn shed_for(&self, tenant: &str) -> u64 {
        self.shed.get(tenant).copied().unwrap_or(0)
    }

    /// Merge a host probe's records (in its completion order), remapping
    /// tenant indices by name and attaching any noted retries.
    pub fn absorb(&mut self, probe: RequestProbe) {
        let remap: Vec<usize> = probe
            .tenants
            .iter()
            .map(|(name, slo_ms)| match self.by_name.get(name) {
                Some(&i) => i,
                None => {
                    let i = self.tenants.len();
                    self.tenants.push((name.clone(), *slo_ms));
                    self.by_name.insert(name.clone(), i);
                    i
                }
            })
            .collect();
        for mut r in probe.records {
            let name = &self.tenants[remap[r.tenant]].0;
            if !self.pending_retries.is_empty() {
                if let Some(n) = self
                    .pending_retries
                    .remove(&(name.clone(), r.arrived_ms.to_bits()))
                {
                    r.retries = n;
                }
            }
            r.tenant = remap[r.tenant];
            self.records.push(r);
        }
    }

    /// Number of tenants in the table.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Tenant `i`'s name.
    pub fn tenant_name(&self, i: usize) -> &str {
        &self.tenants[i].0
    }

    /// Tenant `i`'s SLO bound in milliseconds.
    pub fn tenant_slo_ms(&self, i: usize) -> f64 {
        self.tenants[i].1
    }

    /// Look a tenant index up by name.
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Every record, in absorb order (per-host completion order, hosts
    /// in index order).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Retries noted but never matched to a record (a completed run
    /// attributes every retry, so anything here signals a contract bug).
    pub fn unattributed_retries(&self) -> u64 {
        self.pending_retries.values().map(|&n| n as u64).sum()
    }

    /// The artifact text the CLIs write: compact JSON plus a trailing
    /// newline, `{format, lost?, records, tenants, version}` with keys
    /// sorted as a `Value` tree renders them:
    /// `tenants` is `[{name, slo_ms}]`, each record is `[tenant, host,
    /// die, arrived_ms, dispatch_ms, swap_ms, end_ms, retries]`, and
    /// the optional `lost` section is `[name, dropped, shed]` rows.
    /// Bit-identical across same-seed runs.
    ///
    /// The document is written once, straight into a buffer sized from
    /// the record count, through `serde_json`'s own number and string
    /// writers, so the bytes equal `serde_json::to_string` of the tree
    /// without building one. Records of one batch differ only in
    /// `arrived_ms` and `retries`, so the six fields they share are
    /// formatted once per run of same-batch records.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(
            128 + 32 * self.tenants.len() + RECORD_BYTES * self.records.len(),
        );
        out.push_str("{\"format\":\"tpu-request-log\"");
        // Dropped/shed tallies ride along only when a resilience run
        // produced any, so pre-existing artifacts stay byte-identical.
        if !self.dropped.is_empty() || !self.shed.is_empty() {
            let mut names: Vec<&String> = self.dropped.keys().chain(self.shed.keys()).collect();
            names.sort();
            names.dedup();
            out.push_str(",\"lost\":[");
            for (i, name) in names.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                write_string(&mut out, name);
                out.push(',');
                write_number(&mut out, self.dropped_for(name) as f64);
                out.push(',');
                write_number(&mut out, self.shed_for(name) as f64);
                out.push(']');
            }
            out.push(']');
        }
        out.push_str(",\"records\":[");
        // `[tenant,host,die,` and `,dispatch_ms,swap_ms,end_ms,` of the
        // current batch run.
        let (mut head, mut tail) = (String::new(), String::new());
        let mut sep = "";
        for run in self.records.chunk_by(RequestRecord::same_batch) {
            let r = &run[0];
            head.clear();
            head.push('[');
            for v in [r.tenant as f64, r.host as f64, r.die as f64] {
                write_number(&mut head, v);
                head.push(',');
            }
            tail.clear();
            for v in [r.dispatch_ms, r.swap_ms, r.end_ms] {
                tail.push(',');
                write_number(&mut tail, v);
            }
            tail.push(',');
            for r in run {
                out.push_str(sep);
                sep = ",";
                out.push_str(&head);
                write_number(&mut out, r.arrived_ms);
                out.push_str(&tail);
                write_number(&mut out, r.retries as f64);
                out.push(']');
            }
        }
        out.push_str("],\"tenants\":[");
        for (i, (name, slo_ms)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(&mut out, name);
            out.push_str(",\"slo_ms\":");
            write_number(&mut out, *slo_ms);
            out.push('}');
        }
        out.push_str("],\"version\":1}\n");
        out
    }

    /// True when `v` looks like a rendered request log.
    pub fn is_request_log_json(v: &Value) -> bool {
        matches!(field(v, "format"), Some(Value::String(f)) if f == "tpu-request-log")
    }

    /// Parse a rendered artifact back.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the text is not valid JSON
    /// or not a version-1 request log.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("request log: {e:?}"))?;
        Self::from_json(&v)
    }

    /// Build a log from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on a malformed document.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        if !Self::is_request_log_json(v) {
            return Err("request log: missing `\"format\": \"tpu-request-log\"`".to_string());
        }
        match field(v, "version") {
            Some(Value::Number(n)) if *n == 1.0 => {}
            other => return Err(format!("request log: unsupported version {other:?}")),
        }
        let mut log = RequestLog::new();
        let tenants = as_array(field(v, "tenants"), "tenants")?;
        for (i, t) in tenants.iter().enumerate() {
            let name = match field(t, "name") {
                Some(Value::String(s)) => s.clone(),
                _ => return Err(format!("request log: tenant {i} has no name")),
            };
            let slo_ms =
                num(field(t, "slo_ms")).ok_or(format!("request log: tenant {i} slo_ms"))?;
            log.by_name.insert(name.clone(), i);
            log.tenants.push((name, slo_ms));
        }
        let records = as_array(field(v, "records"), "records")?;
        for (i, rec) in records.iter().enumerate() {
            let row = match rec {
                Value::Array(row) if row.len() == 8 => row,
                _ => return Err(format!("request log: record {i} is not an 8-field row")),
            };
            let f = |j: usize| num(row.get(j)).ok_or(format!("request log: record {i} field {j}"));
            let tenant = f(0)? as usize;
            if tenant >= log.tenants.len() {
                return Err(format!(
                    "request log: record {i} tenant {tenant} out of range"
                ));
            }
            log.records.push(RequestRecord {
                tenant,
                host: f(1)? as u32,
                die: f(2)? as u32,
                arrived_ms: f(3)?,
                dispatch_ms: f(4)?,
                swap_ms: f(5)?,
                end_ms: f(6)?,
                retries: f(7)? as u32,
            });
        }
        // Optional: resilience runs carry `[name, dropped, shed]` rows.
        if let Some(Value::Array(lost)) = field(v, "lost") {
            for (i, row) in lost.iter().enumerate() {
                let row = match row {
                    Value::Array(row) if row.len() == 3 => row,
                    _ => return Err(format!("request log: lost row {i} is not a 3-field row")),
                };
                let name = match row.first() {
                    Some(Value::String(s)) => s.clone(),
                    _ => return Err(format!("request log: lost row {i} has no tenant name")),
                };
                let dropped =
                    num(row.get(1)).ok_or(format!("request log: lost row {i} dropped"))? as u64;
                let shed = num(row.get(2)).ok_or(format!("request log: lost row {i} shed"))? as u64;
                if dropped > 0 {
                    log.dropped.insert(name.clone(), dropped);
                }
                if shed > 0 {
                    log.shed.insert(name, shed);
                }
            }
        }
        Ok(log)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(map) => map.get(key),
        _ => None,
    }
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn as_array<'a>(v: Option<&'a Value>, key: &str) -> Result<&'a Vec<Value>, String> {
    match v {
        Some(Value::Array(a)) => Ok(a),
        _ => Err(format!("request log: `{key}` is not an array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `Value` tree `render` used to serialize, kept as the
    /// streamed writer's reference: the same document, one node per
    /// field.
    fn tree(log: &RequestLog) -> Value {
        let tenants = log
            .tenants
            .iter()
            .map(|(name, slo_ms)| {
                Value::object([
                    ("name".to_string(), Value::String(name.clone())),
                    ("slo_ms".to_string(), Value::Number(*slo_ms)),
                ])
            })
            .collect();
        let records = log
            .records
            .iter()
            .map(|r| {
                Value::Array(vec![
                    Value::Number(r.tenant as f64),
                    Value::Number(r.host as f64),
                    Value::Number(r.die as f64),
                    Value::Number(r.arrived_ms),
                    Value::Number(r.dispatch_ms),
                    Value::Number(r.swap_ms),
                    Value::Number(r.end_ms),
                    Value::Number(r.retries as f64),
                ])
            })
            .collect();
        let mut top = vec![
            (
                "format".to_string(),
                Value::String("tpu-request-log".to_string()),
            ),
            ("version".to_string(), Value::Number(1.0)),
            ("tenants".to_string(), Value::Array(tenants)),
            ("records".to_string(), Value::Array(records)),
        ];
        if !log.dropped.is_empty() || !log.shed.is_empty() {
            let mut names: Vec<&String> = log.dropped.keys().chain(log.shed.keys()).collect();
            names.sort();
            names.dedup();
            let lost = names
                .into_iter()
                .map(|n| {
                    Value::Array(vec![
                        Value::String(n.clone()),
                        Value::Number(log.dropped_for(n) as f64),
                        Value::Number(log.shed_for(n) as f64),
                    ])
                })
                .collect();
            top.push(("lost".to_string(), Value::Array(lost)));
        }
        Value::object(top)
    }

    fn tree_render(log: &RequestLog) -> String {
        serde_json::to_string(&tree(log)) + "\n"
    }

    /// (tenant, slo, start, swap, end, arrivals) per batch.
    type BatchSpec<'a> = (&'a str, f64, f64, f64, f64, &'a [f64]);

    fn probe_with(host: u32, batches: &[BatchSpec]) -> RequestProbe {
        let mut p = RequestProbe::new(host);
        for &(tenant, slo, start, swap, end, arrivals) in batches {
            p.batch_complete(0, tenant, slo, start, swap, end, arrivals);
        }
        p
    }

    #[test]
    fn absorb_merges_tenant_tables_by_name() {
        let mut log = RequestLog::new();
        log.absorb(probe_with(
            0,
            &[
                ("MLP0", 7.0, 1.0, 0.0, 2.0, &[0.5]),
                ("LSTM0", 10.0, 3.0, 0.5, 5.0, &[2.0]),
            ],
        ));
        log.absorb(probe_with(
            1,
            &[("LSTM0", 10.0, 4.0, 0.0, 6.0, &[3.0, 3.5])],
        ));
        assert_eq!(log.tenant_count(), 2);
        assert_eq!(log.tenant_index("LSTM0"), Some(1));
        assert_eq!(log.tenant_slo_ms(1), 10.0);
        assert_eq!(log.len(), 4);
        // Host 1's LSTM0 records were remapped onto the merged index.
        assert!(log.records()[2..]
            .iter()
            .all(|r| r.tenant == 1 && r.host == 1));
    }

    #[test]
    fn retries_join_on_exact_arrival_bits() {
        let mut log = RequestLog::new();
        log.note_retry("MLP0", 0.5);
        log.note_retry("MLP0", 0.5);
        log.note_retry("MLP0", 99.0); // never completes
        log.absorb(probe_with(0, &[("MLP0", 7.0, 1.0, 0.0, 2.0, &[0.5, 0.75])]));
        assert_eq!(log.records()[0].retries, 2);
        assert_eq!(log.records()[1].retries, 0);
        assert_eq!(log.unattributed_retries(), 1);
    }

    #[test]
    fn components_decompose_the_latency() {
        let r = RequestRecord {
            tenant: 0,
            host: 0,
            die: 3,
            arrived_ms: 1.0,
            dispatch_ms: 4.0,
            swap_ms: 2.0,
            end_ms: 10.0,
            retries: 0,
        };
        assert_eq!(r.queue_ms(), 3.0);
        assert_eq!(r.service_ms(), 4.0);
        assert_eq!(r.latency_ms(), 9.0);
        assert_eq!(r.queue_ms() + r.swap_ms + r.service_ms(), r.latency_ms());
    }

    #[test]
    fn render_round_trips_and_is_deterministic() {
        let build = || {
            let mut log = RequestLog::new();
            log.note_retry("B", 2.25);
            log.absorb(probe_with(
                0,
                &[
                    ("A", 7.0, 1.0, 0.0, 2.0, &[0.5]),
                    ("B", 10.0, 3.0, 0.5, 5.0, &[2.25]),
                ],
            ));
            log
        };
        let text = build().render();
        assert_eq!(text, build().render(), "render must be deterministic");
        assert!(text.ends_with('\n'));
        let parsed = RequestLog::parse(&text).expect("round trip");
        assert_eq!(parsed.records(), build().records());
        assert_eq!(parsed.tenant_count(), 2);
        assert_eq!(parsed.records()[1].retries, 1);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn losses_round_trip_through_render() {
        let mut log = RequestLog::new();
        log.absorb(probe_with(0, &[("A", 7.0, 1.0, 0.0, 2.0, &[0.5])]));
        log.note_drop("A", 0.75);
        log.note_drop("A", 0.8);
        log.note_shed("B", 1.5);
        assert_eq!(log.dropped_for("A"), 2);
        assert_eq!(log.shed_for("A"), 0);
        assert_eq!(log.shed_for("B"), 1);
        let parsed = RequestLog::parse(&log.render()).expect("round trip");
        assert_eq!(parsed.dropped_for("A"), 2);
        assert_eq!(parsed.shed_for("B"), 1);
        assert_eq!(parsed.render(), log.render());
        // Loss-free logs must not grow a `lost` section.
        let mut clean = RequestLog::new();
        clean.absorb(probe_with(0, &[("A", 7.0, 1.0, 0.0, 2.0, &[0.5])]));
        assert!(!clean.render().contains("lost"));
    }

    /// A log with every section: several hosts and batches, a retry, a
    /// tenant name that needs escaping, and drop/shed tallies.
    fn sample_log() -> RequestLog {
        let mut log = RequestLog::new();
        log.note_retry("B", 2.25);
        log.absorb(probe_with(
            0,
            &[
                ("A", 7.0, 1.0, 0.0, 2.0, &[0.5, 0.625, 0.75]),
                ("B", 10.0, 3.0, 0.5, 5.0, &[2.25]),
            ],
        ));
        log.absorb(probe_with(
            3,
            &[("q\"uo\\te\n", 2.5e-3, 4.1, 0.0, 6.3, &[3.0, -0.0])],
        ));
        log.note_drop("A", 0.8);
        log.note_shed("C", 1.5);
        log
    }

    #[test]
    fn render_equals_the_tree_reference() {
        assert_eq!(RequestLog::new().render(), tree_render(&RequestLog::new()));
        let log = sample_log();
        assert_eq!(log.render(), tree_render(&log));
        assert!(log
            .render()
            .contains(",\"lost\":[[\"A\",1,0],[\"C\",0,1]],"));
    }

    /// One byte-level mutation of `text`: truncate it (`kind` 0), flip
    /// one byte (1), or copy a short run of it to another offset (2).
    /// Invalid UTF-8 is repaired lossily, since the parsers take `&str`.
    fn mutate(text: &str, kind: u8, at: usize, from: usize, len: usize, flip: u8) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let n = bytes.len();
        match kind {
            0 => bytes.truncate(at % (n + 1)),
            1 => bytes[at % n] ^= flip,
            _ => {
                let start = from % n;
                let run = bytes[start..(start + len % 24).min(n)].to_vec();
                let at = at % (n + 1);
                bytes.splice(at..at, run);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// (tenant name, host, die, dispatch, swap, end, arrivals) per batch.
    type RandomBatch = (usize, u32, usize, f64, u64, f64, Vec<f64>);

    fn random_batch() -> impl Strategy<Value = RandomBatch> {
        (
            0usize..4,
            0u32..3,
            0usize..4,
            -1e3f64..1e6,
            any::<u64>(),
            prop_oneof![Just(7.0f64), Just(-0.0), 0.0f64..1e4],
            prop::collection::vec(
                prop_oneof![0.0f64..1e6, (0u32..1000).prop_map(f64::from)],
                1..6,
            ),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streamed_render_equals_the_tree(
            batches in prop::collection::vec(random_batch(), 0..12),
            retries in prop::collection::vec((0usize..4, 0usize..12), 0..4),
            losses in prop::collection::vec((0usize..4, any::<bool>()), 0..4),
        ) {
            const NAMES: [&str; 4] = ["MLP0", "LSTM\"1", "CNN\\0\t", "π"];
            let mut probes: Vec<RequestProbe> = (0..3).map(RequestProbe::new).collect();
            let mut arrivals = Vec::new();
            for (t, host, die, start, swap_bits, end, arr) in &batches {
                // Any finite swap bit pattern, subnormals included.
                let swap = f64::from_bits(*swap_bits);
                let swap = if swap.is_finite() { swap } else { 0.5 };
                probes[*host as usize].batch_complete(*die, NAMES[*t], 7.0, *start, swap, *end, arr);
                arrivals.extend(arr.iter().map(|&a| (*t, a)));
            }
            let mut log = RequestLog::new();
            for &(t, i) in &retries {
                if let Some(&(_, a)) = arrivals.get(i) {
                    log.note_retry(NAMES[t], a);
                }
                log.note_retry(NAMES[t], -1.0);
            }
            for &(t, shed) in &losses {
                if shed {
                    log.note_shed(NAMES[t], 0.0);
                } else {
                    log.note_drop(NAMES[t], 0.0);
                }
            }
            for p in probes {
                log.absorb(p);
            }
            prop_assert_eq!(log.render(), tree_render(&log));
        }

        #[test]
        fn mutated_logs_parse_to_err_or_a_fixed_point(
            kind in 0u8..3,
            at in any::<usize>(),
            from in any::<usize>(),
            len in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let text = mutate(&sample_log().render(), kind, at, from, len, flip);
            if let Ok(log) = RequestLog::parse(&text) {
                let once = log.render();
                let again = RequestLog::parse(&once).expect("a rendered log parses back");
                prop_assert_eq!(again.render(), once, "from {:?}", text);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(RequestLog::parse("not json").is_err());
        assert!(RequestLog::parse("{\"format\":\"other\"}").is_err());
        assert!(RequestLog::parse("{\"format\":\"tpu-request-log\",\"version\":2}").is_err());
        let bad_row = r#"{"format":"tpu-request-log","version":1,"tenants":[],"records":[[1,2]]}"#;
        assert!(RequestLog::parse(bad_row).is_err());
        let bad_tenant = r#"{"format":"tpu-request-log","version":1,"tenants":[],"records":[[0,0,0,0,0,0,0,0]]}"#;
        assert!(RequestLog::parse(bad_tenant).is_err());
    }
}

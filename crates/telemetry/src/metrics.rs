//! Time-series probes on a seeded cadence.
//!
//! The engines sample *opportunistically*: when an event pops at or
//! past the next cadence point, state is recorded at that cadence
//! timestamp. No sampling events are ever scheduled, so switching
//! metrics on cannot perturb event order, RNG draws, or the
//! `events_processed` count — the report stays bit-identical.
//!
//! Each series is a bounded ring: once `ring_cap` points are held the
//! oldest falls off and a drop counter increments, so long runs stay
//! bounded while the export records exactly what was kept.
//!
//! Besides gauges, the recorder holds [`LatencySketch`]es: engines call
//! [`MetricsRecorder::observe`] per committed latency, and each cadence
//! advance flushes the interval's sketch into `{series}.p50` /
//! `{series}.p99` points — per-interval percentiles over time at
//! 10k-host scale without storing any sample. A cumulative whole-run
//! sketch per series stays queryable via [`MetricsRecorder::sketch`].

use crate::stats::LatencySketch;
use serde_json::{write_f64, Value};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Sampling cadence and ring capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsConfig {
    /// Milliseconds of simulated time between samples.
    pub interval_ms: f64,
    /// Maximum points retained per series (oldest dropped beyond).
    pub ring_cap: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            interval_ms: 1.0,
            ring_cap: 4096,
        }
    }
}

/// One sample: `(simulated time, value)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Sample timestamp in simulated milliseconds.
    pub t_ms: f64,
    /// Sampled value.
    pub value: f64,
}

#[derive(Debug, Default)]
struct SeriesBuf {
    points: VecDeque<Point>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct SketchBuf {
    interval: LatencySketch,
    cumulative: LatencySketch,
}

/// Ring-buffered, named time series sampled on a fixed cadence.
#[derive(Debug)]
pub struct MetricsRecorder {
    interval_ms: f64,
    ring_cap: usize,
    next_ms: f64,
    series: BTreeMap<String, SeriesBuf>,
    sketches: BTreeMap<String, SketchBuf>,
}

impl MetricsRecorder {
    /// A recorder with no samples; the first cadence point is t=0.
    pub fn new(cfg: &MetricsConfig) -> Self {
        Self {
            interval_ms: cfg.interval_ms.max(1e-6),
            ring_cap: cfg.ring_cap.max(1),
            next_ms: 0.0,
            series: BTreeMap::new(),
            sketches: BTreeMap::new(),
        }
    }

    /// The sampling cadence in simulated milliseconds.
    pub fn interval_ms(&self) -> f64 {
        self.interval_ms
    }

    /// True when simulated time has reached the next cadence point, so
    /// the engine should take a sample. This is the only telemetry
    /// check on the hot path.
    #[inline]
    pub fn due(&self, now_ms: f64) -> bool {
        now_ms >= self.next_ms
    }

    /// Advance past `now_ms` and return the cadence timestamp to
    /// record this sample at (the last cadence point ≤ `now_ms`, so
    /// sparse event stretches collapse to one sample instead of a
    /// backlog).
    pub fn advance(&mut self, now_ms: f64) -> f64 {
        let k = ((now_ms - self.next_ms) / self.interval_ms).floor();
        let t = self.next_ms + k * self.interval_ms;
        self.next_ms = t + self.interval_ms;
        // Every observation so far happened at an event time before the
        // previous `next_ms`, hence at or before `t` — stamping the
        // interval percentiles at `t` never time-travels.
        self.flush_sketches(t);
        t
    }

    /// Feed one latency sample into `series`' interval and cumulative
    /// sketches (created on first use). Percentile points materialize at
    /// the next cadence advance.
    pub fn observe(&mut self, series: &str, value_ms: f64) {
        // Engines call this once per request: look the series up first
        // and allocate its name only on first sight.
        let buf = match self.sketches.get_mut(series) {
            Some(buf) => buf,
            None => self.sketches.entry(series.to_string()).or_default(),
        };
        buf.interval.observe(value_ms);
        buf.cumulative.observe(value_ms);
    }

    /// The whole-run cumulative sketch of `series`, if any sample was
    /// observed.
    pub fn sketch(&self, series: &str) -> Option<&LatencySketch> {
        self.sketches.get(series).map(|b| &b.cumulative)
    }

    /// Flush every non-empty interval sketch into `{series}.p50` /
    /// `{series}.p99` points stamped at `t_ms`, then reset the interval
    /// sketches. Called by `advance` on each cadence point; engines call
    /// it once more at end of run so the final partial interval is not
    /// lost.
    pub fn flush_sketches(&mut self, t_ms: f64) {
        let flushed: Vec<(String, f64, f64)> = self
            .sketches
            .iter_mut()
            .filter(|(_, b)| !b.interval.is_empty())
            .map(|(name, b)| {
                let p50 = b.interval.percentile(0.5);
                let p99 = b.interval.percentile(0.99);
                b.interval.reset();
                (name.clone(), p50, p99)
            })
            .collect();
        for (name, p50, p99) in flushed {
            self.record(&format!("{name}.p50"), t_ms, p50);
            self.record(&format!("{name}.p99"), t_ms, p99);
        }
    }

    /// Append a point to `series` (created on first use).
    pub fn record(&mut self, series: &str, t_ms: f64, value: f64) {
        let buf = match self.series.get_mut(series) {
            Some(buf) => buf,
            None => self.series.entry(series.to_string()).or_default(),
        };
        if buf.points.len() == self.ring_cap {
            buf.points.pop_front();
            buf.dropped += 1;
        }
        buf.points.push_back(Point { t_ms, value });
    }

    /// Series names, sorted.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The retained points of `series`, oldest first.
    pub fn points(&self, series: &str) -> Vec<Point> {
        self.series
            .get(series)
            .map(|b| b.points.iter().copied().collect())
            .unwrap_or_default()
    }

    /// How many points `series` has dropped to the ring bound.
    pub fn dropped(&self, series: &str) -> u64 {
        self.series.get(series).map(|b| b.dropped).unwrap_or(0)
    }

    /// Every series that hit the ring bound, with its dropped-point
    /// count, in name order — what `--engine-stats` surfaces so a
    /// truncated artifact is never mistaken for a complete one.
    pub fn dropped_series(&self) -> Vec<(&str, u64)> {
        self.series
            .iter()
            .filter(|(_, b)| b.dropped > 0)
            .map(|(n, b)| (n.as_str(), b.dropped))
            .collect()
    }

    /// Export every series in long format: `t_ms,series,value` with a
    /// header row, series in name order, points oldest first. Numbers
    /// print exactly as `{}` prints them (`-0` included), through
    /// `serde_json`'s number writer rather than `core::fmt`.
    pub fn to_csv(&self) -> String {
        const HEADER: &str = "t_ms,series,value\n";
        // A line is the series name plus two short numbers (a cadence
        // stamp and, mostly, a count or a short fraction), two commas
        // and a newline; longer numbers cost at worst one regrowth.
        let bytes: usize = self
            .series
            .iter()
            .map(|(name, buf)| buf.points.len() * (name.len() + 16))
            .sum();
        let mut out = String::with_capacity(HEADER.len() + bytes);
        out.push_str(HEADER);
        for (name, buf) in &self.series {
            for p in &buf.points {
                write_f64(&mut out, p.t_ms);
                out.push(',');
                out.push_str(name);
                out.push(',');
                write_f64(&mut out, p.value);
                out.push('\n');
            }
        }
        out
    }

    /// Export as a JSON document:
    /// `{interval_ms, series: {name: {dropped, points: [[t, v], …]}}}`.
    pub fn to_json(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|(name, buf)| {
                let points = buf
                    .points
                    .iter()
                    .map(|p| Value::Array(vec![Value::Number(p.t_ms), Value::Number(p.value)]))
                    .collect();
                (
                    name.clone(),
                    Value::object([
                        ("dropped".to_string(), Value::Number(buf.dropped as f64)),
                        ("points".to_string(), Value::Array(points)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Value::object([
            ("interval_ms".to_string(), Value::Number(self.interval_ms)),
            ("series".to_string(), Value::object(series)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_skips_to_last_point_before_now() {
        let mut m = MetricsRecorder::new(&MetricsConfig {
            interval_ms: 2.0,
            ring_cap: 16,
        });
        assert!(m.due(0.0));
        assert_eq!(m.advance(0.0), 0.0);
        assert!(!m.due(1.9));
        assert!(m.due(2.0));
        // A sparse stretch: one sample at the last elapsed point.
        assert_eq!(m.advance(9.1), 8.0);
        assert!(!m.due(9.9));
        assert!(m.due(10.0));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut m = MetricsRecorder::new(&MetricsConfig {
            interval_ms: 1.0,
            ring_cap: 3,
        });
        for i in 0..5 {
            m.record("q", i as f64, i as f64 * 10.0);
        }
        let pts = m.points("q");
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].t_ms, 2.0);
        assert_eq!(m.dropped("q"), 2);
        assert_eq!(m.dropped("absent"), 0);
    }

    #[test]
    fn exports_are_deterministic_and_json_parses() {
        let build = || {
            let mut m = MetricsRecorder::new(&MetricsConfig::default());
            m.record("util/die0", 0.0, 0.25);
            m.record("queued/MLP0", 0.0, 3.0);
            m.record("util/die0", 1.0, 0.5);
            (m.to_csv(), serde_json::to_string(&m.to_json()))
        };
        let (csv, json) = build();
        assert_eq!((csv.clone(), json.clone()), build());
        assert!(csv.starts_with("t_ms,series,value\n"));
        assert_eq!(csv.lines().count(), 4);
        serde_json::from_str(&json).expect("metrics JSON parses");
    }

    #[test]
    fn observed_latencies_flush_percentile_points_per_interval() {
        let mut m = MetricsRecorder::new(&MetricsConfig {
            interval_ms: 10.0,
            ring_cap: 64,
        });
        assert_eq!(m.advance(0.0), 0.0);
        for i in 1..=100 {
            m.observe("latency/MLP0", i as f64 * 0.01);
        }
        // Nothing materializes until the next cadence point.
        assert!(m.points("latency/MLP0.p99").is_empty());
        assert_eq!(m.advance(10.0), 10.0);
        let p99 = m.points("latency/MLP0.p99");
        let p50 = m.points("latency/MLP0.p50");
        assert_eq!((p99.len(), p50.len()), (1, 1));
        assert_eq!(p99[0].t_ms, 10.0);
        assert!(p99[0].value >= 0.99 && p99[0].value <= 1.01 + 1e-3);
        assert!(p50[0].value < p99[0].value);
        // The interval sketch reset; the cumulative one kept everything.
        m.observe("latency/MLP0", 50.0);
        m.flush_sketches(15.0);
        let p99 = m.points("latency/MLP0.p99");
        assert_eq!(p99.len(), 2);
        assert!(p99[1].value >= 50.0, "second interval stands alone");
        assert_eq!(m.sketch("latency/MLP0").map(|s| s.count()), Some(101));
        assert!(m.sketch("absent").is_none());
    }
}

//! Engine self-profiling: what the event core itself did during a run.
//!
//! [`WheelProfile`] is filled from the hierarchical timer wheel's
//! internal counters (kept in its cold paths — drains, splits and
//! spills — so they cost nothing on the hot path);
//! [`EngineProfile`] adds per-event-type counts tallied by the engine
//! loops. Both surface through `--engine-stats`.

use serde_json::Value;

/// Timer-wheel occupancy and churn statistics for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WheelProfile {
    /// Slots per level (the wheel radix).
    pub slots_per_level: usize,
    /// Times `advance` drained a slot from each level (index = level;
    /// level 0 is the finest).
    pub drains_per_level: Vec<u64>,
    /// Occupied-slot count per level at the moment of capture.
    pub occupied_slots: Vec<u32>,
    /// Histogram of bottom-rung length at each drain, in power-of-two
    /// buckets: index `i` counts drains with `2^i ≤ len < 2^(i+1)`
    /// (index 0 also counts empty rungs).
    pub rung_hist: Vec<u64>,
    /// Longest bottom rung ever sorted.
    pub max_rung: usize,
    /// Times `advance` ran (the rung went dry). Each ends in one drain;
    /// like `drains_per_level`, `rung_hist` and `max_rung`, it never
    /// counts a split.
    pub advances: u64,
    /// Oversized buckets handed down to the wheel's finer levels
    /// instead of sorted whole: a slot above level 0 holding more than
    /// `RUNG_SPILL_THRESHOLD` entries when `advance` reaches it, or a
    /// bottom rung that inserts grew past twice that.
    pub splits: u64,
    /// Times a push landed past the rung bound because the rung hit
    /// `RUNG_SPILL_THRESHOLD` (the PR 5 spill path).
    pub spills: u64,
    /// Events still queued at capture.
    pub pending: usize,
}

/// Per-run engine statistics: event-type counts plus the wheel profile
/// (absent only for a queue built on the reference `BinaryHeap`
/// backend, which no engine uses).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    /// `(event type, count)` in engine-defined order.
    pub event_counts: Vec<(String, u64)>,
    /// Timer-wheel statistics, when the wheel backend ran.
    pub wheel: Option<WheelProfile>,
}

impl EngineProfile {
    /// An empty profile for the engine to fill.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events across all types.
    pub fn total_events(&self) -> u64 {
        self.event_counts.iter().map(|(_, n)| n).sum()
    }

    /// Render as indented stderr lines for `--engine-stats` (no
    /// trailing newline; empty sections are omitted).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.event_counts.is_empty() {
            let counts = self
                .event_counts
                .iter()
                .map(|(name, n)| format!("{name}={n}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push(format!("  events: {counts}"));
        }
        if let Some(w) = &self.wheel {
            out.push(format!(
                "  wheel: advances={} splits={} spills={} max-rung={} pending={}",
                w.advances, w.splits, w.spills, w.max_rung, w.pending
            ));
            let drains = join_indexed(&w.drains_per_level, |l, n| format!("L{l}={n}"));
            if !drains.is_empty() {
                out.push(format!("  wheel drains/level: {drains}"));
            }
            let occ = join_indexed(&w.occupied_slots, |l, n| format!("L{l}={n}"));
            if !occ.is_empty() {
                out.push(format!(
                    "  wheel occupied-slots (of {}): {occ}",
                    w.slots_per_level
                ));
            }
            let hist = join_indexed(&w.rung_hist, |i, n| {
                format!("[{},{})={n}", 1u64 << i, 1u64 << (i + 1))
            });
            if !hist.is_empty() {
                out.push(format!("  rung-length hist: {hist}"));
            }
        }
        out
    }

    /// Export as a JSON object mirroring [`Self::lines`].
    pub fn to_json(&self) -> Value {
        let mut fields = vec![(
            "event_counts".to_string(),
            Value::object(
                self.event_counts
                    .iter()
                    .map(|(name, n)| (name.clone(), Value::Number(*n as f64))),
            ),
        )];
        if let Some(w) = &self.wheel {
            fields.push((
                "wheel".to_string(),
                Value::object([
                    (
                        "slots_per_level".to_string(),
                        Value::Number(w.slots_per_level as f64),
                    ),
                    (
                        "drains_per_level".to_string(),
                        Value::Array(
                            w.drains_per_level
                                .iter()
                                .map(|&n| Value::Number(n as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "occupied_slots".to_string(),
                        Value::Array(
                            w.occupied_slots
                                .iter()
                                .map(|&n| Value::Number(n as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "rung_hist".to_string(),
                        Value::Array(
                            w.rung_hist
                                .iter()
                                .map(|&n| Value::Number(n as f64))
                                .collect(),
                        ),
                    ),
                    ("max_rung".to_string(), Value::Number(w.max_rung as f64)),
                    ("advances".to_string(), Value::Number(w.advances as f64)),
                    ("splits".to_string(), Value::Number(w.splits as f64)),
                    ("spills".to_string(), Value::Number(w.spills as f64)),
                    ("pending".to_string(), Value::Number(w.pending as f64)),
                ]),
            ));
        }
        Value::object(fields)
    }
}

/// `f(index, value)` over nonzero entries, space-joined; `""` if all
/// zero.
fn join_indexed<T: Copy + Into<u64>>(values: &[T], f: impl Fn(usize, u64) -> String) -> String {
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v.into() != 0)
        .map(|(i, &v)| f(i, v.into()))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineProfile {
        EngineProfile {
            event_counts: vec![("arrival".to_string(), 10), ("die-free".to_string(), 4)],
            wheel: Some(WheelProfile {
                slots_per_level: 64,
                drains_per_level: vec![5, 2, 0],
                occupied_slots: vec![1, 0, 0],
                rung_hist: vec![3, 4, 0, 1],
                max_rung: 9,
                advances: 7,
                splits: 3,
                spills: 2,
                pending: 0,
            }),
        }
    }

    #[test]
    fn lines_cover_every_section() {
        let p = sample();
        assert_eq!(p.total_events(), 14);
        let text = p.lines().join("\n");
        assert!(text.contains("events: arrival=10 die-free=4"));
        assert!(text.contains("wheel: advances=7 splits=3 spills=2 max-rung=9 pending=0"));
        assert!(text.contains("drains/level: L0=5 L1=2"));
        assert!(text.contains("occupied-slots (of 64): L0=1"));
        assert!(text.contains("rung-length hist: [1,2)=3 [2,4)=4 [8,16)=1"));
    }

    #[test]
    fn heap_runs_render_without_a_wheel_section() {
        let p = EngineProfile {
            event_counts: vec![("timer".to_string(), 1)],
            wheel: None,
        };
        let text = p.lines().join("\n");
        assert!(text.contains("events: timer=1"));
        assert!(!text.contains("wheel:"));
    }

    #[test]
    fn json_parses_and_is_deterministic() {
        let p = sample();
        let text = serde_json::to_string(&p.to_json());
        assert_eq!(text, serde_json::to_string(&sample().to_json()));
        serde_json::from_str(&text).expect("profile JSON parses");
    }
}

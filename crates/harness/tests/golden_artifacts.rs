//! Artifact bytes pinned against snapshots written by the CLIs before
//! the request log was streamed and `serde_json`'s writer was shared.
//!
//! Every case runs a CLI with telemetry flags into a fresh directory and
//! compares each file it writes, byte for byte, with the snapshot of the
//! same name under `tests/golden_artifacts/` at the repository root.
//! Together the cases cover both JSON writers: the compact request log
//! (fleet, with a `lost` section, and serve-side) and Chrome trace, and
//! the pretty metrics and incidents documents, plus the metrics CSV. A
//! file over 256 KB is pinned by the FNV-1a digest of its bytes instead,
//! as `bench_fleet`'s report check does.
//!
//! The snapshots are not regenerable by a flag. If a change means to
//! alter an artifact, regenerate the affected files with the commands
//! in [`CASES`] and say so in the change.

use std::path::PathBuf;
use std::process::Command;

/// How one written file is pinned.
enum Pin {
    /// Byte-for-byte against the snapshot of the same name.
    Snapshot,
    /// By the FNV-1a digest of its bytes.
    Digest(u64),
}

/// One CLI run and every file it writes.
struct Case {
    /// `tpu_cluster` or `tpu_serve`.
    bin: &'static str,
    args: &'static [&'static str],
    /// Artifact flags, each with the file name passed to it.
    outputs: &'static [(&'static str, &'static str)],
    /// The files the run writes (one per run label for multi-run
    /// scenarios), each with its pin.
    writes: &'static [(&'static str, Pin)],
}

const CASES: &[Case] = &[
    Case {
        bin: "tpu_cluster",
        args: &["run", "retry-storm", "--requests-scale", "0.01"],
        outputs: &[("--request-log", "cluster_retry-storm.requests.json")],
        writes: &[
            (
                "cluster_retry-storm.requests.blind.json",
                Pin::Digest(0xfaf3_065b_b5c2_e71d),
            ),
            ("cluster_retry-storm.requests.resilient.json", Pin::Snapshot),
        ],
    },
    Case {
        bin: "tpu_serve",
        args: &["run", "mlp0-burst", "--requests-scale", "0.01"],
        outputs: &[
            ("--request-log", "serve_mlp0-burst.requests.json"),
            ("--metrics-out", "serve_mlp0-burst.metrics.json"),
        ],
        writes: &[
            ("serve_mlp0-burst.requests.steady.json", Pin::Snapshot),
            ("serve_mlp0-burst.requests.burst-4x.json", Pin::Snapshot),
            ("serve_mlp0-burst.metrics.steady.json", Pin::Snapshot),
            ("serve_mlp0-burst.metrics.burst-4x.json", Pin::Snapshot),
        ],
    },
    Case {
        bin: "tpu_cluster",
        args: &["run", "colocate-interference", "--requests-scale", "0.02"],
        outputs: &[("--metrics-out", "cluster_colocate-interference.metrics.csv")],
        writes: &[
            (
                "cluster_colocate-interference.metrics.least-outstanding.csv",
                Pin::Snapshot,
            ),
            (
                "cluster_colocate-interference.metrics.swap-aware.csv",
                Pin::Snapshot,
            ),
        ],
    },
    Case {
        bin: "tpu_cluster",
        args: &["monitor", "rack-outage", "--requests-scale", "0.1"],
        outputs: &[("--incidents-out", "cluster_rack-outage.incidents.json")],
        writes: &[("cluster_rack-outage.incidents.json", Pin::Snapshot)],
    },
    Case {
        bin: "tpu_cluster",
        args: &["run", "host-failover", "--requests-scale", "0.01"],
        outputs: &[("--chrome-trace", "cluster_host-failover.trace.json")],
        writes: &[(
            "cluster_host-failover.trace.json",
            Pin::Digest(0xe002_9421_d6f5_1dbf),
        )],
    },
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_artifacts")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `case` in a fresh directory and check every file it writes.
fn check(case: &Case) {
    let bin = match case.bin {
        "tpu_cluster" => env!("CARGO_BIN_EXE_tpu_cluster"),
        "tpu_serve" => env!("CARGO_BIN_EXE_tpu_serve"),
        other => panic!("no binary {other}"),
    };
    let dir = std::env::temp_dir().join(format!(
        "golden_artifacts_{}_{}",
        std::process::id(),
        case.outputs[0].1
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cmd = Command::new(bin);
    cmd.args(case.args).current_dir(&dir);
    for (flag, file) in case.outputs {
        cmd.arg(flag).arg(file);
    }
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{} {:?} failed: {}",
        case.bin,
        case.args,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    written.sort();
    let mut expected: Vec<String> = case.writes.iter().map(|(n, _)| n.to_string()).collect();
    expected.sort();
    assert_eq!(
        written, expected,
        "{} {:?} wrote other files",
        case.bin, case.args
    );
    for (name, pin) in case.writes {
        let got = std::fs::read(dir.join(name)).expect("written file");
        match pin {
            Pin::Snapshot => {
                let path = golden_dir().join(name);
                let want =
                    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"));
                assert!(
                    got == want,
                    "{name} drifted from its snapshot ({} bytes, want {})",
                    got.len(),
                    want.len()
                );
            }
            Pin::Digest(want) => {
                let got = fnv1a(&got);
                assert_eq!(
                    got, *want,
                    "{name} digest {got:#018x} != pinned {want:#018x}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
}

#[test]
fn fleet_request_logs_match_their_snapshots() {
    check(&CASES[0]);
}

#[test]
fn serve_request_logs_and_metrics_json_match_their_snapshots() {
    check(&CASES[1]);
}

#[test]
fn metrics_csv_matches_its_snapshot() {
    check(&CASES[2]);
}

#[test]
fn incidents_match_their_snapshot() {
    check(&CASES[3]);
}

#[test]
fn chrome_trace_matches_its_digest() {
    check(&CASES[4]);
}

/// No orphaned snapshots: every file under `tests/golden_artifacts/`
/// is one some case writes and pins as a snapshot, and each stays
/// under 256 KB.
#[test]
fn golden_artifacts_dir_has_no_stale_snapshots() {
    let pinned: Vec<&str> = CASES
        .iter()
        .flat_map(|c| c.writes.iter())
        .filter(|(_, pin)| matches!(pin, Pin::Snapshot))
        .map(|(name, _)| *name)
        .collect();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir exists") {
        let entry = entry.expect("readable entry");
        let name = entry.file_name().to_string_lossy().to_string();
        assert!(
            pinned.contains(&name.as_str()),
            "stale snapshot {name} has no matching case"
        );
        let len = entry.metadata().expect("metadata").len();
        assert!(
            len < 256 * 1024,
            "{name} is {len} bytes; pin a digest instead"
        );
    }
}

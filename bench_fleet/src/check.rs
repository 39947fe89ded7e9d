//! Output checks. An op fails when it panics or when any check here
//! rejects it; failed ops are counted against attempted ones.

use crate::workload::{Inputs, OpOutput, Outcome, Workload};

/// The seed the pinned digests were taken at.
const DIGEST_SEED: u64 = 42;

/// FNV-1a digests of each workload's JSON report at [`DIGEST_SEED`],
/// with `events_processed` removed so an engine that reaches the same
/// results through fewer events still passes. `mlp0-100-observed`
/// shares `mlp0-100`'s digest: instruments must not change a report.
const PINNED: [(Workload, u64); 6] = [
    (Workload::Mlp0_1k, 0xd774_a1c4_27e8_0440),
    (Workload::Mlp0_100, 0x8920_e550_b0d8_78d2),
    (Workload::Mlp0_100Observed, 0x8920_e550_b0d8_78d2),
    (Workload::Colocate100, 0x45a6_165f_7d8e_db47),
    (Workload::OutageCells960, 0x0c4f_acf9_1270_44e9),
    (Workload::ServeMix, 0x1221_f4aa_b766_1861),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of `outcome`'s JSON report without `events_processed`.
fn report_digest(outcome: &Outcome) -> u64 {
    let mut json = outcome.report_json();
    if let serde_json::Value::Object(fields) = &mut json {
        fields.remove("events_processed");
    }
    fnv1a(serde_json::to_string(&json).as_bytes())
}

/// The digest `workload` must produce at [`DIGEST_SEED`].
fn pinned_digest(workload: Workload) -> u64 {
    PINNED
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, d)| d)
        .expect("every workload has a pinned digest")
}

/// Per tenant, served + dropped + shed must equal the requests the
/// inputs offered.
pub fn conservation(inputs: &Inputs, outcome: &Outcome) -> Result<(), String> {
    let specs = inputs.tenant_specs();
    let counts = outcome.tenant_counts();
    if specs.len() != counts.len() {
        return Err(format!(
            "{} tenants offered, {} reported",
            specs.len(),
            counts.len()
        ));
    }
    for (spec, (name, served, dropped, shed)) in specs.iter().zip(counts) {
        if served + dropped + shed != spec.requests {
            return Err(format!(
                "tenant {name}: served {served} + dropped {dropped} + shed {shed} != offered {}",
                spec.requests
            ));
        }
    }
    Ok(())
}

/// Check the warm-up op, which every later op is compared against:
/// conservation, plus the pinned digest at seed 42.
pub fn check_reference(workload: Workload, inputs: &Inputs, out: &OpOutput) -> Result<(), String> {
    conservation(inputs, &out.outcome)?;
    if inputs.seed() == DIGEST_SEED {
        let got = report_digest(&out.outcome);
        let want = pinned_digest(workload);
        if got != want {
            return Err(format!(
                "report digest {got:#018x} != pinned {want:#018x} at seed {DIGEST_SEED}"
            ));
        }
    }
    Ok(())
}

/// Check a later op: conservation, and equality with the warm-up op's
/// result and every rendered document.
pub fn check_op(inputs: &Inputs, reference: &OpOutput, out: &OpOutput) -> Result<(), String> {
    conservation(inputs, &out.outcome)?;
    if out.outcome != reference.outcome {
        return Err("the simulation result differs from the warm-up run".to_string());
    }
    if out.rendered != reference.rendered {
        return Err("a rendered document differs from the warm-up run".to_string());
    }
    Ok(())
}

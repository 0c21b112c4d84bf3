//! Damaged documents never panic a reader. Byte flips, truncations and
//! splices of every schema's document — run manifest, postmortem bundle,
//! soak cursor and repro fault list — go through `parse_json`,
//! `Manifest::parse`, `SoakCursor::parse` and `fault_from_json`, and each
//! must answer `Ok` or `Err`.

use acr_ckpt::{
    default_models, default_resilience, fault_from_json, fault_value, BerReport, CaseOutcome,
    FaultCaseRecord, PostmortemBundle, SoakCursor, SoakGrid,
};
use acr_mem::{CoreId, WordAddr};
use acr_rng::{check::forall, SmallRng};
use acr_sim::{Fault, FaultKind};
use acr_trace::{
    parse_json, BenchStats, FlightRecorder, Json, JsonStyle, Manifest, TraceEvent, TraceSink,
    TRACK_ENGINE,
};

fn manifest() -> String {
    Manifest {
        command: "bench".to_owned(),
        config: vec![("seed".to_owned(), "42".to_owned())],
        sim_hashes: vec![("combined".to_owned(), 0xbc40_ca2e_c6d2_d9bd)],
        metrics_digest: u64::MAX,
        host: vec![("host.wall_ns".to_owned(), 1_000_000)],
        bench: Some(BenchStats::from_samples(&[90, 100, 110], 1)),
    }
    .to_json()
}

fn bundle() -> String {
    let fault = Fault {
        at_progress: 500,
        core: CoreId(1),
        kind: FaultKind::MemBitFlip {
            addr: WordAddr::new(64),
            bit: 5,
        },
    };
    let rec = FaultCaseRecord {
        case: 3,
        fault,
        recoveries: 1,
        exception_detections: 0,
        shadow_divergence: 0,
        mem_divergence: 2,
        reg_divergence: 0,
        final_retired: 1000,
        restored_records: 10,
        recomputed_values: 0,
        recompute_alu_ops: 0,
        recovery_stall_cycles: 40,
        waste_cycles: 80,
        cycles: 4000,
        landing_cycle: 2000,
        recovery_fault: None,
        replay_retries: 0,
        generation_fallbacks: 0,
        degraded_entries: 0,
        hung: false,
        outcome: CaseOutcome::Diverged,
    };
    let mut fr = FlightRecorder::new(1, 2, 2);
    fr.record(&TraceEvent::instant("ckpt", "ckpt", TRACK_ENGINE, 7).with_arg("epoch", 1));
    fr.record(&TraceEvent::span("flush", "mem", 0, 10, 4));
    let report = BerReport::default();
    PostmortemBundle::capture(
        "divergence",
        u64::MAX,
        &rec,
        &report,
        &[1, 2],
        (7, 3),
        Some(&fr),
        None,
    )
    .to_json()
}

fn repro_faults() -> String {
    let faults = [
        FaultKind::RegBitFlip { reg: 3, bit: 9 },
        FaultKind::MemBurst {
            addr: WordAddr::new(0x100),
            bit: 60,
            span: 8,
        },
        FaultKind::StuckAt {
            addr: WordAddr::new(8),
            bit: 0,
            stuck_one: true,
        },
    ]
    .map(|kind| {
        fault_value(&Fault {
            at_progress: 17,
            core: CoreId(1),
            kind,
        })
    });
    Json::obj([("faults", Json::Arr(faults.into()))]).to_document(JsonStyle::SPACED, &["faults"])
}

/// Bytes that steer a parser into its other branches.
const SIGNIFICANT: &[u8] = b"{}[]\",:\\ -.eEu0x9ftn\n";

/// Applies one to three damages to `doc`: flip one bit of a byte, swap a
/// byte for a JSON-significant one, truncate, or splice in a slice of
/// `donor`.
fn damage(rng: &mut SmallRng, doc: &str, donor: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3u32) {
        if bytes.is_empty() {
            break;
        }
        let i = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..4u32) {
            0 => bytes[i] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes[i] = *rng.choose(SIGNIFICANT),
            2 => bytes.truncate(i),
            _ => {
                let d = donor.as_bytes();
                let from = rng.gen_range(0..d.len());
                let to = rng.gen_range(from..=d.len());
                let end = rng.gen_range(i..=bytes.len());
                bytes.splice(i..end, d[from..to].iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn damaged_documents_are_answered_not_panicked_on() {
    let grid = SoakGrid::new(
        &["cg".to_string()],
        &default_models()[..2],
        &default_resilience()[..1],
    );
    let mut cursor = SoakCursor::new(&grid, u64::MAX, 5);
    cursor.cells[0].hash_chain = u64::MAX - 1;
    let docs = [manifest(), bundle(), cursor.to_json(), repro_faults()];
    // The undamaged documents are read back in full.
    assert!(Manifest::parse(&docs[0]).is_ok());
    assert!(parse_json(&docs[1]).is_ok());
    assert_eq!(SoakCursor::parse(&docs[2], &grid), Ok(cursor));
    let faults = parse_json(&docs[3]).unwrap();
    for f in faults.arr_field("faults").unwrap() {
        assert!(fault_from_json(f).is_ok());
    }
    let (mut parsed, mut rejected) = (0u32, 0u32);
    forall("damaged documents", 3000, 0x15_0b5e, |rng| {
        let doc = &docs[rng.gen_range(0..docs.len())];
        let donor = &docs[rng.gen_range(0..docs.len())];
        let text = damage(rng, doc, donor);
        let _ = Manifest::parse(&text);
        let _ = SoakCursor::parse(&text, &grid);
        match parse_json(&text) {
            Ok(j) => {
                parsed += 1;
                let _ = fault_from_json(&j);
                for f in j.get("faults").and_then(Json::as_arr).unwrap_or_default() {
                    let _ = fault_from_json(f);
                }
            }
            Err(_) => rejected += 1,
        }
    });
    // Both outcomes were exercised, so the property saw readers go deep.
    assert!(
        parsed > 100 && rejected > 100,
        "{parsed} parsed, {rejected} rejected"
    );
}

//! Postmortem bundles: self-contained forensic snapshots of failed cases.
//!
//! A fault-injection campaign normally compresses each case into one
//! [`FaultCaseRecord`] row. When a case *fails* — its final state diverges
//! from the reference, the engine aborts, the recovery-escalation ladder
//! is exhausted, or an invariant monitor fires — that row is not enough to
//! triage from. The [`PostmortemBundle`] captures everything the engine
//! knew at the end of the case:
//!
//! * a machine-state digest (cycles, retired work, an FNV-1a hash of the
//!   final memory image, divergence counts),
//! * the tail of the flight-recorder rings (last K events per core plus
//!   the engine/memory timeline), with overwrite counts,
//! * the log-controller lifetime totals and the tail of the sealed
//!   intervals (the record/omit ledger the recovery would have replayed),
//! * the full escalation history and the invariant-monitor summary,
//! * a stored `probable_cause` narrative chaining the trigger back
//!   through the escalation rungs.
//!
//! Bundles are plain data (`Eq`, no floats, no wall-clock), so two runs of
//! the same seed produce *byte-identical* JSON — `acr_cli` pins this in
//! CI by double-running a forced-divergence campaign and comparing the
//! bundle files. [`PostmortemBundle::to_json`] emits the `acr.postmortem.v1`
//! schema that `acr_cli explain` renders.

use acr_trace::{EventKind, FlightRecorder, Fnv1a, Json, JsonStyle, Ring, TraceEvent};

use crate::inject::{fault_detail, FaultCaseRecord};
use crate::monitor::InvariantSummary;
use crate::report::{BerReport, IntervalRecord};

/// Schema tag of [`PostmortemBundle::to_json`] documents.
pub const POSTMORTEM_SCHEMA: &str = "acr.postmortem.v1";

/// Sealed intervals retained in the bundle's ledger tail.
const INTERVAL_TAIL: usize = 8;

/// One flight-recorder event, owned (no `'static` borrows) so bundles can
/// outlive the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event shape: `"span"`, `"instant"` or `"counter"`.
    pub kind: &'static str,
    /// Event name, e.g. `"ckpt"` or `"recovery.replay"`.
    pub name: String,
    /// Category, e.g. `"ckpt"`, `"recovery"`, `"mem"`.
    pub cat: String,
    /// Track the event was emitted on (core index or engine/mem track).
    pub track: u32,
    /// Start cycle.
    pub cycle: u64,
    /// Duration in cycles (spans only).
    pub dur: u64,
    /// Key/value arguments, in slot order.
    pub args: Vec<(String, u64)>,
}

impl EventRecord {
    fn from_event(ev: &TraceEvent) -> Self {
        EventRecord {
            kind: match ev.kind {
                EventKind::Span => "span",
                EventKind::Instant => "instant",
                EventKind::Counter => "counter",
            },
            name: ev.name.to_string(),
            cat: ev.cat.to_string(),
            track: ev.track,
            cycle: ev.cycle,
            dur: ev.dur,
            args: ev
                .args
                .iter()
                .flatten()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

/// The drained contents of one flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingDigest {
    /// Ring label: `"core<i>"` or `"global"`.
    pub track: String,
    /// Ring capacity (the K in "last K events").
    pub capacity: u64,
    /// Total events ever recorded on this ring.
    pub total: u64,
    /// Events overwritten before capture.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<EventRecord>,
}

impl RingDigest {
    fn from_ring(track: String, ring: &Ring) -> Self {
        RingDigest {
            track,
            capacity: ring.capacity() as u64,
            total: ring.total(),
            dropped: ring.dropped(),
            events: ring
                .events_in_order()
                .iter()
                .map(EventRecord::from_event)
                .collect(),
        }
    }
}

/// One recovery of the failed case, reduced to its escalation-relevant
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationStep {
    /// Machine cycle at detection.
    pub detected_at_cycles: u64,
    /// Epoch the engine rolled back to.
    pub safe_epoch: u64,
    /// Re-replay attempts beyond the first (rung 1).
    pub replay_retries: u32,
    /// Checkpoint generations skipped on checksum failure (rung 2).
    pub generation_fallbacks: u32,
    /// Whether the recovery escalated into degraded full logging (rung 3).
    pub degraded_entered: bool,
}

/// A self-contained forensic snapshot of one failed campaign case.
///
/// Everything is integral and deterministic, so equal seeds produce equal
/// bundles (`Eq` holds field-for-field) and [`PostmortemBundle::to_json`]
/// is byte-stable. The `workload` and `repro` fields are empty when the
/// bundle leaves the campaign; the CLI stamps them before writing so the
/// JSON carries the exact reproduction command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostmortemBundle {
    /// What tripped the capture: `"divergence"`, `"abort"`, `"hang"`
    /// (recovery-watchdog budget exhausted), `"escalation-exhaustion"` or
    /// `"invariant-breach"`.
    pub trigger: &'static str,
    /// Workload label (stamped by the CLI; empty from the library).
    pub workload: String,
    /// Exact reproduction command line (stamped by the CLI).
    pub repro: String,
    /// Campaign plan seed.
    pub seed: u64,
    /// Case index within the campaign.
    pub case: u32,
    /// Injected fault kind label (`reg`/`pc`/`mem`/`crash`).
    pub fault_kind: &'static str,
    /// Kind-specific fault coordinates (register/bit, address/bit, …).
    pub fault_detail: String,
    /// Target core of the fault.
    pub fault_core: u32,
    /// Injection point in retired instructions.
    pub fault_at_progress: u64,
    /// Machine cycle at which the fault landed (0 when it never landed).
    pub landing_cycle: u64,
    /// Nested recovery-window fault label, when one was injected.
    pub recovery_fault: Option<&'static str>,
    /// Case verdict label (`recovered`/`diverged`/`aborted`).
    pub outcome: &'static str,
    /// Final execution cycles of the case.
    pub cycles: u64,
    /// Total retired instructions at the end of the case.
    pub final_retired: u64,
    /// FNV-1a hash over the final memory image.
    pub mem_fnv: u64,
    /// Final memory words differing from the reference.
    pub mem_divergence: u64,
    /// Final registers differing from the reference.
    pub reg_divergence: u64,
    /// Shadow-oracle divergent words right after rollback.
    pub shadow_divergence: u64,
    /// Log-controller lifetime old-value records.
    pub lifetime_logged: u64,
    /// Log-controller lifetime omitted first updates.
    pub lifetime_omitted: u64,
    /// Tail of the sealed intervals (up to `INTERVAL_TAIL`), oldest
    /// first — the record/omit ledger the recovery drew from.
    pub intervals_tail: Vec<IntervalRecord>,
    /// Sealed intervals dropped from the tail.
    pub intervals_dropped: u64,
    /// Every recovery of the case, in execution order.
    pub escalation: Vec<EscalationStep>,
    /// Recoveries whose escalation ladder was exhausted.
    pub escalation_exhausted: u64,
    /// Invariant-monitor tallies and first breach.
    pub invariants: InvariantSummary,
    /// Flight-recorder rings (`core0..coreN`, then `global`), empty when
    /// the recorder was disabled.
    pub rings: Vec<RingDigest>,
    /// Probable-cause narrative chaining trigger back through escalation.
    pub probable_cause: String,
}

impl PostmortemBundle {
    /// Captures a bundle at the end of a failed case. `mem_words` is the
    /// final memory image, `log_totals` the `(logged, omitted)` lifetime
    /// pair, `abort_detail` the engine error for aborted cases.
    #[allow(clippy::too_many_arguments)] // one seam, one call site, plain data
    pub fn capture(
        trigger: &'static str,
        seed: u64,
        rec: &FaultCaseRecord,
        report: &BerReport,
        mem_words: &[u64],
        log_totals: (u64, u64),
        recorder: Option<&FlightRecorder>,
        abort_detail: Option<&str>,
    ) -> Self {
        let mut h = Fnv1a::new();
        for w in mem_words {
            h.write(&w.to_le_bytes());
        }
        let tail_start = report.intervals.len().saturating_sub(INTERVAL_TAIL);
        let mut rings = Vec::new();
        if let Some(fr) = recorder {
            for core in 0..fr.num_cores() {
                rings.push(RingDigest::from_ring(
                    format!("core{core}"),
                    fr.core_ring(core),
                ));
            }
            rings.push(RingDigest::from_ring(
                "global".to_string(),
                fr.global_ring(),
            ));
        }
        let probable_cause = probable_cause(trigger, rec, report, abort_detail);
        PostmortemBundle {
            trigger,
            workload: String::new(),
            repro: String::new(),
            seed,
            case: rec.case,
            fault_kind: rec.fault.kind.label(),
            fault_detail: fault_detail(rec.fault.kind),
            fault_core: rec.fault.core.0,
            fault_at_progress: rec.fault.at_progress,
            landing_cycle: rec.landing_cycle,
            recovery_fault: rec.recovery_fault.map(|k| k.label()),
            outcome: rec.outcome.label(),
            cycles: rec.cycles,
            final_retired: rec.final_retired,
            mem_fnv: h.finish(),
            mem_divergence: rec.mem_divergence,
            reg_divergence: rec.reg_divergence,
            shadow_divergence: rec.shadow_divergence,
            lifetime_logged: log_totals.0,
            lifetime_omitted: log_totals.1,
            intervals_tail: report.intervals[tail_start..].to_vec(),
            intervals_dropped: tail_start as u64,
            escalation: report
                .recoveries
                .iter()
                .map(|r| EscalationStep {
                    detected_at_cycles: r.detected_at_cycles,
                    safe_epoch: r.safe_epoch,
                    replay_retries: r.replay_retries,
                    generation_fallbacks: r.generation_fallbacks,
                    degraded_entered: r.degraded_entered,
                })
                .collect(),
            escalation_exhausted: report.escalation_exhausted,
            invariants: report.invariants.clone(),
            rings,
            probable_cause,
        }
    }

    /// Serialises the bundle as deterministic `acr.postmortem.v1` JSON
    /// (fixed key order, integers only, `mem_fnv` as a hex string like
    /// every hash, trailing newline).
    pub fn to_json(&self) -> String {
        let inv = &self.invariants;
        let monitors = inv.monitors().map(|(name, c)| {
            let counts = [("checks", c.checks.into()), ("breaches", c.breaches.into())];
            (name, Json::obj(counts))
        });
        let first_breach = inv.first_breach.as_ref().map(|b| {
            Json::obj([
                ("monitor", b.monitor.into()),
                ("epoch", b.epoch.into()),
                ("cycle", b.cycle.into()),
                ("detail", b.detail.as_str().into()),
            ])
        });
        let intervals = self.intervals_tail.iter().map(interval_json).collect();
        let steps = self.escalation.iter().map(step_json).collect();
        Json::obj([
            ("schema", POSTMORTEM_SCHEMA.into()),
            ("trigger", self.trigger.into()),
            ("workload", self.workload.as_str().into()),
            ("repro", self.repro.as_str().into()),
            ("seed", self.seed.into()),
            ("case", self.case.into()),
            (
                "fault",
                Json::obj([
                    ("kind", self.fault_kind.into()),
                    ("detail", self.fault_detail.as_str().into()),
                    ("core", self.fault_core.into()),
                    ("at_progress", self.fault_at_progress.into()),
                    ("landing_cycle", self.landing_cycle.into()),
                ]),
            ),
            ("recovery_fault", self.recovery_fault.into()),
            ("outcome", self.outcome.into()),
            (
                "machine",
                Json::obj([
                    ("cycles", self.cycles.into()),
                    ("final_retired", self.final_retired.into()),
                    ("mem_fnv", Json::hex(self.mem_fnv)),
                    ("mem_divergence", self.mem_divergence.into()),
                    ("reg_divergence", self.reg_divergence.into()),
                    ("shadow_divergence", self.shadow_divergence.into()),
                ]),
            ),
            (
                "log",
                Json::obj([
                    ("lifetime_logged", self.lifetime_logged.into()),
                    ("lifetime_omitted", self.lifetime_omitted.into()),
                    ("intervals_dropped", self.intervals_dropped.into()),
                    ("intervals_tail", Json::Arr(intervals)),
                ]),
            ),
            (
                "escalation",
                Json::obj([
                    ("exhausted", self.escalation_exhausted.into()),
                    ("steps", Json::Arr(steps)),
                ]),
            ),
            (
                "invariants",
                Json::obj([
                    ("breaches", inv.total_breaches().into()),
                    ("monitors", Json::obj(monitors)),
                    ("first_breach", first_breach.into()),
                ]),
            ),
            (
                "rings",
                Json::Arr(self.rings.iter().map(ring_json).collect()),
            ),
            ("probable_cause", self.probable_cause.as_str().into()),
        ])
        .to_document(JsonStyle::SPACED, &["rings", "events"])
    }
}

fn interval_json(iv: &IntervalRecord) -> Json {
    Json::obj([
        ("epoch", iv.epoch.into()),
        ("progress", iv.progress.into()),
        ("records", iv.records.into()),
        ("omitted", iv.omitted.into()),
        ("bytes", iv.bytes.into()),
        ("stall_cycles", iv.stall_cycles.into()),
    ])
}

fn step_json(s: &EscalationStep) -> Json {
    Json::obj([
        ("detected_at_cycles", s.detected_at_cycles.into()),
        ("safe_epoch", s.safe_epoch.into()),
        ("replay_retries", s.replay_retries.into()),
        ("generation_fallbacks", s.generation_fallbacks.into()),
        ("degraded_entered", s.degraded_entered.into()),
    ])
}

fn ring_json(r: &RingDigest) -> Json {
    let events = r.events.iter().map(|ev| {
        let args = ev.args.iter().map(|(k, v)| (k.as_str(), (*v).into()));
        Json::obj([
            ("kind", ev.kind.into()),
            ("name", ev.name.as_str().into()),
            ("cat", ev.cat.as_str().into()),
            ("track", ev.track.into()),
            ("cycle", ev.cycle.into()),
            ("dur", ev.dur.into()),
            ("args", Json::obj(args)),
        ])
    });
    Json::obj([
        ("track", r.track.as_str().into()),
        ("capacity", r.capacity.into()),
        ("total", r.total.into()),
        ("dropped", r.dropped.into()),
        ("events", Json::Arr(events.collect())),
    ])
}

/// Builds the probable-cause narrative: first breach wins, otherwise the
/// trigger is chained back through the escalation rungs the case climbed.
fn probable_cause(
    trigger: &str,
    rec: &FaultCaseRecord,
    report: &BerReport,
    abort_detail: Option<&str>,
) -> String {
    if let Some(b) = &report.invariants.first_breach {
        return format!(
            "invariant breach ({}) at epoch {} cycle {}: {}",
            b.monitor, b.epoch, b.cycle, b.detail
        );
    }
    let mut cause = if rec.landing_cycle > 0 {
        format!(
            "{} fault ({}) landed at cycle {}",
            rec.fault.kind.label(),
            fault_detail(rec.fault.kind),
            rec.landing_cycle
        )
    } else {
        format!(
            "{} fault ({}) planned at progress {}",
            rec.fault.kind.label(),
            fault_detail(rec.fault.kind),
            rec.fault.at_progress
        )
    };
    if let Some(rf) = rec.recovery_fault {
        cause.push_str(&format!(" -> {} during recovery", rf.label()));
    }
    if rec.replay_retries > 0 {
        cause.push_str(&format!(" -> {} re-replay attempts", rec.replay_retries));
    }
    if rec.generation_fallbacks > 0 {
        cause.push_str(&format!(
            " -> generation fallback x{}",
            rec.generation_fallbacks
        ));
    }
    if rec.degraded_entries > 0 {
        cause.push_str(" -> degraded full-logging entry");
    }
    match trigger {
        "abort" => {
            cause.push_str(" -> engine abort");
            if let Some(d) = abort_detail {
                cause.push_str(&format!(" ({d})"));
            }
        }
        "hang" => {
            cause.push_str(" -> recovery watchdog abort");
            if let Some(d) = abort_detail {
                cause.push_str(&format!(" ({d})"));
            }
        }
        "escalation-exhaustion" => {
            cause.push_str(&format!(
                " -> escalation ladder exhausted ({} recovery)",
                plural(report.escalation_exhausted, "time", "times")
            ));
            cause.push_str(" -> best-effort image");
        }
        _ => {
            if rec.fault.kind.label() == "mem" {
                cause.push_str(
                    " -> flip outside the incremental log window -> old value unrecoverable \
                     -> divergence from reference",
                );
            } else {
                cause.push_str(&format!(
                    " -> final state differs from reference ({} mem, {} reg words) -> divergence",
                    rec.mem_divergence, rec.reg_divergence
                ));
            }
        }
    }
    cause
}

fn plural(n: u64, one: &str, many: &str) -> String {
    if n == 1 {
        format!("{n} {one}")
    } else {
        format!("{n} {many}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::CaseOutcome;
    use acr_sim::{Fault, FaultKind};
    use acr_trace::parse_json;

    fn record(outcome: CaseOutcome) -> FaultCaseRecord {
        FaultCaseRecord {
            case: 3,
            fault: Fault {
                at_progress: 500,
                core: acr_mem::CoreId(1),
                kind: FaultKind::MemBitFlip {
                    addr: acr_mem::WordAddr::new(64),
                    bit: 5,
                },
            },
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
            outcome,
        }
    }

    /// A bundle touching every field shape: two rings (the second
    /// empty), escalation steps, an interval tail, a first breach and
    /// strings that need escaping.
    fn golden_bundle() -> PostmortemBundle {
        let mut invariants = InvariantSummary::default();
        invariants.observe(
            "checksum_spot",
            4,
            900,
            Some("record \"2\" failed\tverify".into()),
        );
        invariants.observe("log_conservation", 5, 950, None);
        let interval = |epoch| IntervalRecord {
            epoch,
            progress: 100 * epoch,
            records: 12,
            omitted: 3,
            bytes: 4096,
            baseline_bytes: 5000,
            stall_cycles: 77,
            lines_flushed: 9,
        };
        PostmortemBundle {
            trigger: "divergence",
            workload: "cg".into(),
            repro: "acr_cli inject --seed 42 --kinds mem".into(),
            seed: 12_058_926_934_050_108_962,
            case: 7,
            fault_kind: "mem",
            fault_detail: "0x40b5".into(),
            fault_core: 1,
            fault_at_progress: 500,
            landing_cycle: 2000,
            recovery_fault: Some("torn-record"),
            outcome: "diverged",
            cycles: 4000,
            final_retired: 1000,
            mem_fnv: 0xcbf2_9ce4_8422_2325,
            mem_divergence: 2,
            reg_divergence: 0,
            shadow_divergence: 1,
            lifetime_logged: 7,
            lifetime_omitted: 3,
            intervals_tail: vec![interval(5), interval(6)],
            intervals_dropped: 4,
            escalation: vec![EscalationStep {
                detected_at_cycles: 1500,
                safe_epoch: 3,
                replay_retries: 1,
                generation_fallbacks: 0,
                degraded_entered: true,
            }],
            escalation_exhausted: 1,
            invariants,
            rings: vec![
                RingDigest {
                    track: "core0".into(),
                    capacity: 4,
                    total: 6,
                    dropped: 2,
                    events: vec![
                        EventRecord {
                            kind: "span",
                            name: "ckpt".into(),
                            cat: "ckpt".into(),
                            track: 0,
                            cycle: 10,
                            dur: 4,
                            args: vec![("epoch".into(), 3), ("records".into(), 12)],
                        },
                        EventRecord {
                            kind: "instant",
                            name: "fault.inject".into(),
                            cat: "fault".into(),
                            track: 0,
                            cycle: 20,
                            dur: 0,
                            args: vec![],
                        },
                    ],
                },
                RingDigest {
                    track: "global".into(),
                    capacity: 2,
                    total: 0,
                    dropped: 0,
                    events: vec![],
                },
            ],
            probable_cause: "mem fault (\"x\")\nline two \u{1} -> divergence".into(),
        }
    }

    /// The bundle's exact bytes, as the hand-written emitter that preceded
    /// the `Json` writer produced them.
    const GOLDEN: &str = r#"{
  "schema": "acr.postmortem.v1",
  "trigger": "divergence",
  "workload": "cg",
  "repro": "acr_cli inject --seed 42 --kinds mem",
  "seed": 12058926934050108962,
  "case": 7,
  "fault": {"kind": "mem", "detail": "0x40b5", "core": 1, "at_progress": 500, "landing_cycle": 2000},
  "recovery_fault": "torn-record",
  "outcome": "diverged",
  "machine": {"cycles": 4000, "final_retired": 1000, "mem_fnv": "0xcbf29ce484222325", "mem_divergence": 2, "reg_divergence": 0, "shadow_divergence": 1},
  "log": {"lifetime_logged": 7, "lifetime_omitted": 3, "intervals_dropped": 4, "intervals_tail": [{"epoch": 5, "progress": 500, "records": 12, "omitted": 3, "bytes": 4096, "stall_cycles": 77}, {"epoch": 6, "progress": 600, "records": 12, "omitted": 3, "bytes": 4096, "stall_cycles": 77}]},
  "escalation": {"exhausted": 1, "steps": [{"detected_at_cycles": 1500, "safe_epoch": 3, "replay_retries": 1, "generation_fallbacks": 0, "degraded_entered": true}]},
  "invariants": {"breaches": 1, "monitors": {"log_conservation": {"checks": 1, "breaches": 0}, "epoch_monotonic": {"checks": 0, "breaches": 0}, "addrmap_occupancy": {"checks": 0, "breaches": 0}, "checksum_spot": {"checks": 1, "breaches": 1}, "machine_audit": {"checks": 0, "breaches": 0}}, "first_breach": {"monitor": "checksum_spot", "epoch": 4, "cycle": 900, "detail": "record \"2\" failed\tverify"}},
  "rings": [
    {"track": "core0", "capacity": 4, "total": 6, "dropped": 2, "events": [
      {"kind": "span", "name": "ckpt", "cat": "ckpt", "track": 0, "cycle": 10, "dur": 4, "args": {"epoch": 3, "records": 12}},
      {"kind": "instant", "name": "fault.inject", "cat": "fault", "track": 0, "cycle": 20, "dur": 0, "args": {}}
    ]},
    {"track": "global", "capacity": 2, "total": 0, "dropped": 0, "events": []}
  ],
  "probable_cause": "mem fault (\"x\")\nline two \u0001 -> divergence"
}
"#;

    #[test]
    fn json_bytes_are_pinned() {
        let b = golden_bundle();
        assert_eq!(b.to_json(), GOLDEN);
        // The seed sits above 2^53 and still comes back exactly.
        let doc = parse_json(GOLDEN).unwrap();
        assert_eq!(doc.u64_field("seed"), Ok(b.seed));
    }

    #[test]
    fn bundle_json_is_deterministic_and_parses() {
        let rec = record(CaseOutcome::Diverged);
        let report = BerReport::default();
        let words = [1u64, 2, 3];
        let a =
            PostmortemBundle::capture("divergence", 42, &rec, &report, &words, (7, 3), None, None);
        let b =
            PostmortemBundle::capture("divergence", 42, &rec, &report, &words, (7, 3), None, None);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let doc = parse_json(&a.to_json()).expect("bundle JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(
            doc.get("trigger").and_then(|v| v.as_str()),
            Some("divergence")
        );
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(42));
        let cause = doc.get("probable_cause").and_then(|v| v.as_str()).unwrap();
        assert!(cause.contains("mem fault"), "{cause}");
        assert!(cause.contains("divergence"), "{cause}");
    }

    #[test]
    fn invariant_breach_dominates_the_narrative() {
        let rec = record(CaseOutcome::Recovered);
        let mut report = BerReport::default();
        report.invariants.observe(
            "checksum_spot",
            4,
            900,
            Some("record 2 failed verify".into()),
        );
        let b = PostmortemBundle::capture(
            "invariant-breach",
            42,
            &rec,
            &report,
            &[0u64],
            (0, 0),
            None,
            None,
        );
        assert!(b
            .probable_cause
            .starts_with("invariant breach (checksum_spot)"));
        assert!(b.probable_cause.contains("epoch 4"));
        let doc = parse_json(&b.to_json()).unwrap();
        let inv = doc.get("invariants").unwrap();
        assert_eq!(inv.get("breaches").and_then(|v| v.as_u64()), Some(1));
        assert!(inv.get("first_breach").unwrap().get("monitor").is_some());
    }

    #[test]
    fn rings_serialize_with_drop_counts() {
        let rec = record(CaseOutcome::Diverged);
        let report = BerReport::default();
        let mut fr = FlightRecorder::new(1, 2, 2);
        use acr_trace::{TraceEvent, TraceSink, TRACK_ENGINE};
        for c in 0..5 {
            fr.record(&TraceEvent::instant("ckpt", "ckpt", TRACK_ENGINE, c).with_arg("epoch", c));
        }
        fr.record(&TraceEvent::span("flush", "mem", 0, 10, 4));
        let b = PostmortemBundle::capture(
            "divergence",
            1,
            &rec,
            &report,
            &[0u64],
            (0, 0),
            Some(&fr),
            None,
        );
        assert_eq!(b.rings.len(), 2);
        assert_eq!(b.rings[1].track, "global");
        assert_eq!(b.rings[1].dropped, 3);
        assert_eq!(b.rings[1].events.len(), 2);
        let doc = parse_json(&b.to_json()).unwrap();
        let rings = doc.get("rings").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rings.len(), 2);
        assert_eq!(
            rings[1].get("dropped").and_then(|v| v.as_u64()),
            Some(3),
            "{}",
            b.to_json()
        );
    }
}

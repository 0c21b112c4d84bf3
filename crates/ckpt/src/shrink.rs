//! Automatic failing-case shrinking: deterministic delta debugging over a
//! case's fault plan.
//!
//! Given one failing campaign case — a fault plan whose engine run ends
//! in a postmortem — the shrinker searches for a *minimal reproducer*
//! that fails the same way, in two deterministic stages:
//!
//! 1. **ddmin over the fault list**: partition the plan into `n` chunks
//!    and try every complement; every candidate of a round is evaluated
//!    (in parallel when jobs allow) and the *lowest-index* failing one is
//!    adopted, so the result is byte-identical for every `--jobs` value.
//!    On a round with no progress the granularity doubles, until chunks
//!    are single faults.
//! 2. **Field narrowing** on the surviving faults, in fault order: the
//!    injection point halves toward 1, bit positions halve toward 0,
//!    burst spans halve toward 2, and memory addresses halve toward the
//!    bottom of the image (word-aligned) — each step kept only while the
//!    case still fails with the same signature.
//!
//! Every evaluation forks from a snapshot of the fault-free run's last
//! checkpoint commit before the plan's first fault, through one fork
//! cache (DESIGN.md §15), so it does not re-simulate the shared prefix;
//! the verdicts are those of fresh runs.
//!
//! The *failure signature* is the postmortem trigger (`"divergence"`,
//! `"abort"`, `"hang"`, …): a shrunk plan must reproduce the exact
//! trigger of the original failure, not merely *some* failure, so the
//! minimal case is a reproducer of the bug class under triage. The final
//! plan serializes to a small `acr.repro.v1` JSON document via
//! [`fault_to_json`]; [`fault_from_json`] round-trips it for replay.

use acr_isa::Program;
use acr_mem::{CoreId, WordAddr};
use acr_sim::{Fault, FaultKind, FaultPlan, FaultPlanConfig, MachineConfig};
use acr_trace::{Json, JsonStyle, MetricsRegistry};

use crate::errors::CkptError;
use crate::inject::{
    fault_free_baseline, run_fault_case, CampaignConfig, CampaignError, CaseCtx, FaultCaseRecord,
    ForkCache, ForkStats, Worker,
};
use crate::parallel::ParallelRunner;
use crate::policy::OmissionPolicy;
use crate::postmortem::PostmortemBundle;

/// Repro document schema identifier.
pub const REPRO_SCHEMA: &str = "acr.repro.v1";

/// Word alignment of the memory image (mirrors `acr-mem`'s layout; the
/// narrowing stage must keep halved addresses aligned).
const WORD_BYTES: u64 = 8;

/// Shrinker knobs.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Worker threads evaluating ddmin candidates (0 = auto). Purely an
    /// execution knob: the shrunk plan is identical for every value.
    pub jobs: usize,
    /// Hard ceiling on engine-run evaluations, bounding shrink time on
    /// adversarial plans. The shrinker stops (keeping its best plan so
    /// far) when the budget is exhausted.
    pub max_evaluations: u64,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            jobs: 1,
            max_evaluations: 2048,
        }
    }
}

/// How one evaluated plan failed.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Postmortem trigger — the failure signature shrinking preserves.
    pub trigger: &'static str,
    /// The case record of the failing run.
    pub record: FaultCaseRecord,
    /// The failing run's forensic bundle.
    pub bundle: PostmortemBundle,
}

/// The shrinker's result: a minimal plan plus the evidence it still
/// fails identically.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// Faults in the original plan.
    pub original_faults: usize,
    /// The minimal reproducer, in evaluation order.
    pub minimal: Vec<Fault>,
    /// The minimal plan's failure (same trigger as the original, by
    /// construction).
    pub failure: CaseFailure,
    /// ddmin rounds executed.
    pub rounds: u64,
    /// Engine runs spent (original + candidates + narrowing + final).
    pub evaluations: u64,
    /// Narrowing steps that were kept.
    pub narrowed_fields: u64,
    /// What forking the evaluations saved and cost.
    pub fork: ForkStats,
    /// `shrink.*` counters mirroring the fields above.
    pub metrics: MetricsRegistry,
}

impl ShrinkOutcome {
    /// Faults removed by ddmin.
    pub fn dropped_faults(&self) -> usize {
        self.original_faults - self.minimal.len()
    }
}

/// Plans a dense multi-fault case: the seeded [`FaultPlan`] a campaign
/// would spread over `cfg.count` independent cases, taken as *one* case's
/// fault list. This is how the CLI builds a forced-divergence case worth
/// shrinking.
///
/// # Errors
///
/// Fails like a campaign would: broken fault-free runs, or no injectable
/// kind (memory corruption with an empty written working set).
pub fn dense_fault_plan(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
) -> Result<Vec<Fault>, CampaignError> {
    let base = fault_free_baseline(program, machine, cfg.interp_fuel, 0)?;
    let injectable = cfg.kinds.reg
        || cfg.kinds.pc
        || cfg.kinds.crash
        || ((cfg.kinds.mem || cfg.kinds.burst || cfg.kinds.stuck) && !base.mem_targets.is_empty());
    if !injectable {
        return Err(CkptError::NoInjectableKind {
            requested: "shrink plan".to_string(),
        }
        .into());
    }
    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: cfg.seed,
        count: cfg.count,
        kinds: cfg.kinds,
        total_progress: base.total,
        cores: machine.num_cores,
        mem_targets: base.mem_targets,
        storm: cfg.storm,
    });
    Ok(plan.faults)
}

/// Replays one fault plan exactly once and reports whether — and how —
/// it fails. `Ok(None)` means the plan no longer fails: the repro is
/// stale (e.g. the engine changed underneath it). This is the engine
/// behind `acr_cli shrink --replay`.
///
/// # Errors
///
/// [`CampaignError`] on an empty plan, an out-of-range detection
/// latency, or a broken fault-free baseline.
pub fn replay_case<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    case_index: usize,
    faults: &[Fault],
    policy: F,
) -> Result<Option<CaseFailure>, CampaignError>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    if faults.is_empty() {
        return Err(CkptError::EmptyCampaign.into());
    }
    let (record, bundle) = with_case_ctx(program, machine, cfg, &policy, |ctx| {
        run_fault_case(ctx, case_index, faults)
    })?;
    Ok(bundle.map(|bundle| {
        let trigger = bundle.trigger;
        CaseFailure {
            trigger,
            record,
            bundle,
        }
    }))
}

/// Evaluates fault plans of case `case_index` in the given order through
/// one fork cache, as the shrinker does at one job: each plan
/// forks from the fault-free commit snapshot before its first fault,
/// built on demand. Returns each plan's record and postmortem bundle —
/// those of a fresh run of the plan — and what forking saved and cost.
///
/// # Errors
///
/// Like [`replay_case`], for an empty plan among `plans` too.
#[allow(clippy::type_complexity)]
pub fn evaluate_plans<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    case_index: usize,
    plans: &[Vec<Fault>],
    policy: F,
) -> Result<(Vec<(FaultCaseRecord, Option<PostmortemBundle>)>, ForkStats), CampaignError>
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    if plans.iter().any(Vec::is_empty) {
        return Err(CkptError::EmptyCampaign.into());
    }
    with_case_ctx(program, machine, cfg, &policy, |ctx| {
        let mut cache = ForkCache::new(ctx);
        let results = plans
            .iter()
            .map(|plan| cache.run_case(ctx, case_index, plan))
            .collect();
        (results, cache.take_stats())
    })
}

/// Checks the detection latency, runs the fault-free baseline and hands
/// `body` the context every evaluation of one case's plans runs under.
fn with_case_ctx<F, R>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    policy: &F,
    body: impl FnOnce(&CaseCtx<'_, F>) -> R,
) -> Result<R, CampaignError> {
    if !(0.0..=1.0).contains(&cfg.detection_latency_frac) {
        return Err(CkptError::InvalidLatency {
            frac: cfg.detection_latency_frac,
        }
        .into());
    }
    let base = fault_free_baseline(program, machine, cfg.interp_fuel, 0)?;
    let period = base.total / (u64::from(cfg.num_checkpoints) + 1);
    let detection_latency = (period as f64 * cfg.detection_latency_frac) as u64;
    Ok(body(&CaseCtx {
        program,
        machine,
        cfg,
        total: base.total,
        detection_latency,
        reference_mem: &base.reference_mem,
        reference_regs: base.reference_regs.as_deref(),
        policy,
    }))
}

/// One halving step of a narrowing dimension, or `None` once the
/// dimension bottoms out. Dimensions are tried in this order per fault:
/// injection point, bit, span, address.
fn narrowing_steps(f: Fault) -> Vec<Fault> {
    let mut steps = Vec::new();
    if f.at_progress > 1 {
        steps.push(Fault {
            at_progress: (f.at_progress / 2).max(1),
            ..f
        });
    }
    let halved_bit = |bit: u8| bit / 2;
    let halved_addr = |addr: WordAddr| {
        let b = addr.byte() / 2;
        WordAddr::new(b - b % WORD_BYTES)
    };
    match f.kind {
        FaultKind::RegBitFlip { reg, bit } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::RegBitFlip {
                        reg,
                        bit: halved_bit(bit),
                    },
                    ..f
                });
            }
        }
        FaultKind::PcBitFlip { bit } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::PcBitFlip {
                        bit: halved_bit(bit),
                    },
                    ..f
                });
            }
        }
        FaultKind::MemBitFlip { addr, bit } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBitFlip {
                        addr,
                        bit: halved_bit(bit),
                    },
                    ..f
                });
            }
            if addr.byte() > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBitFlip {
                        addr: halved_addr(addr),
                        bit,
                    },
                    ..f
                });
            }
        }
        FaultKind::MemBurst { addr, bit, span } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBurst {
                        addr,
                        bit: halved_bit(bit),
                        span,
                    },
                    ..f
                });
            }
            if span > 2 {
                steps.push(Fault {
                    kind: FaultKind::MemBurst {
                        addr,
                        bit,
                        span: (span / 2).max(2),
                    },
                    ..f
                });
            }
            if addr.byte() > 0 {
                steps.push(Fault {
                    kind: FaultKind::MemBurst {
                        addr: halved_addr(addr),
                        bit,
                        span,
                    },
                    ..f
                });
            }
        }
        FaultKind::StuckAt {
            addr,
            bit,
            stuck_one,
        } => {
            if bit > 0 {
                steps.push(Fault {
                    kind: FaultKind::StuckAt {
                        addr,
                        bit: halved_bit(bit),
                        stuck_one,
                    },
                    ..f
                });
            }
            if addr.byte() > 0 {
                steps.push(Fault {
                    kind: FaultKind::StuckAt {
                        addr: halved_addr(addr),
                        bit,
                        stuck_one,
                    },
                    ..f
                });
            }
        }
        FaultKind::Crash => {}
    }
    steps
}

/// Shrinks one failing case to a minimal reproducer with the same
/// postmortem trigger. `faults` is the case's full fault plan (e.g. from
/// [`dense_fault_plan`]); `case_index` seeds per-case machinery (nested
/// recovery faults) exactly as the campaign did, so the shrunk plan
/// replays in the identical engine configuration.
///
/// The policy is `Sync` because parallel ddmin workers restore their
/// engines from the snapshots one fork cache holds.
///
/// # Errors
///
/// * [`CampaignError`] if the fault-free baseline fails;
/// * [`CkptError::Unsupported`] (wrapped) if the original plan does
///   *not* fail — there is nothing to shrink.
pub fn shrink_case<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    case_index: usize,
    faults: &[Fault],
    shrink_cfg: &ShrinkConfig,
    policy: F,
) -> Result<ShrinkOutcome, CampaignError>
where
    P: OmissionPolicy + Sync,
    F: Fn() -> P + Sync,
{
    if faults.is_empty() {
        return Err(CkptError::EmptyCampaign.into());
    }
    with_case_ctx(program, machine, cfg, &policy, |ctx| {
        shrink_with(ctx, case_index, faults, shrink_cfg)
    })?
}

/// [`shrink_case`] under its case context.
fn shrink_with<P, F>(
    ctx: &CaseCtx<'_, F>,
    case_index: usize,
    faults: &[Fault],
    shrink_cfg: &ShrinkConfig,
) -> Result<ShrinkOutcome, CampaignError>
where
    P: OmissionPolicy + Sync,
    F: Fn() -> P + Sync,
{
    // Every stage shares one fork cache.
    let mut cache = ForkCache::new(ctx);
    let mut fork = ForkStats::default();

    // The failure signature the whole search must preserve.
    let (record, bundle) = cache.run_case(ctx, case_index, faults);
    let mut evaluations = 1u64;
    let Some(bundle) = bundle else {
        return Err(CkptError::Unsupported {
            what: format!(
                "shrink: case {case_index} does not fail (outcome {}) — nothing to shrink",
                record.outcome.label()
            ),
        }
        .into());
    };
    let trigger = bundle.trigger;
    let fails = |cache: &mut ForkCache<'_, P>, plan: &[Fault]| -> bool {
        let (_, b) = cache.run_case(ctx, case_index, plan);
        b.is_some_and(|b| b.trigger == trigger)
    };

    // Stage 1: ddmin over the fault list. Every candidate of a round is
    // evaluated and the lowest-index failing one adopted — more engine
    // runs than first-hit-wins, but jobs-invariant by construction.
    let runner = ParallelRunner::new(shrink_cfg.jobs);
    let mut plan: Vec<Fault> = faults.to_vec();
    let mut chunks = 2usize;
    let mut rounds = 0u64;
    while plan.len() >= 2 && evaluations < shrink_cfg.max_evaluations {
        rounds += 1;
        let n = chunks.min(plan.len());
        let candidates: Vec<Vec<Fault>> = (0..n)
            .map(|c| {
                let start = c * plan.len() / n;
                let end = (c + 1) * plan.len() / n;
                let mut cand = Vec::with_capacity(plan.len() - (end - start));
                cand.extend_from_slice(&plan[..start]);
                cand.extend_from_slice(&plan[end..]);
                cand
            })
            .filter(|cand| !cand.is_empty())
            .collect();
        evaluations += candidates.len() as u64;
        let verdicts = ddmin_round(
            ctx,
            case_index,
            trigger,
            &runner,
            &candidates,
            &mut cache,
            &mut fork,
        );
        if let Some(winner) = verdicts.iter().position(|&v| v) {
            plan = candidates[winner].clone();
            chunks = 2.max(n - 1);
        } else if n < plan.len() {
            chunks = (n * 2).min(plan.len());
        } else {
            break;
        }
    }

    // Stage 2: greedy per-fault field narrowing, sequential and in fault
    // order (deterministic for every jobs value by construction).
    let mut narrowed_fields = 0u64;
    let mut idx = 0;
    'narrow: while idx < plan.len() {
        loop {
            let steps = narrowing_steps(plan[idx]);
            let mut advanced = false;
            for step in steps {
                if evaluations >= shrink_cfg.max_evaluations {
                    break 'narrow;
                }
                let mut cand = plan.clone();
                cand[idx] = step;
                evaluations += 1;
                if fails(&mut cache, &cand) {
                    plan = cand;
                    narrowed_fields += 1;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
        idx += 1;
    }

    // Final definitive run of the minimal plan: its record and bundle are
    // what the repro ships.
    let (record, bundle) = cache.run_case(ctx, case_index, &plan);
    evaluations += 1;
    let bundle = bundle.expect("minimal plan was verified to fail");
    debug_assert_eq!(bundle.trigger, trigger);
    fork.merge(cache.take_stats());

    let mut metrics = MetricsRegistry::new();
    metrics.set("shrink.original_faults", faults.len() as u64);
    metrics.set("shrink.minimal_faults", plan.len() as u64);
    metrics.set("shrink.dropped_faults", (faults.len() - plan.len()) as u64);
    metrics.set("shrink.rounds", rounds);
    metrics.set("shrink.evaluations", evaluations);
    metrics.set("shrink.narrowed_fields", narrowed_fields);
    metrics.set("shrink.forked_evaluations", fork.forked_evaluations);
    metrics.set(
        "shrink.prefix_instructions_skipped",
        fork.prefix_instructions_skipped,
    );
    metrics.set("shrink.snapshot_builds", fork.snapshot_builds);

    Ok(ShrinkOutcome {
        original_faults: faults.len(),
        minimal: plan,
        failure: CaseFailure {
            trigger,
            record,
            bundle,
        },
        rounds,
        evaluations,
        narrowed_fields,
        fork,
        metrics,
    })
}

/// Evaluates one ddmin round's candidates — whether each still fails with
/// `trigger` — and returns the verdicts by candidate index. Candidates run
/// in fork-point order through `cache`, so the snapshots it builds, and
/// with them every count, are the same for every jobs value. With more
/// than one worker, the candidates that share a fork point run in
/// parallel, each worker restoring the cache's snapshot of that commit
/// into an engine of its own; their counts go to `fork`.
fn ddmin_round<'p, P, F>(
    ctx: &CaseCtx<'p, F>,
    case_index: usize,
    trigger: &str,
    runner: &ParallelRunner,
    candidates: &[Vec<Fault>],
    cache: &mut ForkCache<'p, P>,
    fork: &mut ForkStats,
) -> Vec<bool>
where
    P: OmissionPolicy + Sync,
    F: Fn() -> P + Sync,
{
    let first_fault = |c: usize| {
        let at = candidates[c].iter().map(|f| f.at_progress).min();
        at.expect("candidates are never empty")
    };
    let fails = |bundle: Option<PostmortemBundle>| bundle.is_some_and(|b| b.trigger == trigger);
    if runner.jobs() > 1 && !cache.forks() {
        return runner.run_ordered(candidates.len(), |c| {
            fails(run_fault_case(ctx, case_index, &candidates[c]).1)
        });
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&c| (first_fault(c), c));
    let mut verdicts = vec![false; candidates.len()];
    if runner.jobs() == 1 {
        for &c in &order {
            verdicts[c] = fails(cache.run_case(ctx, case_index, &candidates[c]).1);
        }
        return verdicts;
    }
    let mut rest = &order[..];
    while let Some((&first, others)) = rest.split_first() {
        let k = cache.fork_point(first_fault(first));
        let shared = others
            .iter()
            .take_while(|&&c| cache.is_fork_point(k, first_fault(c)))
            .count();
        let (group, tail) = rest.split_at(1 + shared);
        rest = tail;
        if let [c] = *group {
            verdicts[c] = fails(cache.run_from_held(k, ctx, case_index, &candidates[c]).1);
            continue;
        }
        let held = cache.held(k);
        let (got, shards, _loads) = runner.run_with_locals(
            group.len(),
            ForkStats::default,
            || None,
            |j, shard: &mut ForkStats, worker: &mut Option<Worker<'p, P>>| {
                let worker = worker.get_or_insert_with(|| Worker::new(ctx));
                let plan = &candidates[group[j]];
                fails(worker.run_from(held, ctx, case_index, plan, shard).1)
            },
        );
        for (&c, v) in group.iter().zip(got) {
            verdicts[c] = v;
        }
        for shard in shards {
            fork.merge(shard);
        }
    }
    verdicts
}

/// One fault as a [`Json`] object (kind-specific fields only; addresses
/// as hex strings) — the element of a repro document's `faults` list.
pub fn fault_value(f: &Fault) -> Json {
    let addr = |a: WordAddr| Json::Str(format!("{:#x}", a.byte()));
    let mut members = vec![
        ("at", f.at_progress.into()),
        ("core", f.core.0.into()),
        ("kind", f.kind.label().into()),
    ];
    match f.kind {
        FaultKind::RegBitFlip { reg, bit } => {
            members.extend([("reg", reg.into()), ("bit", bit.into())]);
        }
        FaultKind::PcBitFlip { bit } => members.push(("bit", bit.into())),
        FaultKind::MemBitFlip { addr: a, bit } => {
            members.extend([("addr", addr(a)), ("bit", bit.into())]);
        }
        FaultKind::MemBurst { addr: a, bit, span } => {
            members.extend([
                ("addr", addr(a)),
                ("bit", bit.into()),
                ("span", span.into()),
            ]);
        }
        FaultKind::StuckAt {
            addr: a,
            bit,
            stuck_one,
        } => members.extend([
            ("addr", addr(a)),
            ("bit", bit.into()),
            ("stuck_one", stuck_one.into()),
        ]),
        FaultKind::Crash => {}
    }
    Json::obj(members)
}

/// Serializes one fault as a one-line JSON object ([`fault_value`] in the
/// spaced style). Inverse of [`fault_from_json`].
pub fn fault_to_json(f: &Fault) -> String {
    fault_value(f).to_inline(JsonStyle::SPACED)
}

/// Parses a fault serialized by [`fault_to_json`]. Fields are read at
/// their full width and rejected when they do not fit; whether they fit
/// the machine and program is [`Fault::check`]'s job.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn fault_from_json(j: &Json) -> Result<Fault, String> {
    fn narrow<T: TryFrom<u64>>(j: &Json, key: &str) -> Result<T, String> {
        let v = j.u64_field(key)?;
        T::try_from(v).map_err(|_| format!("field `{key}`: {v} is out of range"))
    }
    let addr = || -> Result<WordAddr, String> {
        let b = j.hex_field("addr")?;
        if b % WORD_BYTES != 0 {
            return Err(format!("field `addr`: {b:#x} is not word-aligned"));
        }
        Ok(WordAddr::new(b))
    };
    let kind = match j.str_field("kind")? {
        "reg" => FaultKind::RegBitFlip {
            reg: narrow(j, "reg")?,
            bit: narrow(j, "bit")?,
        },
        "pc" => FaultKind::PcBitFlip {
            bit: narrow(j, "bit")?,
        },
        "mem" => FaultKind::MemBitFlip {
            addr: addr()?,
            bit: narrow(j, "bit")?,
        },
        "burst" => FaultKind::MemBurst {
            addr: addr()?,
            bit: narrow(j, "bit")?,
            span: narrow(j, "span")?,
        },
        "stuck" => FaultKind::StuckAt {
            addr: addr()?,
            bit: narrow(j, "bit")?,
            stuck_one: j.bool_field("stuck_one")?,
        },
        "crash" => FaultKind::Crash,
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(Fault {
        at_progress: j.u64_field("at")?,
        core: CoreId(narrow(j, "core")?),
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoOmission;
    use acr_isa::{AluOp, ProgramBuilder, Reg};
    use acr_sim::FaultKindSet;
    use acr_trace::parse_json;

    fn kernel() -> Program {
        let mut b = ProgramBuilder::new(2);
        b.set_mem_bytes(1 << 18);
        for t in 0..2u32 {
            let base = u64::from(t) * 32768;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let l = tb.begin_loop(Reg(1), Reg(2), 60);
            tb.alui(AluOp::Mul, Reg(3), Reg(1), 13);
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.store(Reg(3), Reg(5), 0);
            tb.end_loop(l);
            tb.halt();
        }
        b.build()
    }

    fn mem_only() -> FaultKindSet {
        FaultKindSet {
            reg: false,
            pc: false,
            mem: true,
            burst: false,
            stuck: false,
            crash: false,
        }
    }

    /// A deterministic forced-divergence plan: the first seed whose dense
    /// mem-fault plan fails at all.
    fn failing_setup() -> (Program, CampaignConfig, Vec<Fault>) {
        let p = kernel();
        for seed in 42..62 {
            let cfg = CampaignConfig {
                seed,
                count: 10,
                kinds: mem_only(),
                num_checkpoints: 4,
                jobs: 1,
                ..CampaignConfig::default()
            };
            let faults =
                dense_fault_plan(&p, MachineConfig::with_cores(2), &cfg).expect("plan generates");
            assert!(faults.len() >= 8, "want a dense plan, got {}", faults.len());
            let outcome = shrink_case(
                &p,
                MachineConfig::with_cores(2),
                &cfg,
                0,
                &faults,
                &ShrinkConfig::default(),
                || NoOmission,
            );
            if outcome.is_ok() {
                return (p, cfg, faults);
            }
        }
        panic!("no failing seed found in 42..62");
    }

    #[test]
    fn shrink_finds_a_smaller_plan_with_the_same_trigger() {
        let (p, cfg, faults) = failing_setup();
        let out = shrink_case(
            &p,
            MachineConfig::with_cores(2),
            &cfg,
            0,
            &faults,
            &ShrinkConfig::default(),
            || NoOmission,
        )
        .expect("case fails, so it shrinks");
        assert!(out.minimal.len() <= faults.len());
        assert!(
            out.minimal.len() * 2 <= faults.len(),
            "expected >=50% shrink, got {} of {}",
            out.minimal.len(),
            faults.len()
        );
        assert_eq!(out.original_faults, faults.len());
        assert_eq!(out.failure.bundle.trigger, out.failure.trigger);
        assert!(out.evaluations >= 2);
        assert_eq!(
            out.metrics.get("shrink.minimal_faults"),
            Some(out.minimal.len() as u64)
        );

        // The minimal plan must still fail with the identical signature
        // when replayed from scratch (what `acr_cli shrink --replay` does).
        let replay = shrink_case(
            &p,
            MachineConfig::with_cores(2),
            &cfg,
            0,
            &out.minimal,
            &ShrinkConfig {
                max_evaluations: 1,
                ..ShrinkConfig::default()
            },
            || NoOmission,
        )
        .expect("minimal plan still fails");
        assert_eq!(replay.failure.trigger, out.failure.trigger);
    }

    #[test]
    fn shrinking_is_jobs_invariant() {
        let (p, cfg, faults) = failing_setup();
        let runs: Vec<ShrinkOutcome> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                shrink_case(
                    &p,
                    MachineConfig::with_cores(2),
                    &cfg,
                    0,
                    &faults,
                    &ShrinkConfig {
                        jobs,
                        ..ShrinkConfig::default()
                    },
                    || NoOmission,
                )
                .expect("shrinks")
            })
            .collect();
        assert_eq!(runs[0].minimal, runs[1].minimal);
        assert_eq!(runs[0].failure.trigger, runs[1].failure.trigger);
        // Byte-for-byte identical forensics, not merely equal structs.
        assert_eq!(
            runs[0].failure.bundle.to_json(),
            runs[1].failure.bundle.to_json()
        );
        assert_eq!(runs[0].evaluations, runs[1].evaluations);
        // Forking is jobs-invariant too, snapshot builds included.
        assert_eq!(runs[0].fork, runs[1].fork);
        assert_eq!(runs[0].metrics.digest(), runs[1].metrics.digest());
        assert!(runs[0].fork.forked_evaluations > 0, "{:?}", runs[0].fork);
        assert!(runs[0].fork.snapshot_builds > 0, "{:?}", runs[0].fork);
    }

    #[test]
    fn passing_cases_are_rejected() {
        let p = kernel();
        let cfg = CampaignConfig {
            count: 1,
            kinds: FaultKindSet::recoverable(),
            jobs: 1,
            ..CampaignConfig::default()
        };
        let faults = dense_fault_plan(&p, MachineConfig::with_cores(2), &cfg).expect("plan");
        let err = shrink_case(
            &p,
            MachineConfig::with_cores(2),
            &cfg,
            0,
            &faults,
            &ShrinkConfig::default(),
            || NoOmission,
        )
        .unwrap_err();
        assert!(err.to_string().contains("does not fail"), "{err}");
    }

    #[test]
    fn fault_json_round_trips_every_kind() {
        let faults = [
            Fault {
                at_progress: 7,
                core: CoreId(1),
                kind: FaultKind::RegBitFlip { reg: 3, bit: 17 },
            },
            Fault {
                at_progress: 9,
                core: CoreId(0),
                kind: FaultKind::PcBitFlip { bit: 2 },
            },
            Fault {
                at_progress: 11,
                core: CoreId(1),
                kind: FaultKind::MemBitFlip {
                    addr: WordAddr::new(0x1f8),
                    bit: 63,
                },
            },
            Fault {
                at_progress: 13,
                core: CoreId(0),
                kind: FaultKind::MemBurst {
                    addr: WordAddr::new(0x40),
                    bit: 60,
                    span: 7,
                },
            },
            Fault {
                at_progress: 15,
                core: CoreId(1),
                kind: FaultKind::StuckAt {
                    addr: WordAddr::new(0x8),
                    bit: 0,
                    stuck_one: true,
                },
            },
            Fault {
                at_progress: 17,
                core: CoreId(0),
                kind: FaultKind::Crash,
            },
        ];
        for f in faults {
            let text = fault_to_json(&f);
            let parsed = fault_from_json(&parse_json(&text).expect("valid JSON"))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, f, "{text}");
        }
        // Malformed inputs get messages, not panics.
        let j = parse_json(
            "{\"at\": 1, \"core\": 0, \"kind\": \"mem\", \"addr\": \"0x3\", \"bit\": 0}",
        )
        .unwrap();
        assert!(fault_from_json(&j).unwrap_err().contains("aligned"));
        let j = parse_json("{\"at\": 1, \"core\": 0, \"kind\": \"nope\"}").unwrap();
        assert!(fault_from_json(&j)
            .unwrap_err()
            .contains("unknown fault kind"));
    }

    #[test]
    fn narrowing_steps_shrink_toward_minimal_fields() {
        let f = Fault {
            at_progress: 100,
            core: CoreId(0),
            kind: FaultKind::MemBurst {
                addr: WordAddr::new(0x100),
                bit: 32,
                span: 8,
            },
        };
        let steps = narrowing_steps(f);
        assert_eq!(steps.len(), 4, "progress, bit, span, addr");
        assert_eq!(steps[0].at_progress, 50);
        // Every step keeps addresses word-aligned.
        for s in &steps {
            if let FaultKind::MemBurst { addr, .. } = s.kind {
                assert_eq!(addr.byte() % WORD_BYTES, 0);
            }
        }
        // Bottomed-out faults produce no steps.
        let done = Fault {
            at_progress: 1,
            core: CoreId(0),
            kind: FaultKind::Crash,
        };
        assert!(narrowing_steps(done).is_empty());
    }
}

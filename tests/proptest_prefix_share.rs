//! Fork-vs-fresh equivalence for prefix-sharing fault campaigns.
//!
//! A campaign over a forking policy (`AcrPolicy`) runs every case from a
//! snapshot of the fault-free run's last checkpoint commit before the
//! case's first fault lands. The same campaign under a policy that
//! declines to fork runs every case fresh from the program start. The two
//! must agree byte for byte on everything a campaign reports: the report
//! itself, CSVs, content hash, metrics digest, case log and every
//! postmortem bundle — across fault kinds, storms, nested recovery
//! faults, recorder on/off and worker counts.
//!
//! Shrink evaluations fork the same way, through one fork cache that
//! builds missing commit snapshots on demand and keeps the most recently
//! used ones: any sequence of plans evaluated through it must agree with
//! fresh runs of each plan, record and postmortem bundle alike.
//!
//! The deterministic tests pin the fork-point rule at its edges, driving
//! the engine's snapshot API directly: a fault exactly at a trigger (the
//! checkpoint-first tie-break defers it past the commit), a trigger that
//! falls between a store and its `ASSOC-ADDR` (the pair retires together
//! and the commit still lands exactly on the trigger, since `ASSOC-ADDR`
//! does not count as progress), and a fault before the first commit.

use std::sync::Arc;

use acr::{AcrPolicy, AddrMapConfig, Experiment, ExperimentSpec};
use acr_ckpt::{
    dense_fault_plan, evaluate_plans, run_campaign, uniform_points, BerConfig, BerEngine,
    BerReport, CampaignConfig, CampaignReport, ErrorSchedule, NoOmission, OmissionPolicy,
    OmitReason, Recomputed, ResilienceConfig, Scheme,
};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg, Slice, SliceId};
use acr_mem::{CoreId, WordAddr};
use acr_rng::check::forall;
use acr_sim::{
    AssocEvent, Fault, FaultKind, FaultKindSet, FaultStorm, Machine, MachineConfig, SimError,
};
use acr_trace::MetricsRegistry;

/// Wraps a policy without its [`OmissionPolicy::fork`]: campaigns under
/// it run every case fresh.
struct Fresh<P>(P);

impl<P: OmissionPolicy> OmissionPolicy for Fresh<P> {
    fn on_store(&mut self, core: u32, addr: WordAddr, epoch: u64) {
        self.0.on_store(core, addr, epoch);
    }

    fn on_assoc(&mut self, ev: &AssocEvent, epoch: u64) -> u64 {
        self.0.on_assoc(ev, epoch)
    }

    fn try_omit(&mut self, first_updater: u32, addr: WordAddr, epoch: u64) -> Option<u32> {
        self.0.try_omit(first_updater, addr, epoch)
    }

    fn recompute(&mut self, addr: WordAddr, epoch: u64) -> Option<Recomputed> {
        self.0.recompute(addr, epoch)
    }

    fn on_checkpoint(&mut self, sealed_epoch: u64) {
        self.0.on_checkpoint(sealed_epoch);
    }

    fn on_rollback(&mut self, safe_epoch: u64, victim_mask: u64) {
        self.0.on_rollback(safe_epoch, victim_mask);
    }

    fn classify(
        &self,
        core: u32,
        pc: u32,
        addr: WordAddr,
        epoch: u64,
        omitted: bool,
    ) -> (OmitReason, Option<SliceId>) {
        self.0.classify(core, pc, addr, epoch, omitted)
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        self.0.publish_metrics(reg);
    }

    fn occupancy(&self) -> Option<(u64, u64)> {
        self.0.occupancy()
    }

    fn overlaps_restore(&self) -> bool {
        self.0.overlaps_restore()
    }
}

/// A small store-heavy kernel whose stored values are Slice-recomputable
/// (so ACR omits, associates and recomputes), with a re-written
/// accumulator word that defeats omission; `mult` varies the data flow.
fn kernel(threads: usize, iters: u64, mult: u64) -> Program {
    let mut b = ProgramBuilder::new(threads);
    b.set_mem_bytes(1 << 20);
    for t in 0..threads as u32 {
        let base = u64::from(t) * 131072;
        let tb = b.thread(t);
        tb.imm(Reg(10), base);
        tb.imm(Reg(6), 0);
        let outer = tb.begin_loop(Reg(8), Reg(9), 6);
        let inner = tb.begin_loop(Reg(1), Reg(2), iters);
        tb.alui(AluOp::Mul, Reg(3), Reg(1), mult);
        tb.alu(AluOp::Xor, Reg(3), Reg(3), Reg(8));
        tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
        tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
        tb.store(Reg(3), Reg(5), 0);
        tb.alu(AluOp::Add, Reg(6), Reg(6), Reg(3));
        tb.store(Reg(6), Reg(10), 4096);
        tb.end_loop(inner);
        tb.end_loop(outer);
        tb.halt();
    }
    b.build()
}

/// The instrumented kernel and the ACR policy factory inputs, built as
/// `Experiment::run_fault_campaign` builds them.
fn instrumented(program: &Program, threads: u32) -> (Program, Arc<[Slice]>, AddrMapConfig) {
    let spec = ExperimentSpec::default().with_cores(threads);
    let mut exp = Experiment::new(program.clone(), spec.clone()).expect("valid kernel");
    let instrumented = exp.instrumented().0.clone();
    let slices: Arc<[Slice]> = instrumented.slices().into();
    (instrumented, slices, spec.addrmap)
}

/// Asserts every observable of a forked and a fresh campaign matches.
fn assert_identical(forked: &CampaignReport, fresh: &CampaignReport, what: &str) {
    assert_eq!(forked, fresh, "{what}: report");
    assert_eq!(forked.csv(), fresh.csv(), "{what}: csv");
    assert_eq!(
        forked.escalation_csv(),
        fresh.escalation_csv(),
        "{what}: escalation csv"
    );
    assert_eq!(
        forked.content_hash(),
        fresh.content_hash(),
        "{what}: content hash"
    );
    assert_eq!(
        forked.metrics.digest(),
        fresh.metrics.digest(),
        "{what}: metrics digest"
    );
    assert_eq!(forked.case_log, fresh.case_log, "{what}: case log");
    assert_eq!(
        forked.postmortems.len(),
        fresh.postmortems.len(),
        "{what}: postmortem count"
    );
    for (a, b) in forked.postmortems.iter().zip(&fresh.postmortems) {
        assert_eq!(a.to_json(), b.to_json(), "{what}: postmortem bundle");
    }
}

#[test]
fn forked_campaigns_match_fresh_campaigns_byte_for_byte() {
    forall(
        "forked_campaigns_match_fresh_campaigns_byte_for_byte",
        8,
        0x5EED_F0C5,
        |rng| {
            let threads = rng.gen_range(1..=2u32);
            let program = kernel(
                threads as usize,
                rng.gen_range(20..=45u64),
                rng.gen_range(3..=17u64) | 1,
            );
            let (program, slices, addrmap) = instrumented(&program, threads);
            let recovery_faults = rng.gen_range(0..=1u32) == 1;
            let stormy = rng.gen_range(0..=1u32) == 1;
            let cfg = CampaignConfig {
                seed: rng.next_u64(),
                count: rng.gen_range(6..=12u32),
                kinds: FaultKindSet::adversarial(),
                num_checkpoints: rng.gen_range(3..=8u32),
                recovery_faults,
                generations: if recovery_faults { 2 } else { 1 },
                storm: stormy.then(|| FaultStorm {
                    mean_gap: rng.gen_range(50..=400u64),
                    max_burst: rng.gen_range(2..=4u32),
                }),
                recorder: rng.gen_range(0..=1u32) == 1,
                jobs: if rng.gen_range(0..=1u32) == 1 { 3 } else { 1 },
                progress: true,
                ..CampaignConfig::default()
            };
            let generations = cfg.generations.max(if recovery_faults { 2 } else { 1 });
            let acr = || {
                AcrPolicy::new(Arc::clone(&slices), addrmap, threads as usize)
                    .with_generations(generations)
            };
            let machine = MachineConfig::with_cores(threads);
            let forked = run_campaign(&program, machine, &cfg, acr).expect("campaign runs");
            let fresh =
                run_campaign(&program, machine, &cfg, || Fresh(acr())).expect("campaign runs");
            let what = format!(
                "threads {threads} jobs {} recorder {} storm {stormy} recovery-faults {recovery_faults}",
                cfg.jobs, cfg.recorder
            );
            assert_identical(&forked, &fresh, &what);
        },
    );
}

/// Evaluates `plans` of one case in order through one fork cache under
/// `policy`, and fresh under the same policy declining to fork; asserts
/// every record and postmortem bundle agree. Returns the plans that
/// forked past the program start, and the snapshots built.
fn shrink_evaluations_match<P, F>(
    program: &Program,
    machine: MachineConfig,
    cfg: &CampaignConfig,
    plans: &[Vec<Fault>],
    policy: F,
    what: &str,
) -> (u64, u64)
where
    P: OmissionPolicy,
    F: Fn() -> P + Sync,
{
    let (forked, stats) =
        evaluate_plans(program, machine, cfg, 0, plans, &policy).expect("plans evaluate");
    let (fresh, fresh_stats) = evaluate_plans(program, machine, cfg, 0, plans, || Fresh(policy()))
        .expect("plans evaluate");
    assert_eq!(
        fresh_stats,
        Default::default(),
        "{what}: fresh runs fork nothing"
    );
    for (k, ((rec, bundle), (want, want_bundle))) in forked.iter().zip(&fresh).enumerate() {
        assert_eq!(rec, want, "{what}: plan {k} record");
        assert_eq!(
            bundle.as_ref().map(|b| b.to_json()),
            want_bundle.as_ref().map(|b| b.to_json()),
            "{what}: plan {k} postmortem"
        );
    }
    (stats.forked_evaluations, stats.snapshot_builds)
}

#[test]
fn forked_shrink_evaluations_match_fresh_ones() {
    let (mut forked, mut builds) = (0, 0);
    forall(
        "forked_shrink_evaluations_match_fresh_ones",
        8,
        0x5EED_5A1E,
        |rng| {
            let threads = rng.gen_range(1..=2u32);
            let program = kernel(
                threads as usize,
                rng.gen_range(20..=45u64),
                rng.gen_range(3..=17u64) | 1,
            );
            let (program, slices, addrmap) = instrumented(&program, threads);
            let machine = MachineConfig::with_cores(threads);
            let cfg = CampaignConfig {
                seed: rng.next_u64(),
                count: rng.gen_range(1..=12u32),
                kinds: FaultKindSet {
                    reg: true,
                    pc: true,
                    mem: true,
                    burst: false,
                    stuck: false,
                    crash: false,
                },
                num_checkpoints: rng.gen_range(3..=6u32),
                recorder: rng.gen_range(0..=1u32) == 1,
                ..CampaignConfig::default()
            };
            let dense = dense_fault_plan(&program, machine, &cfg).expect("plan generates");
            // Random subsets of the dense plan with halved injection
            // points, as ddmin and field narrowing produce them, in
            // random order: fork points rise and fall.
            let plans: Vec<Vec<Fault>> = (0..rng.gen_range(4..=9u32))
                .map(|_| {
                    let mut plan: Vec<Fault> = dense
                        .iter()
                        .filter(|_| rng.gen_range(0..=2u32) > 0)
                        .copied()
                        .collect();
                    if plan.is_empty() {
                        plan.push(dense[rng.gen_range(0..dense.len())]);
                    }
                    for f in &mut plan {
                        for _ in 0..rng.gen_range(0..=3u32) {
                            f.at_progress = (f.at_progress / 2).max(1);
                        }
                    }
                    plan
                })
                .collect();
            let what = format!("threads {threads}, {} plans", plans.len());
            let acr = || AcrPolicy::new(Arc::clone(&slices), addrmap, threads as usize);
            for (f, b) in [
                shrink_evaluations_match(&program, machine, &cfg, &plans, acr, &what),
                shrink_evaluations_match(&program, machine, &cfg, &plans, || NoOmission, &what),
            ] {
                forked += f;
                builds += b;
            }
        },
    );
    assert!(
        forked > 0 && builds > 0,
        "the cache forked ({forked}) and built ({builds})"
    );
}

/// An instrumented kernel with its ACR policy inputs.
struct Setup {
    program: Program,
    slices: Arc<[Slice]>,
    addrmap: AddrMapConfig,
}

impl Setup {
    fn new(threads: u32, mult: u64) -> Self {
        let (program, slices, addrmap) = instrumented(&kernel(threads as usize, 30, mult), threads);
        Setup {
            program,
            slices,
            addrmap,
        }
    }

    /// An engine over the kernel with ACR, the given triggers and faults.
    fn engine(&self, triggers: &[u64], faults: Vec<Fault>) -> BerEngine<'_, AcrPolicy> {
        let threads = self.program.num_threads();
        let cfg = BerConfig {
            scheme: Scheme::GlobalCoordinated,
            triggers: triggers.to_vec(),
            errors: ErrorSchedule {
                occurrences: Vec::new(),
                detection_latency: 40,
            },
            oracle: true,
            secondary: None,
            faults,
            resilience: ResilienceConfig::default(),
        };
        let machine = Machine::new(MachineConfig::with_cores(threads as u32), &self.program);
        let policy = AcrPolicy::new(Arc::clone(&self.slices), self.addrmap, threads);
        BerEngine::new(machine, policy, cfg)
    }

    /// Progress of the single commit a run with trigger `t` takes, and
    /// the associations recorded before it.
    fn commit(&self, t: u64) -> (u64, u64) {
        let mut e = self.engine(&[t], Vec::new());
        assert!(e.run_to_next_commit().expect("fault-free run"));
        let inserted = e.policy().addr_map().usage().inserted;
        (e.partial_report().intervals[0].progress, inserted)
    }

    /// Runs `fault` fresh, and forked from the commit the fork-point rule
    /// picks (the last commit whose progress is below the fault, or whose
    /// trigger equals it); asserts both agree and returns the number of
    /// commits the fork skipped.
    fn fork_matches_fresh(&self, triggers: &[u64], fault: Fault) -> usize {
        let fresh = outcome(&mut self.engine(triggers, vec![fault]));
        let mut driver = self.engine(triggers, Vec::new());
        let mut snap = driver.snapshot().expect("ACR forks");
        let mut commits = 0;
        while let Some(t) = snap.next_trigger().filter(|&t| t <= fault.at_progress) {
            assert!(driver.run_to_next_commit().expect("fault-free driver"));
            let progress = driver.partial_report().intervals.last().unwrap().progress;
            if progress >= fault.at_progress && t != fault.at_progress {
                break;
            }
            snap = driver.snapshot().expect("ACR forks");
            commits += 1;
        }
        let mut forked = self.engine(triggers, Vec::new());
        forked.restore(&snap);
        forked.install_faults(vec![fault], Vec::new());
        assert_eq!(outcome(&mut forked), fresh, "fork from commit {commits}");
        commits
    }

    fn total(&self) -> u64 {
        let mut m = Machine::new(
            MachineConfig::with_cores(self.program.num_threads() as u32),
            &self.program,
        );
        m.run(&mut acr_sim::NoHooks, u64::MAX).expect("runs");
        m.total_retired()
    }
}

/// Everything a finished run reports, for byte comparison.
fn outcome(engine: &mut BerEngine<'_, AcrPolicy>) -> (String, Vec<u64>) {
    let report: Result<BerReport, SimError> = engine.run_to_completion();
    (
        format!("{report:?} {:?}", engine.policy().stats()),
        engine.machine().mem().image().words().to_vec(),
    )
}

fn reg_fault(at_progress: u64) -> Fault {
    Fault {
        at_progress,
        core: CoreId(0),
        kind: FaultKind::RegBitFlip { reg: 3, bit: 5 },
    }
}

#[test]
fn fault_exactly_at_a_trigger_forks_from_that_commit() {
    let s = Setup::new(1, 7);
    let triggers = [400, 800, 1200];
    // The checkpoint-first tie-break defers the fault past the commit, so
    // the commit is a fork point even though its progress may reach the
    // fault.
    assert_eq!(s.fork_matches_fresh(&triggers, reg_fault(800)), 2);
    assert_eq!(s.fork_matches_fresh(&triggers, reg_fault(1200)), 3);
}

#[test]
fn trigger_between_a_store_and_its_assoc_keeps_the_pair_together() {
    let s = Setup::new(1, 7);
    // The first trigger whose commit already holds an association: the
    // t-th retired instruction is a store whose ASSOC-ADDR retires with
    // it, before the commit.
    let t = (1..100)
        .find(|&t| s.commit(t).1 > 0)
        .expect("the kernel associates a store");
    // ASSOC-ADDR is excluded from progress, so the commit lands exactly
    // on its trigger — a fault just past it lands after the commit.
    assert_eq!(s.commit(t).0, t);
    let triggers = [t / 2, t, t + 300];
    assert_eq!(s.fork_matches_fresh(&triggers, reg_fault(t - 1)), 1);
    assert_eq!(s.fork_matches_fresh(&triggers, reg_fault(t)), 2);
    assert_eq!(s.fork_matches_fresh(&triggers, reg_fault(t + 1)), 2);
}

#[test]
fn fault_before_the_first_commit_forks_from_the_start() {
    let s = Setup::new(2, 5);
    let triggers = uniform_points(s.total(), 5);
    for at in [1, triggers[0] - 1] {
        assert_eq!(s.fork_matches_fresh(&triggers, reg_fault(at)), 0);
    }
    let crash = Fault {
        at_progress: triggers[0] / 2,
        core: CoreId(1),
        kind: FaultKind::Crash,
    };
    assert_eq!(s.fork_matches_fresh(&triggers, crash), 0);
}

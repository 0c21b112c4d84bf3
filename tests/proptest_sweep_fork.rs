//! Fork-vs-fresh equivalence for the sweep's error runs.
//!
//! A `Ckpt_NE`/`ReCkpt_NE` run on an [`Experiment`] leaves an engine
//! snapshot at its last checkpoint commit before the one-error
//! schedule's occurrence, and the next `_E` run on the same experiment
//! starts there instead of from commit 0. That must be invisible: NE
//! then E on one experiment must give the same `RunResult` as E on a
//! fresh experiment, down to the report and the energy bits.
//!
//! The property draws kernels, both policies, both coordination schemes,
//! 1–3 errors, the oracle, 1–2 generations and (global scheme) a
//! recovery-window fault, which a restore must reinstall. A run that panics must
//! panic the same way forked and fresh: one-core local-scheme runs with
//! three errors and the oracle on trip the recovery oracle fresh too, a
//! known engine defect this file does not hide. The deterministic tests
//! pin the edges: a phantom error exactly at a trigger (the commit at
//! that trigger must not be forked from), observed specs, `set_spec`, an
//! E run with nothing to fork from, and the one-snapshot limit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use acr::{Experiment, ExperimentSpec, RunResult};
use acr_ckpt::{
    uniform_points, BerConfig, BerEngine, CampaignConfig, ErrorSchedule, ForkTarget, NoOmission,
    ResilienceConfig, Scheme,
};
use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
use acr_mem::CoreId;
use acr_rng::check::forall;
use acr_sim::{Fault, FaultKind, Machine, MachineConfig, RecoveryFault, RecoveryFaultKind};
use acr_trace::SharedSink;

/// A small store-heavy kernel whose stored values are Slice-recomputable,
/// with a re-written accumulator word; each thread writes its own region,
/// so the local scheme keeps one group per core.
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

fn spec(threads: u32, checkpoints: u32) -> ExperimentSpec {
    ExperimentSpec::default()
        .with_cores(threads)
        .with_checkpoints(checkpoints)
}

/// Runs `errors` errors under ACR (`amnesic`) or the baseline.
fn run(exp: &mut Experiment, amnesic: bool, errors: u32) -> RunResult {
    if amnesic {
        exp.run_reckpt(errors).expect("runs")
    } else {
        exp.run_ckpt(errors).expect("runs")
    }
}

/// Asserts two run results match byte for byte: every field through
/// `Debug` (report, statistics, profile, ledger) and the floating-point
/// results by their bits.
fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
    assert_eq!(
        a.energy.total_joules().to_bits(),
        b.energy.total_joules().to_bits(),
        "{what}: energy"
    );
    assert_eq!(a.edp.to_bits(), b.edp.to_bits(), "{what}: edp");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{what}: seconds");
}

/// A run's result, or the message it panicked with.
fn outcome(run: impl FnOnce() -> RunResult) -> Result<RunResult, String> {
    catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_owned()))
            .unwrap_or_default()
    })
}

/// `errors` errors on a fresh experiment over `program` and `spec`.
fn fresh(program: &Program, spec: &ExperimentSpec, amnesic: bool, errors: u32) -> RunResult {
    let mut exp = Experiment::new(program.clone(), spec.clone()).expect("valid kernel");
    let r = run(&mut exp, amnesic, errors);
    assert_eq!(exp.held_fork(), None, "an error run keeps no snapshot");
    r
}

#[test]
fn forked_error_runs_match_fresh_error_runs() {
    let mut forks = 0;
    forall(
        "forked_error_runs_match_fresh_error_runs",
        24,
        0x5EED_5EE9,
        |rng| {
            let threads = rng.gen_range(1..=3u32);
            let program = kernel(
                threads as usize,
                rng.gen_range(20..=60u64),
                rng.gen_range(3..=17u64) | 1,
            );
            let amnesic = rng.gen_range(0..=1u32) == 1;
            let scheme = if rng.gen_range(0..=1u32) == 1 {
                Scheme::LocalCoordinated
            } else {
                Scheme::GlobalCoordinated
            };
            let errors = rng.gen_range(1..=3u32);
            let kinds = [
                RecoveryFaultKind::ReplayInput { bit: 5 },
                RecoveryFaultKind::RestoredWordFlip { bit: 9 },
                RecoveryFaultKind::TornRecord { bit: 3 },
                RecoveryFaultKind::CrashMidRestore,
                RecoveryFaultKind::TornCommit,
            ];
            let recovery_faults = match rng.gen_range(0..=kinds.len()) {
                k if k < kinds.len() && scheme == Scheme::GlobalCoordinated => {
                    vec![RecoveryFault {
                        at_recovery: 0,
                        kind: kinds[k],
                    }]
                }
                _ => Vec::new(),
            };
            let s = spec(threads, rng.gen_range(2..=12u32))
                .with_scheme(scheme)
                .with_oracle(rng.gen_range(0..=1u32) == 1)
                .with_resilience(ResilienceConfig {
                    generations: rng.gen_range(1..=2u32),
                    recovery_faults,
                    ..ResilienceConfig::default()
                });
            let mut exp = Experiment::new(program.clone(), s.clone()).expect("valid kernel");
            let ne = run(&mut exp, amnesic, 0);
            let (label, progress) = exp.held_fork().expect("two commits precede the error");
            assert_eq!(label, if amnesic { "ReCkpt" } else { "Ckpt" });
            let at = uniform_points(ne.sim.retired, 1)[0];
            assert!(progress < at, "fork at {progress}, error at {at}");
            if uniform_points(ne.sim.retired, errors)[0] > progress {
                forks += 1;
            }
            let forked = outcome(|| run(&mut exp, amnesic, errors));
            assert_eq!(exp.held_fork(), None, "the error run consumes the snapshot");
            let what = format!(
                "threads {threads} amnesic {amnesic} {scheme:?} errors {errors} oracle {} \
                 generations {} checkpoints {} recovery faults {:?}",
                s.oracle, s.resilience.generations, s.num_checkpoints, s.resilience.recovery_faults
            );
            match (forked, outcome(|| fresh(&program, &s, amnesic, errors))) {
                (Ok(forked), Ok(fresh)) => assert_same(&forked, &fresh, &what),
                (forked, fresh) => assert_eq!(
                    forked.err(),
                    fresh.err(),
                    "{what}: forked and fresh must fail alike"
                ),
            }
            // The snapshot left the fault-free run itself untouched.
            let mut again = Experiment::new(program, s.clone()).expect("valid kernel");
            assert_same(&run(&mut again, amnesic, 0), &ne, &what);
        },
    );
    assert!(forks >= 8, "only {forks} draws forked");
}

#[test]
fn phantom_error_at_a_trigger_forks_from_the_commit_before() {
    // With an odd checkpoint count the middle trigger is exactly the
    // one-error occurrence: 5 checkpoints put trigger 3 at total/2.
    let program = kernel(2, 40, 7);
    let s = spec(2, 5).with_oracle(true);
    let mut exp = Experiment::new(program.clone(), s.clone()).expect("valid kernel");
    let total = exp.total_work().expect("runs");
    let triggers = uniform_points(total, 5);
    let at = uniform_points(total, 1)[0];
    assert_eq!(triggers[2], at, "the tie this test is about");
    exp.run_ckpt(0).expect("runs");
    // The phantom error occurs before the commit at its trigger, so the
    // fork point is the commit before.
    assert_eq!(exp.held_fork(), Some(("Ckpt", triggers[1])));
    let forked = exp.run_ckpt(1).expect("runs");
    assert_same(&forked, &fresh(&program, &s, false, 1), "tie");

    // The shared commit driver draws the line: a real fault at the same
    // point is deferred past the commit at its trigger and may fork from
    // it, a phantom error may not.
    let cfg = BerConfig {
        scheme: Scheme::GlobalCoordinated,
        triggers: triggers.clone(),
        errors: ErrorSchedule::none(),
        oracle: true,
        ..BerConfig::default()
    };
    let kept = |target: ForkTarget| {
        let machine = Machine::new(MachineConfig::with_cores(2), &program);
        let mut driver = BerEngine::new(machine, NoOmission, cfg.clone());
        let mut kept = Vec::new();
        let at_last = driver
            .advance_to_fork_point(target, |_, t| kept.push(t))
            .expect("runs");
        (kept, at_last)
    };
    assert_eq!(kept(ForkTarget::fault(at)), (triggers[..3].to_vec(), true));
    assert_eq!(
        kept(ForkTarget::phantom(at)),
        (triggers[..2].to_vec(), false)
    );
}

#[test]
fn observed_specs_run_fresh_with_identical_output() {
    let program = kernel(2, 40, 5);
    let observed = [
        spec(2, 6).with_profile(true),
        spec(2, 6).with_sample_interval(500),
        spec(2, 6).with_trace(SharedSink::memory().0),
    ];
    for s in observed {
        for amnesic in [false, true] {
            let mut exp = Experiment::new(program.clone(), s.clone()).expect("valid kernel");
            run(&mut exp, amnesic, 0);
            assert_eq!(exp.held_fork(), None, "observed runs keep no snapshot");
            let e = run(&mut exp, amnesic, 1);
            // Each run needs its own sink for a fair comparison.
            let mut s2 = s.clone();
            if s.trace.enabled() {
                s2.trace = SharedSink::memory().0;
            }
            assert_same(&e, &fresh(&program, &s2, amnesic, 1), "observed");
        }
    }
}

#[test]
fn set_spec_drops_the_snapshot() {
    let program = kernel(2, 40, 5);
    let s = spec(2, 8);
    let mut exp = Experiment::new(program.clone(), s.clone()).expect("valid kernel");
    exp.run_reckpt(0).expect("runs");
    assert!(exp.held_fork().is_some());
    exp.set_spec(s.clone());
    assert_eq!(exp.held_fork(), None);
    let e = exp.run_reckpt(1).expect("runs");
    assert_same(&e, &fresh(&program, &s, true, 1), "after set_spec");
    // A changed spec under the same experiment: its E run is its own.
    let s3 = s.with_checkpoints(3);
    exp.run_reckpt(0).expect("runs");
    exp.set_spec(s3.clone());
    let e = exp.run_reckpt(1).expect("runs");
    assert_same(&e, &fresh(&program, &s3, true, 1), "changed spec");
}

#[test]
fn error_run_without_a_prior_fault_free_run_runs_fresh() {
    let program = kernel(2, 40, 9);
    let s = spec(2, 8);
    let mut exp = Experiment::new(program.clone(), s.clone()).expect("valid kernel");
    exp.run_no_ckpt().expect("runs");
    assert_eq!(exp.held_fork(), None);
    let first = exp.run_ckpt(1).expect("runs");
    assert_eq!(exp.held_fork(), None);
    // A Ckpt snapshot does not serve a ReCkpt run.
    exp.run_ckpt(0).expect("runs");
    let re = exp.run_reckpt(1).expect("runs");
    assert_eq!(
        exp.held_fork(),
        None,
        "the other kind's snapshot is dropped"
    );
    assert_same(&re, &fresh(&program, &s, true, 1), "other kind");
    // A fault-free faulted run keeps its snapshot, taken with the oracle
    // forced on, which the spec's oracle-off runs must not use.
    exp.run_reckpt_faulted(Vec::new()).expect("runs");
    assert!(exp.held_fork().is_some());
    assert_same(&exp.run_reckpt(1).expect("runs"), &re, "oracle differs");
    // Nor does a snapshot outlive a fault-injected run.
    exp.run_ckpt(0).expect("runs");
    let fault = Fault {
        at_progress: first.sim.retired / 3,
        core: CoreId(0),
        kind: FaultKind::RegBitFlip { reg: 3, bit: 5 },
    };
    exp.run_reckpt_faulted(vec![fault]).expect("runs");
    assert_eq!(exp.held_fork(), None);
    assert_same(&exp.run_ckpt(1).expect("runs"), &first, "after faulted run");
}

#[test]
fn one_snapshot_is_alive_per_experiment() {
    let program = kernel(2, 40, 11);
    let s = spec(2, 8);
    let mut exp = Experiment::new(program.clone(), s.clone()).expect("valid kernel");
    exp.run_ckpt(0).expect("runs");
    let (_, ckpt_at) = exp.held_fork().expect("kept");
    // A second fault-free run replaces the first one's snapshot.
    exp.run_reckpt(0).expect("runs");
    let (label, reckpt_at) = exp.held_fork().expect("kept");
    assert_eq!(label, "ReCkpt");
    assert_eq!(reckpt_at, ckpt_at, "both stop at the same commit");
    // The Ckpt snapshot is gone: this E run is fresh and drops the
    // ReCkpt one.
    let e = exp.run_ckpt(1).expect("runs");
    assert_eq!(exp.held_fork(), None);
    assert_same(&e, &fresh(&program, &s, false, 1), "fresh E");
    // Campaigns drop a held snapshot too.
    exp.run_ckpt(0).expect("runs");
    let cfg = CampaignConfig {
        count: 2,
        num_checkpoints: 4,
        ..CampaignConfig::default()
    };
    exp.run_fault_campaign(&cfg, false).expect("runs");
    assert_eq!(exp.held_fork(), None);
}

//! Deterministic multi-workload sweep drivers.
//!
//! The CLI's `inject`, `trace` and `profile` subcommands all iterate a
//! list of independent workloads; this module shards that outer loop
//! across worker threads with the same jobs-invariance guarantee as the
//! per-case campaign parallelism in `acr-ckpt`: results come back in
//! item order, every worker builds its own `Experiment` (and, when
//! tracing, its own in-memory `TraceSink`) inside the worker thread, and
//! only plain data crosses the thread boundary.
//!
//! [`ExperimentSpec`] is deliberately `!Send` (it carries the `Rc`-based
//! [`SharedSink`]), so sweeps take a *spec factory* closure — called
//! once per item, in the worker — instead of prebuilt specs. The
//! compiler thereby enforces the per-worker isolation the deterministic
//! merge relies on.

use acr_ckpt::{CampaignConfig, ParallelRunner};
use acr_isa::Program;
use acr_sim::Fault;
use acr_trace::{SharedSink, Stopwatch, TraceEvent, WorkerLoad};

use crate::experiment::{
    CampaignRunResult, Experiment, ExperimentError, ExperimentSpec, RunResult,
};

/// One workload of a fault-campaign sweep (`acr_cli inject`).
#[derive(Debug, Clone)]
pub struct CampaignSweepItem {
    /// Display name (also how spec factories identify the workload).
    pub name: String,
    /// The raw (uninstrumented) workload program.
    pub program: Program,
    /// Campaign parameters. [`CampaignConfig::jobs`] is ignored: the
    /// sweep divides its worker budget between workloads and per-case
    /// shards itself (see [`run_campaign_sweep`]).
    pub campaign: CampaignConfig,
    /// ACR policy (`true`) or the non-amnesic log-only baseline.
    pub amnesic: bool,
}

/// Per-item outcome of [`run_campaign_sweep`], in item order.
#[derive(Debug)]
pub struct CampaignSweepOutcome {
    /// The item's name.
    pub name: String,
    /// The campaign result, or why this item failed (other items still
    /// run — a sweep never drops results behind an early failure).
    pub run: Result<CampaignRunResult, ExperimentError>,
    /// Host wall time this item took, in nanoseconds. Observability only
    /// (feeds `host.phase.<name>.ns` in run manifests); never part of the
    /// compared report.
    pub host_ns: u64,
}

/// Runs one fault campaign per item, sharding `jobs` worker threads
/// across the sweep: with more items than workers the parallelism lives
/// at the workload level; with more workers than items the surplus is
/// handed down as per-case campaign shards (`CampaignConfig::jobs`), so
/// a single-workload sweep still scales. Outcomes return in item order
/// and every report is byte-identical for every `jobs` value (0 = auto).
///
/// Also returns the workload-level workers' loads (one per outer worker;
/// observability only, like [`ParallelRunner::run_sharded_loads`]). The
/// per-case shards' own loads stay in each outcome's
/// [`CampaignRunResult::host_loads`].
pub fn run_campaign_sweep<S>(
    items: &[CampaignSweepItem],
    jobs: usize,
    spec_for: S,
) -> (Vec<CampaignSweepOutcome>, Vec<WorkerLoad>)
where
    S: Fn(&CampaignSweepItem) -> ExperimentSpec + Sync,
{
    let budget = ParallelRunner::new(jobs).jobs();
    let outer = budget.min(items.len()).max(1);
    let inner = (budget / outer).max(1);
    let (outcomes, _, loads) = ParallelRunner::new(outer).run_sharded_loads(
        items.len(),
        || (),
        |i, ()| {
            let item = &items[i];
            let sw = Stopwatch::start();
            let run = Experiment::new(item.program.clone(), spec_for(item)).and_then(|mut exp| {
                let mut cfg = item.campaign.clone();
                cfg.jobs = inner;
                exp.run_fault_campaign(&cfg, item.amnesic)
            });
            CampaignSweepOutcome {
                name: item.name.clone(),
                run,
                host_ns: sw.elapsed_ns(),
            }
        },
    );
    (outcomes, loads)
}

/// One workload of a faulted-run sweep (`acr_cli trace` / `profile`).
#[derive(Debug, Clone)]
pub struct FaultedSweepItem {
    /// Display name (also how spec/fault factories identify the
    /// workload).
    pub name: String,
    /// The raw (uninstrumented) workload program.
    pub program: Program,
}

/// What one faulted run produced (see [`run_faulted_sweep`]).
#[derive(Debug, Clone)]
pub struct FaultedRun {
    /// The `ReCkpt_F` run result (report, profile, ledger as enabled by
    /// the spec).
    pub result: RunResult,
    /// Events captured by the per-worker in-memory trace sink (empty
    /// when tracing was off).
    pub events: Vec<TraceEvent>,
    /// The instrumented binary the run executed (for flamegraph region
    /// labels).
    pub instrumented: Program,
}

/// Per-item outcome of [`run_faulted_sweep`], in item order.
#[derive(Debug)]
pub struct FaultedSweepOutcome {
    /// The item's name.
    pub name: String,
    /// The run, or why this item failed.
    pub run: Result<FaultedRun, ExperimentError>,
    /// Host wall time this item took, in nanoseconds (observability
    /// only; see [`CampaignSweepOutcome::host_ns`]).
    pub host_ns: u64,
}

/// Runs [`Experiment::run_reckpt_faulted`] once per item across `jobs`
/// workers (0 = auto). `faults_for` receives the item plus its
/// fault-free total work (which each worker measures itself) and returns
/// the faults to inject. `trace_detail: Some(detail)` attaches a fresh
/// in-memory trace sink per worker — sinks are `Rc`-based and must never
/// be shared across workloads, which is also why traced events come back
/// *per item* instead of interleaved.
pub fn run_faulted_sweep<S, Ff>(
    items: &[FaultedSweepItem],
    jobs: usize,
    trace_detail: Option<bool>,
    spec_for: S,
    faults_for: Ff,
) -> Vec<FaultedSweepOutcome>
where
    S: Fn(&FaultedSweepItem) -> ExperimentSpec + Sync,
    Ff: Fn(&FaultedSweepItem, u64) -> Vec<Fault> + Sync,
{
    ParallelRunner::new(jobs).run_ordered(items.len(), |i| {
        let item = &items[i];
        let sw = Stopwatch::start();
        let run: Result<FaultedRun, ExperimentError> = (|| {
            let mut spec = spec_for(item);
            let recorder = trace_detail.map(|detail| {
                let (sink, handle) = SharedSink::memory();
                spec.trace = sink.with_detail(detail);
                handle
            });
            let mut exp = Experiment::new(item.program.clone(), spec)?;
            let total = exp.total_work()?;
            let result = exp.run_reckpt_faulted(faults_for(item, total))?;
            let events = recorder
                .map(|h| h.borrow().events().to_vec())
                .unwrap_or_default();
            let instrumented = exp.instrumented().0.clone();
            Ok(FaultedRun {
                result,
                events,
                instrumented,
            })
        })();
        FaultedSweepOutcome {
            name: item.name.clone(),
            run,
            host_ns: sw.elapsed_ns(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_isa::{AluOp, ProgramBuilder, Reg};
    use acr_mem::CoreId;
    use acr_sim::FaultKind;

    fn kernel(threads: usize, iters: u64) -> Program {
        let mut b = ProgramBuilder::new(threads);
        b.set_mem_bytes(1 << 20);
        for t in 0..threads as u32 {
            let base = u64::from(t) * 131072;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let outer = tb.begin_loop(Reg(8), Reg(9), 12);
            let l = tb.begin_loop(Reg(1), Reg(2), iters);
            tb.alui(AluOp::Mul, Reg(3), Reg(1), 13);
            tb.alu(AluOp::Xor, Reg(3), Reg(3), Reg(8));
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.store(Reg(3), Reg(5), 0);
            tb.end_loop(l);
            tb.end_loop(outer);
            tb.halt();
        }
        b.build()
    }

    fn items() -> Vec<CampaignSweepItem> {
        ["a", "b", "c"]
            .iter()
            .enumerate()
            .map(|(i, name)| CampaignSweepItem {
                name: (*name).to_owned(),
                program: kernel(2, 40 + 10 * i as u64),
                campaign: CampaignConfig {
                    seed: 42 + i as u64,
                    count: 6,
                    num_checkpoints: 5,
                    ..CampaignConfig::default()
                },
                amnesic: true,
            })
            .collect()
    }

    /// The whole sweep — reports, hashes, recovery energy — is identical
    /// for every jobs value, including the budget-split cases (more
    /// workers than items hand the surplus to per-case shards).
    #[test]
    fn campaign_sweep_is_jobs_invariant() {
        let items = items();
        let spec =
            |_: &CampaignSweepItem| ExperimentSpec::default().with_cores(2).with_checkpoints(5);
        let seq = run_campaign_sweep(&items, 1, spec).0;
        assert_eq!(seq.len(), 3);
        for jobs in [2usize, 4, 8] {
            let par = run_campaign_sweep(&items, jobs, spec).0;
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.name, p.name, "jobs={jobs}");
                let (s, p) = (
                    s.run.as_ref().expect("sweep runs"),
                    p.run.as_ref().expect("sweep runs"),
                );
                assert_eq!(s.report, p.report, "jobs={jobs}");
                assert_eq!(s.report.content_hash(), p.report.content_hash());
                assert_eq!(
                    s.recovery_energy_joules.to_bits(),
                    p.recovery_energy_joules.to_bits(),
                    "jobs={jobs}"
                );
            }
        }
    }

    /// Faulted sweeps return per-item results in item order, with
    /// per-worker trace sinks that never interleave events across items.
    #[test]
    fn faulted_sweep_is_jobs_invariant_and_traces_per_item() {
        let items: Vec<FaultedSweepItem> = ["x", "y"]
            .iter()
            .enumerate()
            .map(|(i, name)| FaultedSweepItem {
                name: (*name).to_owned(),
                program: kernel(2, 50 + 20 * i as u64),
            })
            .collect();
        let spec =
            |_: &FaultedSweepItem| ExperimentSpec::default().with_cores(2).with_checkpoints(5);
        let faults = |_: &FaultedSweepItem, total: u64| {
            vec![Fault {
                at_progress: total / 2,
                core: CoreId(0),
                kind: FaultKind::RegBitFlip { reg: 5, bit: 3 },
            }]
        };
        let seq = run_faulted_sweep(&items, 1, Some(false), spec, faults);
        let par = run_faulted_sweep(&items, 4, Some(false), spec, faults);
        assert_eq!(seq.len(), 2);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.name, p.name);
            let (s, p) = (
                s.run.as_ref().expect("sweep runs"),
                p.run.as_ref().expect("sweep runs"),
            );
            assert_eq!(s.result.cycles, p.result.cycles);
            assert_eq!(s.events, p.events, "traced events must be jobs-invariant");
            assert!(!s.events.is_empty(), "tracing was on");
            assert_eq!(s.instrumented, p.instrumented);
        }
    }
}

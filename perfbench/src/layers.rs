//! Outside-in layer instrumentation: wrappers attached at the crates'
//! public seams, plus isolated probes that time one layer on the
//! workload's own programs.
//!
//! Nothing here reaches inside a crate. The `core` layer is timed by
//! wrapping `AcrPolicy` in [`TimedPolicy`]; the `ckpt` engine is timed by
//! the lifetime of each policy instance (one instance per engine run);
//! `isa`, `sim` and `mem` are timed by [`probe`], which re-runs the
//! fault-free program through each layer alone.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use acr_ckpt::{OmissionPolicy, OmitReason, Recomputed};
use acr_isa::interp::Interp;
use acr_isa::{Program, SliceId};
use acr_mem::{CoreId, MemStats, MemSystem, WordAddr};
use acr_sim::{AssocEvent, ExecHooks, Machine, MachineConfig, NoHooks, StoreEvent};
use acr_trace::MetricsRegistry;

/// The `OmissionPolicy` calls timed by [`TimedPolicy`], in report order.
pub const SEAMS: [&str; 6] = [
    "on_store",
    "on_assoc",
    "try_omit",
    "recompute",
    "on_checkpoint",
    "on_rollback",
];

const ON_STORE: usize = 0;
const ON_ASSOC: usize = 1;
/// Index of `try_omit` in [`SEAMS`].
pub const TRY_OMIT: usize = 2;
const RECOMPUTE: usize = 3;
const ON_CHECKPOINT: usize = 4;
const ON_ROLLBACK: usize = 5;

/// Interpreter fuel for the isolated `isa` probe (the campaign default).
const INTERP_FUEL: u64 = 1 << 32;

/// Stores kept from the hooked stream for the `mem` replay. Bounds the
/// probe's memory on the full-scale sweep kernels.
const STORE_SAMPLE_CAP: usize = 1 << 20;

/// Shared tallies of one traced pass. Policies accumulate locally and
/// fold in when dropped, so the atomics are touched once per engine run.
/// `Relaxed` suffices: the counters publish no other data, and every
/// worker is joined before the tallies are read.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: [AtomicU64; 6],
    ns: [AtomicU64; 6],
    omitted: AtomicU64,
    engine_runs: AtomicU64,
    engine_ns: AtomicU64,
}

/// A snapshot of a [`LayerClock`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreTally {
    /// Calls per seam, in [`SEAMS`] order.
    pub calls: [u64; 6],
    /// Host nanoseconds per seam, in [`SEAMS`] order.
    pub ns: [u64; 6],
    /// `try_omit` calls that omitted.
    pub omitted: u64,
    /// Engine runs observed (policy instances dropped, plus runs timed
    /// directly with [`LayerClock::add_engine_run`]).
    pub engine_runs: u64,
    /// Host nanoseconds inside those engine runs.
    pub engine_ns: u64,
}

impl CoreTally {
    /// Host nanoseconds spent in every policy call.
    pub fn core_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

impl LayerClock {
    /// Records one engine run timed by its caller (runs whose policy is
    /// not wrapped, such as the `NoOmission` baseline).
    pub fn add_engine_run(&self, ns: u64) {
        self.engine_runs.fetch_add(1, Ordering::Relaxed);
        self.engine_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// The tallies so far.
    pub fn tally(&self) -> CoreTally {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CoreTally {
            calls: self.calls.each_ref().map(load),
            ns: self.ns.each_ref().map(load),
            omitted: load(&self.omitted),
            engine_runs: load(&self.engine_runs),
            engine_ns: load(&self.engine_ns),
        }
    }
}

/// An `OmissionPolicy` that forwards every call to `inner` and times the
/// six seams the engine drives. Observational: every return value is the
/// inner policy's, so a traced run must reproduce the untraced hashes.
/// Its lifetime spans exactly one engine run, which times the `ckpt`
/// engine from outside.
pub struct TimedPolicy<'c, P> {
    inner: P,
    clock: &'c LayerClock,
    born: Instant,
    calls: [u64; 6],
    ns: [u64; 6],
    omitted: u64,
}

impl<'c, P: OmissionPolicy> TimedPolicy<'c, P> {
    /// Wraps `inner`, folding its tallies into `clock` when dropped.
    pub fn new(inner: P, clock: &'c LayerClock) -> Self {
        TimedPolicy {
            inner,
            clock,
            born: Instant::now(),
            calls: [0; 6],
            ns: [0; 6],
            omitted: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn timed<R>(&mut self, seam: usize, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.ns[seam] += t.elapsed().as_nanos() as u64;
        self.calls[seam] += 1;
        r
    }
}

impl<P> Drop for TimedPolicy<'_, P> {
    fn drop(&mut self) {
        let c = self.clock;
        for i in 0..SEAMS.len() {
            c.calls[i].fetch_add(self.calls[i], Ordering::Relaxed);
            c.ns[i].fetch_add(self.ns[i], Ordering::Relaxed);
        }
        c.omitted.fetch_add(self.omitted, Ordering::Relaxed);
        c.add_engine_run(self.born.elapsed().as_nanos() as u64);
    }
}

impl<P: OmissionPolicy> OmissionPolicy for TimedPolicy<'_, P> {
    fn on_store(&mut self, core: u32, addr: WordAddr, epoch: u64) {
        self.timed(ON_STORE, |p| p.on_store(core, addr, epoch));
    }

    fn on_assoc(&mut self, ev: &AssocEvent, epoch: u64) -> u64 {
        self.timed(ON_ASSOC, |p| p.on_assoc(ev, epoch))
    }

    fn try_omit(&mut self, first_updater: u32, addr: WordAddr, epoch: u64) -> Option<u32> {
        let r = self.timed(TRY_OMIT, |p| p.try_omit(first_updater, addr, epoch));
        self.omitted += u64::from(r.is_some());
        r
    }

    fn recompute(&mut self, addr: WordAddr, epoch: u64) -> Option<Recomputed> {
        self.timed(RECOMPUTE, |p| p.recompute(addr, epoch))
    }

    fn on_checkpoint(&mut self, sealed_epoch: u64) {
        self.timed(ON_CHECKPOINT, |p| p.on_checkpoint(sealed_epoch));
    }

    fn on_rollback(&mut self, safe_epoch: u64, victim_mask: u64) {
        self.timed(ON_ROLLBACK, |p| p.on_rollback(safe_epoch, victim_mask));
    }

    fn classify(
        &self,
        core: u32,
        pc: u32,
        addr: WordAddr,
        epoch: u64,
        omitted: bool,
    ) -> (OmitReason, Option<SliceId>) {
        self.inner.classify(core, pc, addr, epoch, omitted)
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.publish_metrics(reg);
    }

    fn occupancy(&self) -> Option<(u64, u64)> {
        self.inner.occupancy()
    }

    fn overlaps_restore(&self) -> bool {
        self.inner.overlaps_restore()
    }
}

/// Counts the store and assoc events a fault-free run retires and keeps
/// a bounded sample of the store stream for the `mem` replay. Charges no
/// cycles, so the run stays cycle-identical to an unhooked one.
#[derive(Default)]
struct StoreTap {
    stores: u64,
    assocs: u64,
    sample: Vec<(u32, WordAddr, u64)>,
}

impl ExecHooks for StoreTap {
    fn on_store(&mut self, ev: StoreEvent) -> u64 {
        self.stores += 1;
        if self.sample.len() < STORE_SAMPLE_CAP {
            self.sample.push((ev.core.0, ev.addr, ev.new));
        }
        0
    }

    fn on_assoc(&mut self, _ev: AssocEvent) -> u64 {
        self.assocs += 1;
        0
    }
}

/// One program's layers, each timed alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Instructions the reference interpreter retired.
    pub interp_instrs: u64,
    /// Host nanoseconds of the interpreter run.
    pub interp_ns: u64,
    /// Simulated cycles of the fault-free `Machine::run`.
    pub cycles: u64,
    /// Instructions it retired.
    pub retired: u64,
    /// Host nanoseconds of that run (no hooks attached).
    pub sim_ns: u64,
    /// Stores the hooked re-run observed.
    pub stores: u64,
    /// `ASSOC-ADDR`s the hooked re-run observed.
    pub assocs: u64,
    /// Simulated memory-system counters of the fault-free run.
    pub mem: MemStats,
    /// Stores replayed through a fresh `MemSystem`.
    pub replayed_stores: u64,
    /// Host nanoseconds of that replay.
    pub replay_ns: u64,
}

impl Probe {
    /// Host nanoseconds per simulated cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        ratio(self.sim_ns as f64, self.cycles as f64)
    }

    /// Host nanoseconds per retired instruction.
    pub fn ns_per_instr(&self) -> f64 {
        ratio(self.sim_ns as f64, self.retired as f64)
    }

    /// Folds another program's probe in (counts and times add).
    pub fn add(&mut self, o: &Probe) {
        self.interp_instrs += o.interp_instrs;
        self.interp_ns += o.interp_ns;
        self.cycles += o.cycles;
        self.retired += o.retired;
        self.sim_ns += o.sim_ns;
        self.stores += o.stores;
        self.assocs += o.assocs;
        self.mem.add(&o.mem);
        self.replayed_stores += o.replayed_stores;
        self.replay_ns += o.replay_ns;
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Times `program`'s reference interpretation, its fault-free simulation,
/// and its store stream replayed through the memory system alone.
///
/// # Errors
///
/// The interpreter or simulator failing on the program, or the hooked
/// re-run disagreeing with the unhooked one (the hook would then not be
/// observational).
pub fn probe(program: &Program, machine: MachineConfig) -> Result<Probe, String> {
    let t = Instant::now();
    let mut interp = Interp::new(program);
    interp
        .run_to_completion(INTERP_FUEL)
        .map_err(|e| format!("interpreter: {e}"))?;
    let interp_ns = t.elapsed().as_nanos() as u64;
    let interp_instrs = interp.retired().iter().sum();
    drop(interp);

    let mut m = Machine::new(machine, program);
    let t = Instant::now();
    m.run(&mut NoHooks, u64::MAX)
        .map_err(|e| format!("simulator: {e}"))?;
    let sim_ns = t.elapsed().as_nanos() as u64;
    let (cycles, retired, mem) = (m.cycles(), m.stats().retired, *m.mem().stats());
    drop(m);

    let mut tap = StoreTap::default();
    let mut m = Machine::new(machine, program);
    m.run(&mut tap, u64::MAX)
        .map_err(|e| format!("simulator: {e}"))?;
    if m.cycles() != cycles || tap.stores != m.stats().stores || tap.assocs != m.stats().assocs {
        return Err("the hooked fault-free run diverged from the unhooked one".into());
    }
    drop(m);

    let mut sys = MemSystem::new(machine.mem, machine.num_cores, program.mem_bytes());
    let t = Instant::now();
    for &(core, addr, value) in &tap.sample {
        black_box(sys.store(CoreId(core), black_box(addr), value));
    }
    let replay_ns = t.elapsed().as_nanos() as u64;

    Ok(Probe {
        interp_instrs,
        interp_ns,
        cycles,
        retired,
        sim_ns,
        stores: tap.stores,
        assocs: tap.assocs,
        mem,
        replayed_stores: tap.sample.len() as u64,
        replay_ns,
    })
}

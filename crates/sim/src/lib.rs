//! # acr-sim — multicore timing simulator
//!
//! The paper implements ACR in Snipersim (Table I): in-order 4-issue cores
//! at 1.09 GHz with 8 outstanding loads/stores, per-core L1-I/L1-D/L2 and
//! directory coherence. This crate is our Sniper substitute:
//!
//! * [`CoreModel`] — an in-order, multi-issue core approximation with a
//!   register scoreboard and a bounded load/store queue (non-blocking
//!   misses overlap until a dependent use or a full LSQ stalls issue),
//! * [`Machine`] — N cores over an `acr-mem` [`acr_mem::MemSystem`],
//!   scheduled deterministically by local time with a bounded skew quantum
//!   (results are bit-for-bit reproducible),
//! * [`ExecHooks`] — the instrumentation surface the checkpoint/recovery
//!   engine (`acr-ckpt`) and ACR (`acr`) attach to: store events for
//!   first-update logging, `ASSOC-ADDR` events for `AddrMap` maintenance,
//! * [`MachineConfig`] — Table I parameters, printable via
//!   [`MachineConfig::table_i`].
//!
//! Functional correctness of the timing simulator is tested against the
//! `acr-isa` reference interpreter: both must produce identical final
//! memory images for the same program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core_model;
mod fault;
mod hooks;
mod machine;
mod profile;
mod stats;

pub use config::MachineConfig;
pub use core_model::{CoreModel, CoreSnapshot};
pub use fault::{
    Fault, FaultEffect, FaultKind, FaultKindSet, FaultPlan, FaultPlanConfig, FaultStorm,
    RecoveryFault, RecoveryFaultKind, StuckCell, BURST_MAX_SPAN, PC_FAULT_BITS,
};
pub use hooks::{AssocEvent, ExecHooks, NoHooks, StoreCensus, StoreEvent, TracingHooks};
pub use machine::{Machine, MachineState, RunOutcome, SimError};
pub use profile::{PcCounters, PcProfile, RetireClass};
pub use stats::SimStats;

/// Scheduling ticks per core cycle (one tick is one issue slot of the
/// 4-issue core).
pub const TICKS_PER_CYCLE: u64 = 4;

/// Thread-safety audit for the parallel campaign runner (`acr-ckpt`'s
/// `parallel` module). Everything a worker thread *receives* — programs,
/// configs, planned faults, census results, snapshots, stats — must be
/// `Send + Sync`; these assertions turn that contract into a compile
/// error if a future change (say, an `Rc` in a config) silently breaks
/// it.
///
/// [`Machine`] is deliberately **not** on the list: it holds the
/// `Rc`-based trace sink (`acr_trace::SharedSink`) and is therefore
/// `!Send` by design. Workers must construct their own `Machine` inside
/// the worker closure — the compiler enforces that a machine can never
/// migrate between threads, which is exactly the isolation the
/// deterministic sharded campaign relies on.
#[allow(dead_code)]
fn _send_sync_audit() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<acr_isa::Program>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<Fault>();
    assert_send_sync::<FaultKind>();
    assert_send_sync::<FaultKindSet>();
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<FaultPlanConfig>();
    assert_send_sync::<FaultStorm>();
    assert_send_sync::<StuckCell>();
    assert_send_sync::<RecoveryFault>();
    assert_send_sync::<RecoveryFaultKind>();
    assert_send_sync::<StoreCensus>();
    assert_send_sync::<CoreSnapshot>();
    assert_send_sync::<SimStats>();
    assert_send_sync::<SimError>();
    assert_send_sync::<PcProfile>();
}

//! # acr-mem — memory subsystem substrate
//!
//! The ACR paper evaluates on Sniper's memory hierarchy (Table I): per-core
//! L1-I/L1-D/L2 write-back caches with LRU replacement, directory-based
//! cache coherence, and one memory controller per four cores at
//! 7.6 GB/s. None of that exists as reusable Rust infrastructure, so this
//! crate implements it:
//!
//! * [`cache`] — set-associative LRU caches (timing/state only; data values
//!   live in the functional memory image, the standard decoupled
//!   functional/timing split also used by Sniper),
//! * [`dir`] — a directory tracking per-line owner/sharer state, providing
//!   invalidations, downgrades and coherence-message accounting,
//! * [`dram`] — the functional memory image plus per-controller bandwidth
//!   and latency modelling,
//! * [`log`] — the in-memory checkpoint log: per-word *logged* bits (the
//!   paper's `log` bit, extended to word granularity per `DESIGN.md`),
//!   old-value records, and *omitted* records for values ACR excluded,
//! * [`sharing`] — inter-core communication tracking at word granularity
//!   (needed by coordinated *local* checkpointing, Section V-E),
//! * `system` — [`MemSystem`], the facade the core model talks to.
//!
//! All state-changing operations return latency in core cycles and update
//! [`MemStats`] event counters that the `acr-energy` crate converts to
//! energy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod cache;
pub mod dir;
pub mod dram;
pub mod log;
pub mod sharing;
mod stats;
mod system;

pub use addr::{LineAddr, WordAddr, LINE_BYTES, WORDS_PER_LINE};
pub use dir::MAX_CORES;
pub use dram::{ImageSnapshot, CHUNK_WORDS};
pub use log::{record_check, LogController, LogEpoch, LogRecord, OmittedRecord, LOG_RECORD_BYTES};
pub use stats::MemStats;
pub use system::{AccessKind, CoreId, FlushStats, MemConfig, MemSnapshot, MemSystem};

//! # acr-trace — deterministic cycle-stamped tracing & unified metrics
//!
//! The observability substrate of the ACR reproduction: what Sniper+McPAT's
//! built-in instrumentation gave the paper's authors for free. The crate is
//! dependency-free (pure `std`) so every other layer — `acr-mem`,
//! `acr-sim`, `acr-ckpt`, `acr-energy`, `acr` — can depend on it without
//! cycles.
//!
//! ## Determinism contract
//!
//! Every timestamp is a **simulated core cycle** — no wall clock, no host
//! randomness, no hash-map iteration order. Two runs with the same seed
//! produce byte-identical trace and metrics exports. Exporters therefore
//! use only [`u64`] metric values and `BTreeMap`-ordered keys.
//!
//! The one deliberate exception is the host-performance module
//! ([`Stopwatch`], [`HostPerf`], [`WorkerLoad`]): it measures how fast the
//! simulator itself runs on the host, publishes under `host.*` keys only,
//! and its numbers never enter content hashes or sim-deterministic
//! exports. Run manifests ([`Manifest`]) carry both worlds side by side —
//! byte-exact sim sections, tolerance-banded host sections — and
//! [`diff_manifests`] compares them accordingly.
//!
//! ## Zero cost when disabled
//!
//! The default [`SharedSink::disabled`] records nothing and every emission
//! site guards on a cached `enabled()` bool; tracing is purely
//! observational (hooks charge no simulated cycles), so an untraced run is
//! cycle-for-cycle and hash-for-hash identical to a traced one.
//!
//! ## Event taxonomy
//!
//! * **Spans** (`ph:"X"` in Chrome terms) — durations: checkpoint commits,
//!   checkpoint intervals, recoveries with restore/slice-replay sub-spans,
//!   cache flushes.
//! * **Instants** (`ph:"i"`) — points: fault injections, barrier releases,
//!   detail-gated store/assoc/coherence events.
//! * **Counter samples** (`ph:"C"`) — the [`MetricsRegistry`] snapshotted
//!   by a [`Sampler`] every K cycles into a [`TimeSeries`].
//!
//! ```
//! use acr_trace::{chrome_trace_json, MetricsRegistry, Sampler, SharedSink, TraceEvent};
//!
//! let (sink, handle) = SharedSink::memory();
//! sink.emit(TraceEvent::span("ckpt", "ckpt", acr_trace::TRACK_ENGINE, 100, 40));
//! let mut reg = MetricsRegistry::new();
//! reg.set("mem.l1d.hits", 17);
//! let mut sampler = Sampler::new(50);
//! sampler.record(100, &reg);
//! let json = chrome_trace_json(handle.borrow().events(), Some(sampler.series()));
//! assert!(json.contains("\"ph\":\"X\""));
//! assert!(json.contains("mem.l1d.hits"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chrome;
mod event;
mod hash;
mod hist;
mod json;
mod manifest;
mod metrics;
mod perf;
mod recorder;

pub use chrome::chrome_trace_json;
pub use event::{
    EventKind, MemorySink, SharedSink, TraceEvent, TraceSink, MAX_ARGS, TRACK_ENGINE, TRACK_MEM,
};
pub use hash::{fnv1a, Fnv1a, FNV_OFFSET, FNV_PRIME};
pub use hist::{Histogram, NUM_BUCKETS, SUB_BITS};
pub use json::{parse_json, validate_chrome_trace, ChromeSummary, Json, JsonStyle};
pub use manifest::{
    diff_manifests, median, BenchStats, DiffOptions, DiffReport, Manifest, MANIFEST_SCHEMA,
};
pub use metrics::{MetricsRegistry, Sample, Sampler, TimeSeries};
pub use perf::{merge_loads, peak_rss_bytes, per_second, HostPerf, Stopwatch, WorkerLoad};
pub use recorder::{FlightRecorder, Ring, DEFAULT_CORE_RING, DEFAULT_GLOBAL_RING};

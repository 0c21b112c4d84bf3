//! Always-on flight recorder: fixed-capacity ring buffers of the last K
//! [`TraceEvent`]s.
//!
//! A campaign case cannot afford a full [`MemorySink`](crate::MemorySink)
//! (unbounded memory) but diagnosing a divergent case after the fact needs
//! the events *leading up to* the failure. The [`FlightRecorder`] is the
//! black box in between: one bounded [`Ring`] per core plus one global
//! ring (engine/memory tracks), each preallocated once and overwritten in
//! strict FIFO order, so recording an event never allocates and the
//! retained window is exactly the last K events per track group.
//!
//! ## Determinism & non-perturbation
//!
//! The recorder is a [`TraceSink`]: it sees the same event stream a
//! [`MemorySink`](crate::MemorySink) would, in the same emission order,
//! and stores [`Copy`] events verbatim. Tracing is observational (emission
//! sites charge no simulated cycles), so a recorder-backed run is
//! cycle-identical and hash-identical to an untraced one — the property
//! the postmortem pipeline relies on and CI pins.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{SharedSink, TraceEvent, TraceSink};

/// Default per-core ring capacity (events). Sized so the window spans
/// several checkpoint intervals of low-volume span events.
pub const DEFAULT_CORE_RING: usize = 128;

/// Default global-ring capacity (events): the engine/memory tracks carry
/// the checkpoint/recovery timeline, which is the part postmortems lean
/// on most.
pub const DEFAULT_GLOBAL_RING: usize = 512;

/// A fixed-capacity FIFO ring of [`TraceEvent`]s.
///
/// The backing store is allocated once at construction; pushes overwrite
/// the oldest event deterministically (pure modular arithmetic, no
/// reallocation, no drops observable from the outside beyond the
/// [`Ring::dropped`] counter).
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index the next event is written to once the ring is full.
    next: usize,
    /// Total events ever pushed (including overwritten ones).
    total: u64,
}

impl Ring {
    /// An empty ring retaining the last `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Capacity (the K in "last K events").
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events that have been overwritten (`total - len`).
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Records one event, overwriting the oldest once full. Never
    /// allocates after construction (the buffer was reserved up front).
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Overwrites this ring with `other`'s contents (same capacity),
    /// keeping this ring's preallocated storage.
    pub fn restore(&mut self, other: &Ring) {
        debug_assert_eq!(self.cap, other.cap, "ring capacity mismatch");
        self.buf.clear();
        self.buf.extend_from_slice(&other.buf);
        self.next = other.next;
        self.total = other.total;
    }

    /// The retained events, oldest first (exactly the last
    /// `min(total, capacity)` pushes in push order).
    pub fn events_in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// The per-case black box: one [`Ring`] per core plus one global ring.
///
/// Events route by [`TraceEvent::track`]: tracks `0..num_cores` are
/// core-local (cache events, per-core recovery sub-spans), everything
/// else ([`TRACK_ENGINE`](crate::TRACK_ENGINE),
/// [`TRACK_MEM`](crate::TRACK_MEM)) lands in the global ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    per_core: Vec<Ring>,
    global: Ring,
}

impl FlightRecorder {
    /// A recorder for `num_cores` cores with explicit ring capacities.
    pub fn new(num_cores: usize, core_cap: usize, global_cap: usize) -> Self {
        FlightRecorder {
            per_core: (0..num_cores).map(|_| Ring::new(core_cap)).collect(),
            global: Ring::new(global_cap),
        }
    }

    /// A recorder with the default ring sizes
    /// ([`DEFAULT_CORE_RING`] / [`DEFAULT_GLOBAL_RING`]).
    pub fn with_defaults(num_cores: usize) -> Self {
        Self::new(num_cores, DEFAULT_CORE_RING, DEFAULT_GLOBAL_RING)
    }

    /// A default-sized recorder wrapped for attachment to a machine: the
    /// [`SharedSink`] handle goes to the simulator, the `Rc` stays with
    /// the caller to read the rings back after the run. Mirrors
    /// [`SharedSink::memory`].
    pub fn shared(num_cores: usize) -> (SharedSink, Rc<RefCell<FlightRecorder>>) {
        let rec = Rc::new(RefCell::new(Self::with_defaults(num_cores)));
        let dynamic: Rc<RefCell<dyn TraceSink>> = rec.clone();
        (SharedSink::from_sink(dynamic), rec)
    }

    /// Number of per-core rings.
    pub fn num_cores(&self) -> usize {
        self.per_core.len()
    }

    /// The ring for `core` (panics when out of range).
    pub fn core_ring(&self, core: usize) -> &Ring {
        &self.per_core[core]
    }

    /// The global (engine/memory track) ring.
    pub fn global_ring(&self) -> &Ring {
        &self.global
    }

    /// Total events ever recorded across all rings.
    pub fn total(&self) -> u64 {
        self.per_core.iter().map(Ring::total).sum::<u64>() + self.global.total()
    }

    /// Total events overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        self.per_core.iter().map(Ring::dropped).sum::<u64>() + self.global.dropped()
    }

    /// All retained events merged into one timeline: stable-sorted by
    /// start cycle, ties broken by track then by per-ring push order —
    /// fully deterministic for a deterministic event stream.
    pub fn merged_timeline(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for ring in &self.per_core {
            all.extend(ring.events_in_order());
        }
        all.extend(self.global.events_in_order());
        all.sort_by(|a, b| a.cycle.cmp(&b.cycle).then(a.track.cmp(&b.track)));
        all
    }

    /// Overwrites every ring with `snapshot`'s contents — a clone of a
    /// recorder with the same geometry — so a forked run continues from
    /// the event tails recorded up to its fork point. No allocation.
    pub fn restore(&mut self, snapshot: &FlightRecorder) {
        for (ring, snap) in self.per_core.iter_mut().zip(&snapshot.per_core) {
            ring.restore(snap);
        }
        self.global.restore(&snapshot.global);
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        let t = ev.track as usize;
        if t < self.per_core.len() {
            self.per_core[t].push(*ev);
        } else {
            self.global.push(*ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TRACK_ENGINE, TRACK_MEM};

    fn ev(track: u32, cycle: u64) -> TraceEvent {
        TraceEvent::instant("e", "t", track, cycle)
    }

    #[test]
    fn ring_retains_everything_until_full() {
        let mut r = Ring::new(4);
        for c in 0..3 {
            r.push(ev(0, c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<u64> = r.events_in_order().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn ring_wraps_to_exactly_last_k_in_order() {
        let mut r = Ring::new(4);
        for c in 0..11 {
            r.push(ev(0, c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 11);
        assert_eq!(r.dropped(), 7);
        let cycles: Vec<u64> = r.events_in_order().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_capacity_is_clamped_to_one() {
        let mut r = Ring::new(0);
        r.push(ev(0, 1));
        r.push(ev(0, 2));
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.events_in_order()[0].cycle, 2);
    }

    #[test]
    fn ring_push_never_reallocates() {
        let mut r = Ring::new(8);
        let ptr = r.buf.as_ptr();
        for c in 0..100 {
            r.push(ev(0, c));
        }
        assert_eq!(r.buf.as_ptr(), ptr, "backing store must stay in place");
    }

    #[test]
    fn restore_rewinds_rings_without_reallocating() {
        let mut fr = FlightRecorder::new(1, 4, 4);
        for c in 0..6 {
            fr.record(&ev(0, c));
        }
        let snap = fr.clone();
        let ptr = fr.core_ring(0).buf.as_ptr();
        for c in 6..9 {
            fr.record(&ev(0, c));
            fr.record(&ev(TRACK_ENGINE, c));
        }
        fr.restore(&snap);
        assert_eq!(fr.core_ring(0).buf.as_ptr(), ptr, "storage reused");
        assert_eq!(fr.merged_timeline(), snap.merged_timeline());
        assert_eq!((fr.total(), fr.dropped()), (6, 2));
        fr.record(&ev(0, 6));
        let cycles: Vec<u64> = fr
            .core_ring(0)
            .events_in_order()
            .iter()
            .map(|e| e.cycle)
            .collect();
        assert_eq!(cycles, vec![3, 4, 5, 6]);
    }

    #[test]
    fn recorder_routes_by_track() {
        let mut fr = FlightRecorder::new(2, 4, 4);
        fr.record(&ev(0, 1));
        fr.record(&ev(1, 2));
        fr.record(&ev(TRACK_ENGINE, 3));
        fr.record(&ev(TRACK_MEM, 4));
        assert_eq!(fr.core_ring(0).len(), 1);
        assert_eq!(fr.core_ring(1).len(), 1);
        assert_eq!(fr.global_ring().len(), 2);
        assert_eq!(fr.total(), 4);
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn shared_handle_feeds_the_recorder() {
        let (sink, rec) = FlightRecorder::shared(1);
        assert!(sink.enabled());
        assert!(!sink.detail());
        sink.emit(TraceEvent::span("ckpt", "ckpt", TRACK_ENGINE, 10, 5));
        sink.emit(ev(0, 11));
        let fr = rec.borrow();
        assert_eq!(fr.global_ring().len(), 1);
        assert_eq!(fr.global_ring().events_in_order()[0].kind, EventKind::Span);
        assert_eq!(fr.core_ring(0).len(), 1);
    }

    #[test]
    fn merged_timeline_is_cycle_ordered() {
        let mut fr = FlightRecorder::new(2, 4, 4);
        fr.record(&ev(TRACK_ENGINE, 30));
        fr.record(&ev(0, 10));
        fr.record(&ev(1, 20));
        fr.record(&ev(0, 25));
        let cycles: Vec<u64> = fr.merged_timeline().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![10, 20, 25, 30]);
    }
}

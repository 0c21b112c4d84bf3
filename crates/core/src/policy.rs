//! [`AcrPolicy`] — the ACR checkpoint handler and recovery handler.

use std::collections::BTreeSet;
use std::sync::Arc;

use acr_ckpt::{OmissionPolicy, OmitReason, Recomputed};
use acr_isa::{Slice, SliceId};
use acr_mem::WordAddr;
use acr_sim::AssocEvent;
use acr_trace::MetricsRegistry;

use crate::addr_map::{AddrMap, AddrMapConfig, AssocState};
use crate::stats::AcrStats;

/// ACR's control logic (Fig. 4 of the paper), plugged into the BER engine
/// as its omission policy.
///
/// * **Checkpoint handler** (Fig. 4a): on each `ASSOC-ADDR`, record the
///   ⟨memory address, Slice⟩ pair and the captured input operands in the
///   [`AddrMap`]; on each first update, tell the memory controller (via
///   the engine) whether the old value is recomputable and may be omitted
///   from the log.
/// * **Recovery handler** (Fig. 4b): for every omitted value of the
///   epochs being rolled back, execute the associated Slice over its
///   buffered inputs and hand the regenerated value (plus its cost) back
///   to the engine for write-back.
#[derive(Debug, Clone)]
pub struct AcrPolicy {
    /// The instrumented program's Slice table, shared rather than owned:
    /// fault campaigns build one policy per case, and the table never
    /// changes after instrumentation.
    slices: Arc<[Slice]>,
    map: AddrMap,
    stats: AcrStats,
    /// Extra cycles per `ASSOC-ADDR` for the `AddrMap` insertion; the
    /// paper models the instruction itself after an L1-D store (charged by
    /// the core model), with the map access "after L1-D".
    assoc_extra_cycles: u64,
    /// Scratchpad-based recomputation (Section II-B): recomputation
    /// overlaps the restore instead of serializing before the register
    /// restore.
    scratchpad: bool,
    /// `(thread, pc)` of stores whose extracted Slice the slicer's length
    /// threshold rejected (post-instrumentation coordinates, from
    /// `SliceStats::rejected_store_pcs`). Lets the decision ledger
    /// distinguish `logged:slice-too-long` from `logged:no-slice`.
    rejected_pcs: BTreeSet<(u32, u32)>,
    /// Checkpoint generations the engine retains as rollback fallbacks
    /// (≥ 1). Deepens association pruning so a generation-fallback
    /// rollback can still recompute every omitted value of the older
    /// epochs it restores. Must match the engine's
    /// `ResilienceConfig::generations`.
    generations: u64,
}

impl AcrPolicy {
    /// Creates the policy for an instrumented program's Slice table.
    /// Accepts anything convertible to a shared table (`Vec<Slice>`,
    /// `Arc<[Slice]>`, …) so campaign loops can share one allocation
    /// across cases.
    pub fn new(slices: impl Into<Arc<[Slice]>>, cfg: AddrMapConfig, num_cores: usize) -> Self {
        AcrPolicy {
            slices: slices.into(),
            map: AddrMap::new(cfg, num_cores),
            stats: AcrStats::default(),
            assoc_extra_cycles: 0,
            scratchpad: false,
            rejected_pcs: BTreeSet::new(),
            generations: 1,
        }
    }

    /// Sets the checkpoint-generation retention depth (≥ 1; values below
    /// are clamped up). Must match the engine's
    /// `ResilienceConfig::generations` so a torn-commit fallback finds
    /// its associations still live.
    pub fn with_generations(mut self, generations: u32) -> Self {
        self.generations = u64::from(generations.max(1));
        self
    }

    /// Installs the slicer's threshold-rejected store sites
    /// (`SliceStats::rejected_store_pcs`) so the decision ledger can
    /// attribute their first updates to `logged:slice-too-long`.
    pub fn with_rejected_pcs(mut self, pcs: &[(u32, u32)]) -> Self {
        self.rejected_pcs = pcs.iter().copied().collect();
        self
    }

    /// Enables the scratchpad-based recomputation implementation
    /// (Section II-B): recovery recomputation overlaps restore traffic
    /// instead of serializing before the register-file restore.
    pub fn with_scratchpad(mut self, on: bool) -> Self {
        self.scratchpad = on;
        self
    }

    /// Accumulated hardware statistics.
    pub fn stats(&self) -> AcrStats {
        let usage = self.map.usage();
        let mut s = self.stats;
        s.capacity_rejections = usage.rejected_capacity;
        s.addrmap_peak_live = usage.peak_live as u64;
        s
    }

    /// The `AddrMap`, for inspection.
    pub fn addr_map(&self) -> &AddrMap {
        &self.map
    }

    /// A snapshot for [`OmissionPolicy::fork`], its `AddrMap` arena
    /// sharing unchanged chunks with `prev`'s.
    fn forked(&self, prev: Option<&Self>) -> Self {
        AcrPolicy {
            slices: Arc::clone(&self.slices),
            map: self.map.snapshot(prev.map(|p| &p.map)),
            stats: self.stats,
            assoc_extra_cycles: self.assoc_extra_cycles,
            scratchpad: self.scratchpad,
            rejected_pcs: self.rejected_pcs.clone(),
            generations: self.generations,
        }
    }
}

impl OmissionPolicy for AcrPolicy {
    fn on_store(&mut self, core: u32, addr: WordAddr, epoch: u64) {
        self.map.record_store(core, addr, epoch);
    }

    fn on_assoc(&mut self, ev: &AssocEvent, epoch: u64) -> u64 {
        self.stats.assoc_events += 1;
        self.stats.addrmap_writes += 1;
        self.stats.opbuf_writes += ev.inputs.len() as u64;
        self.map
            .record_assoc(ev.core.0, ev.addr, epoch, ev.slice, ev.inputs.as_slice());
        self.assoc_extra_cycles
    }

    fn try_omit(&mut self, _first_updater: u32, addr: WordAddr, epoch: u64) -> Option<u32> {
        self.stats.addrmap_reads += 1;
        // The old value being overwritten is the value the word held at
        // checkpoint `epoch` (the opening of the current interval); only
        // an association created before that checkpoint describes it.
        self.map.owner_for_epoch(addr, epoch)
    }

    fn recompute(&mut self, addr: WordAddr, epoch: u64) -> Option<Recomputed> {
        self.stats.addrmap_reads += 1;
        let assoc = self.map.lookup_for_epoch(addr, epoch)?;
        let slice = &self.slices[assoc.slice.0 as usize];
        let value = slice
            .execute(assoc.inputs)
            .expect("embedded slice arity matches captured inputs");
        let alu_ops = slice.len() as u64;
        let opbuf_reads = assoc.inputs.len() as u64;
        self.stats.slice_alu_ops += alu_ops;
        self.stats.opbuf_reads += opbuf_reads;
        self.stats.recomputed_values += 1;
        Some(Recomputed {
            value,
            slice: assoc.slice,
            cycles: alu_ops + opbuf_reads,
            alu_ops,
            opbuf_reads,
        })
    }

    fn classify(
        &self,
        core: u32,
        pc: u32,
        addr: WordAddr,
        epoch: u64,
        omitted: bool,
    ) -> (OmitReason, Option<SliceId>) {
        match self.map.classify_for_epoch(addr, epoch) {
            AssocState::Live { slice, .. } => {
                debug_assert!(omitted, "live association must have been omitted");
                (OmitReason::OmittedSlice, Some(slice))
            }
            AssocState::Evicted => (OmitReason::LoggedAddrmapEvicted, None),
            AssocState::Dead => (OmitReason::LoggedNotRecomputable, None),
            // The map never saw the address: either no Slice covers the
            // producing store, or one was extracted but rejected by the
            // length threshold. Attributed to the overwriting store's
            // site — for the loop-structured kernels here the overwriter
            // and the producer are the same static store.
            AssocState::Absent => {
                if self.rejected_pcs.contains(&(core, pc)) {
                    (OmitReason::LoggedSliceTooLong, None)
                } else {
                    (OmitReason::LoggedNoSlice, None)
                }
            }
        }
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        self.map.usage().metrics(reg);
    }

    fn occupancy(&self) -> Option<(u64, u64)> {
        Some((
            self.map.total_live() as u64,
            self.map.total_capacity() as u64,
        ))
    }

    fn on_checkpoint(&mut self, sealed_epoch: u64) {
        // After sealing epoch `k` with G retained generations, the oldest
        // restorable checkpoint is `k - G`; prune associations
        // unreachable from every surviving checkpoint. G = 1 gives the
        // original two-checkpoint retention.
        self.map
            .prune(sealed_epoch.saturating_sub(self.generations));
    }

    fn on_rollback(&mut self, safe_epoch: u64, victim_mask: u64) {
        self.map.rollback(safe_epoch, victim_mask);
    }

    fn overlaps_restore(&self) -> bool {
        self.scratchpad
    }

    fn fork(&self) -> Option<Self> {
        Some(self.forked(None))
    }

    fn fork_sharing(&self, prev: &Self) -> Option<Self> {
        Some(self.forked(Some(prev)))
    }

    fn restore(&mut self, snapshot: &Self) {
        self.slices = Arc::clone(&snapshot.slices);
        self.map.restore(&snapshot.map);
        self.stats = snapshot.stats;
        self.assoc_extra_cycles = snapshot.assoc_extra_cycles;
        self.scratchpad = snapshot.scratchpad;
        self.rejected_pcs.clone_from(&snapshot.rejected_pcs);
        self.generations = snapshot.generations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_isa::{AluOp, SliceId, SliceInstr, SliceOperand};
    use acr_mem::CoreId;

    fn add_slice() -> Slice {
        Slice::new(
            vec![SliceInstr {
                op: AluOp::Add,
                a: SliceOperand::Input(0),
                b: SliceOperand::Input(1),
            }],
            2,
        )
        .unwrap()
    }

    fn assoc_event(addr: u64, inputs: &[u64]) -> AssocEvent {
        AssocEvent {
            core: CoreId(0),
            pc: 0,
            addr: WordAddr::new(addr),
            value: inputs.iter().sum(),
            slice: SliceId(0),
            inputs: acr_isa::InputVals::new(inputs),
            cycle: 0,
        }
    }

    #[test]
    fn omit_then_recompute_roundtrip() {
        let mut p = AcrPolicy::new(vec![add_slice()], AddrMapConfig::default(), 1);
        // Store + assoc in epoch 0 (value 5+9=14 at addr 64).
        p.on_store(0, WordAddr::new(64), 0);
        p.on_assoc(&assoc_event(64, &[5, 9]), 0);
        // First update in epoch 1: the old value (14) is recomputable.
        p.on_store(0, WordAddr::new(64), 1);
        assert_eq!(p.try_omit(0, WordAddr::new(64), 1), Some(0));
        // Recovery to checkpoint 1 regenerates 14.
        let rc = p.recompute(WordAddr::new(64), 1).unwrap();
        assert_eq!(rc.value, 14);
        assert_eq!(rc.alu_ops, 1);
        assert_eq!(rc.opbuf_reads, 2);
        let s = p.stats();
        assert_eq!(s.recomputed_values, 1);
        assert_eq!(s.slice_alu_ops, 1);
    }

    #[test]
    fn uncovered_store_blocks_omission() {
        let mut p = AcrPolicy::new(vec![add_slice()], AddrMapConfig::default(), 1);
        p.on_store(0, WordAddr::new(64), 0);
        p.on_assoc(&assoc_event(64, &[1, 2]), 0);
        // Plain store overwrites in epoch 1.
        p.on_store(0, WordAddr::new(64), 1);
        // First update in epoch 2: value at checkpoint 2 came from the
        // uncovered store — not recomputable.
        p.on_store(0, WordAddr::new(64), 2);
        assert_eq!(p.try_omit(0, WordAddr::new(64), 2), None);
    }

    #[test]
    fn same_epoch_association_is_not_usable_yet() {
        let mut p = AcrPolicy::new(vec![add_slice()], AddrMapConfig::default(), 1);
        p.on_store(0, WordAddr::new(8), 3);
        p.on_assoc(&assoc_event(8, &[1, 1]), 3);
        // A later store in the SAME epoch 3: the old value it overwrites
        // is the assoc'd value, but that value is NOT the value at
        // checkpoint 3 (it was created after c_3) — and indeed it is not a
        // first update either (the assoc'd store already logged it).
        // try_omit for epoch 3 must refuse.
        assert_eq!(p.try_omit(0, WordAddr::new(8), 3), None);
    }

    #[test]
    fn rollback_forgets_undone_associations() {
        let mut p = AcrPolicy::new(vec![add_slice()], AddrMapConfig::default(), 1);
        p.on_store(0, WordAddr::new(8), 2);
        p.on_assoc(&assoc_event(8, &[3, 4]), 2);
        p.on_rollback(2, 0b1);
        assert_eq!(p.try_omit(0, WordAddr::new(8), 3), None);
        assert!(p.recompute(WordAddr::new(8), 3).is_none());
    }
}

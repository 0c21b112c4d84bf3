//! Retained checkpoint records.

use std::sync::Arc;

use acr_mem::ImageSnapshot;
use acr_sim::CoreSnapshot;
use acr_trace::Fnv1a;

/// One established checkpoint: the state needed to restore execution to
/// the instant the checkpoint was taken. The initial program state is
/// represented as checkpoint 0.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// The log epoch this checkpoint *opens* (restoring this checkpoint
    /// means rolling the log back to the start of `begins_epoch`).
    pub begins_epoch: u64,
    /// Progress (total retired instructions) at establishment.
    pub progress: u64,
    /// Machine time (cycles) at establishment, for waste accounting.
    pub cycles: u64,
    /// Architectural state of every core.
    pub arch: Vec<CoreSnapshot>,
    /// Checkpoint-group masks of the *preceding* interval (local scheme);
    /// a single full mask under the global scheme.
    pub groups: Vec<u64>,
    /// Shadow copy of functional memory (oracle only; zero simulated
    /// cost). Shared twice over: the engine snapshots that fault cases
    /// fork from hold the same shadows instead of copies, and each shadow
    /// shares every chunk the image did not change since the previous
    /// checkpoint's ([`acr_mem::MemImage::shared_snapshot`]).
    pub shadow_mem: Option<Arc<ImageSnapshot>>,
    /// Integrity checksum over the architectural snapshot and epoch
    /// binding, sealed when the commit completes. A crash inside the
    /// commit window leaves a generation whose stored checksum no longer
    /// matches — a *torn commit* — which recovery detects with
    /// [`CheckpointRecord::verify`] before trusting the generation.
    pub check: u64,
}

impl CheckpointRecord {
    /// Computes the integrity checksum of the checkpoint's restorable
    /// content: FNV-1a over `begins_epoch`, `progress` and every core's
    /// architectural snapshot. The shadow memory is oracle-only state and
    /// deliberately excluded.
    pub fn compute_check(begins_epoch: u64, progress: u64, arch: &[CoreSnapshot]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(begins_epoch);
        h.write_u64(progress);
        for snap in arch {
            for &r in &snap.regs {
                h.write_u64(r);
            }
            h.write_u64(u64::from(snap.pc));
            h.write_u64(u64::from(snap.halted) | u64::from(snap.at_barrier) << 1);
            h.write_u64(snap.retired);
        }
        h.finish()
    }

    /// Seals the commit: stamps the checksum over the current content.
    pub fn seal(&mut self) {
        self.check = Self::compute_check(self.begins_epoch, self.progress, &self.arch);
    }

    /// Whether the generation's content still matches the checksum sealed
    /// at commit time. `false` means the commit was torn (or the snapshot
    /// corrupted after the fact) and the generation must not be restored.
    pub fn verify(&self) -> bool {
        self.check == Self::compute_check(self.begins_epoch, self.progress, &self.arch)
    }

    /// Bytes of architectural state this checkpoint recorded (register
    /// files + pc words of the cores in `mask`).
    pub fn arch_bytes(mask: u64, num_cores: usize) -> u64 {
        let cores = (0..num_cores).filter(|i| mask >> i & 1 == 1).count() as u64;
        cores * CoreSnapshot::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_bytes_counts_masked_cores() {
        assert_eq!(
            CheckpointRecord::arch_bytes(0b1011, 4),
            3 * CoreSnapshot::BYTES
        );
        assert_eq!(CheckpointRecord::arch_bytes(0, 4), 0);
    }

    #[test]
    fn sealed_checkpoint_verifies_until_torn() {
        let snap = CoreSnapshot {
            regs: [0; acr_isa::NUM_REGS],
            pc: 0,
            halted: false,
            at_barrier: false,
            retired: 0,
        };
        let mut ckpt = CheckpointRecord {
            begins_epoch: 3,
            progress: 1000,
            cycles: 5000,
            arch: vec![snap.clone(), snap],
            groups: vec![u64::MAX],
            shadow_mem: None,
            check: 0,
        };
        ckpt.seal();
        assert!(ckpt.verify());
        // Shadow memory is oracle-only: attaching it does not invalidate.
        ckpt.shadow_mem = Some(Arc::new(
            acr_mem::dram::MemImage::new(64).shared_snapshot(None),
        ));
        assert!(ckpt.verify());
        // A torn commit leaves arch state inconsistent with the checksum.
        ckpt.arch[1].regs[7] ^= 1 << 42;
        assert!(!ckpt.verify());
    }
}

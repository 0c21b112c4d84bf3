//! Main memory: functional image + controller latency/bandwidth model.
//!
//! Table I: 120 ns access latency, 7.6 GB/s per controller, one controller
//! per four cores. Lines are interleaved across controllers by line
//! address. Checkpoint flushes are bandwidth-bound: each controller drains
//! its share of dirty lines at its sustained bandwidth, and the flush
//! completes when the slowest controller finishes (the cores are stalled in
//! a coordinated checkpoint, so this is the stall the paper charges).

use std::sync::Arc;

use crate::addr::{LineAddr, WordAddr, LINE_BYTES};

/// Functional memory image: the single source of truth for data values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage {
    words: Vec<u64>,
}

impl MemImage {
    /// Creates a zeroed image of `bytes` bytes (rounded up to whole lines).
    pub fn new(bytes: u64) -> Self {
        let lines = bytes.div_ceil(LINE_BYTES);
        MemImage {
            words: vec![0; (lines * LINE_BYTES / acr_isa::WORD_BYTES) as usize],
        }
    }

    /// Number of whole cache lines covered.
    pub fn num_lines(&self) -> usize {
        self.words.len() / crate::addr::WORDS_PER_LINE as usize
    }

    /// Number of words.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the image; the simulator bounds-checks
    /// accesses before reaching the image.
    #[inline]
    pub fn read(&self, addr: WordAddr) -> u64 {
        self.words[addr.word_index()]
    }

    /// Writes the word at `addr`, returning the previous value.
    #[inline]
    pub fn write(&mut self, addr: WordAddr, value: u64) -> u64 {
        std::mem::replace(&mut self.words[addr.word_index()], value)
    }

    /// Checks whether a word index is in bounds.
    #[inline]
    pub fn in_bounds(&self, addr: WordAddr) -> bool {
        addr.word_index() < self.words.len()
    }

    /// A full snapshot for correctness oracles (zero simulated cost).
    pub fn snapshot(&self) -> Vec<u64> {
        self.words.clone()
    }

    /// A full snapshot in a shared allocation, so the checkpoint records
    /// and engine snapshots that hold the same image hold it once.
    /// `spare` — a retired snapshot — is overwritten in place when nothing
    /// else shares it, sparing an allocation.
    pub fn shared_snapshot(&self, spare: Option<Arc<[u64]>>) -> Arc<[u64]> {
        if let Some(mut buf) = spare {
            if let Some(words) = Arc::get_mut(&mut buf).filter(|w| w.len() == self.words.len()) {
                words.copy_from_slice(&self.words);
                return buf;
            }
        }
        Arc::from(self.words.as_slice())
    }

    /// Overwrites the image with `words` (same size).
    pub fn restore(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
    }

    /// Raw word view.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Latency/bandwidth parameters of the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Access latency in core cycles (Table I: 120 ns ≈ 131 cycles at
    /// 1.09 GHz).
    pub latency_cycles: u64,
    /// Sustained bandwidth per controller in bytes per core cycle
    /// (7.6 GB/s at 1.09 GHz ≈ 6.97 B/cycle).
    pub bytes_per_cycle_per_ctrl: f64,
    /// Cores per memory controller (Table I: 4).
    pub cores_per_ctrl: u32,
}

impl DramConfig {
    /// Number of controllers for a machine with `cores` cores (at least 1).
    pub fn num_controllers(&self, cores: u32) -> u32 {
        cores.div_ceil(self.cores_per_ctrl).max(1)
    }

    /// Home controller of a line, for `ctrls` controllers.
    #[inline]
    pub fn home(&self, line: LineAddr, ctrls: u32) -> u32 {
        (line.0 % u64::from(ctrls)) as u32
    }

    /// Cycles for one controller to transfer `bytes` at sustained
    /// bandwidth.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.bytes_per_cycle_per_ctrl).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_read_write_roundtrip() {
        let mut m = MemImage::new(4096);
        let a = WordAddr::new(128);
        assert_eq!(m.read(a), 0);
        assert_eq!(m.write(a, 77), 0);
        assert_eq!(m.read(a), 77);
        assert_eq!(m.write(a, 1), 77);
    }

    #[test]
    fn image_rounds_up_to_lines() {
        let m = MemImage::new(65); // 2 lines
        assert_eq!(m.num_lines(), 2);
        assert_eq!(m.num_words(), 16);
    }

    #[test]
    fn controller_count_and_home() {
        let cfg = DramConfig {
            latency_cycles: 131,
            bytes_per_cycle_per_ctrl: 6.97,
            cores_per_ctrl: 4,
        };
        assert_eq!(cfg.num_controllers(8), 2);
        assert_eq!(cfg.num_controllers(32), 8);
        assert_eq!(cfg.num_controllers(1), 1);
        assert_eq!(cfg.home(LineAddr(5), 2), 1);
        assert_eq!(cfg.home(LineAddr(4), 2), 0);
    }

    #[test]
    fn transfer_cycles_bandwidth_bound() {
        let cfg = DramConfig {
            latency_cycles: 131,
            bytes_per_cycle_per_ctrl: 8.0,
            cores_per_ctrl: 4,
        };
        assert_eq!(cfg.transfer_cycles(64), 8);
        assert_eq!(cfg.transfer_cycles(0), 0);
        assert_eq!(cfg.transfer_cycles(65), 9);
    }
}

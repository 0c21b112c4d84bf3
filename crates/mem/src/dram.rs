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

    /// A frozen copy of the image in [`CHUNK_WORDS`]-word chunks. Every
    /// chunk equal to the same chunk of `prev` — typically the snapshot
    /// taken one checkpoint earlier — shares that chunk's allocation, so
    /// snapshots of a slowly changing image cost only the chunks that
    /// changed. The image itself stays one flat array: stores pay nothing
    /// for this.
    pub fn shared_snapshot(&self, prev: Option<&ImageSnapshot>) -> ImageSnapshot {
        let prev = prev.filter(|p| p.len == self.words.len());
        let chunks = self
            .words
            .chunks(CHUNK_WORDS)
            .enumerate()
            .map(|(i, words)| match prev.map(|p| &p.chunks[i]) {
                Some(old) if old[..] == *words => Arc::clone(old),
                _ => Arc::from(words),
            })
            .collect();
        ImageSnapshot {
            chunks,
            len: self.words.len(),
        }
    }

    /// Overwrites the image with `snap` (same size).
    pub fn restore(&mut self, snap: &ImageSnapshot) {
        assert_eq!(snap.len, self.words.len(), "snapshot of another image");
        for (dst, chunk) in self.words.chunks_mut(CHUNK_WORDS).zip(&snap.chunks) {
            dst.copy_from_slice(chunk);
        }
    }

    /// Raw word view.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Words per chunk of an [`ImageSnapshot`] (512 B).
pub const CHUNK_WORDS: usize = 64;

/// A frozen copy of a [`MemImage`] ([`MemImage::shared_snapshot`]): the
/// words in fixed-size chunks of [`CHUNK_WORDS`] (the last one may be
/// shorter), each in its own shared allocation. Snapshots taken from the
/// same image share every chunk that did not change between them, and
/// cloning one copies only the chunk pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSnapshot {
    chunks: Vec<Arc<[u64]>>,
    len: usize,
}

impl ImageSnapshot {
    /// The word at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn word(&self, i: usize) -> u64 {
        self.chunks[i / CHUNK_WORDS][i % CHUNK_WORDS]
    }

    /// Number of word positions at which `words` differs from the
    /// snapshot (positions past the shorter of the two are not counted).
    pub fn count_differing(&self, words: &[u64]) -> u64 {
        self.chunks
            .iter()
            .zip(words.chunks(CHUNK_WORDS))
            .map(|(c, w)| c.iter().zip(w).filter(|(a, b)| a != b).count() as u64)
            .sum()
    }

    /// Whether `words` holds exactly the snapshot's words.
    pub fn matches(&self, words: &[u64]) -> bool {
        words.len() == self.len
            && self
                .chunks
                .iter()
                .zip(words.chunks(CHUNK_WORDS))
                .all(|(c, w)| c[..] == *w)
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

    fn image_with(words: &[(usize, u64)]) -> MemImage {
        let mut m = MemImage::new(64 * 1000 + 64); // 8008 words: a short last chunk
        for &(i, v) in words {
            m.write(WordAddr::new(i as u64 * 8), v);
        }
        m
    }

    #[test]
    fn chunked_snapshot_reads_back_the_flat_image() {
        let m = image_with(&[(0, 1), (63, 2), (64, 3), (8007, 4)]);
        let snap = m.shared_snapshot(None);
        assert_eq!(snap.len, m.num_words());
        assert_eq!(snap.chunks.len(), m.num_words().div_ceil(CHUNK_WORDS));
        assert_eq!(snap.chunks.concat(), m.words());
        assert!(snap.matches(m.words()));
        assert_eq!(snap.word(8007), 4);
        let mut back = MemImage::new(64 * 1000 + 64);
        back.restore(&snap);
        assert_eq!(back, m);
    }

    #[test]
    fn unchanged_chunks_share_the_previous_snapshots_allocation() {
        let mut m = image_with(&[(5, 1)]);
        let first = m.shared_snapshot(None);
        m.write(WordAddr::new(70 * 8), 9); // chunk 1
        m.write(WordAddr::new(8007 * 8), 9); // the short last chunk
        let second = m.shared_snapshot(Some(&first));
        assert_eq!(second.chunks.concat(), m.words());
        let last = first.chunks.len() - 1;
        for (i, (a, b)) in first.chunks.iter().zip(&second.chunks).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), i != 1 && i != last, "chunk {i}");
        }
        // A snapshot of another size shares nothing and still reads back.
        let other = MemImage::new(4096).shared_snapshot(Some(&second));
        assert!(other.chunks.concat().iter().all(|&w| w == 0));
    }

    #[test]
    fn differing_words_count_the_same_as_a_flat_compare() {
        let reference = image_with(&[(1, 1), (100, 2), (8000, 3)]);
        let shadow = reference.shared_snapshot(None);
        let got = image_with(&[(1, 1), (100, 7), (101, 1), (8000, 3), (8007, 5)]);
        let flat = got
            .words()
            .iter()
            .zip(reference.words())
            .filter(|(a, b)| a != b)
            .count() as u64;
        assert_eq!(flat, 3);
        assert_eq!(shadow.count_differing(got.words()), flat);
        assert!(!shadow.matches(got.words()));
        assert_eq!(shadow.count_differing(reference.words()), 0);
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

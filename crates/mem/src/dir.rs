//! Directory-based cache coherence.
//!
//! The paper assumes "shared memory many-cores featuring directory-based
//! cache coherence" (Section II-A). We model a MESI full-map directory
//! co-located with the memory controllers: each line is uncached, held
//! *exclusive-clean* by one core (the E state — granted on a read with no
//! other sharers, so the first write upgrades silently), shared by a set
//! of cores, or modified at one core. Transactions are atomic (no
//! transient states), which is the usual simplification for
//! cycle-approximate simulators; latency costs of invalidations and
//! downgrades are charged to the requesting access and message counts are
//! recorded for the energy model.

use crate::addr::LineAddr;

/// Sharer bitmask — supports up to [`MAX_CORES`] cores (the paper
/// evaluates ≤ 32).
pub type CoreMask = u64;

/// The most cores a machine can have: one bit per core in a [`CoreMask`],
/// as in the machine's all-cores mask and the engine's rollback victims.
pub const MAX_CORES: u32 = CoreMask::BITS;

/// Per-line directory state (MESI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirState {
    /// No cached copies.
    #[default]
    Uncached,
    /// Exclusive *clean* copy at one core (granted on a sole read; the
    /// first write upgrades to [`DirState::Modified`] silently).
    Exclusive(u32),
    /// Clean copies at the cores in the mask.
    Shared(CoreMask),
    /// Exclusive modified copy at one core.
    Modified(u32),
}

/// What the directory had to do to satisfy a request; drives latency and
/// message accounting at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirOutcome {
    /// Invalidation messages sent to other cores.
    pub invalidations: u32,
    /// A modified copy at another core was written back (dirty data had to
    /// travel to memory / the requester).
    pub writeback_from_owner: bool,
    /// Data was supplied by another core's cache rather than DRAM
    /// (cache-to-cache transfer).
    pub cache_to_cache: bool,
}

/// Full-map directory over a flat line range.
#[derive(Debug, Clone)]
pub struct Directory {
    lines: Vec<DirState>,
    messages: u64,
}

impl Directory {
    /// Creates a directory covering `num_lines` lines, all uncached.
    pub fn new(num_lines: usize) -> Self {
        Directory {
            lines: vec![DirState::Uncached; num_lines],
            messages: 0,
        }
    }

    /// Current state of `line`.
    pub fn state(&self, line: LineAddr) -> DirState {
        self.lines[line.index()]
    }

    /// Total coherence messages exchanged so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Core `core` requests read access to `line`.
    pub fn read(&mut self, core: u32, line: LineAddr) -> DirOutcome {
        let mut out = DirOutcome::default();
        let st = &mut self.lines[line.index()];
        match *st {
            DirState::Uncached => {
                // Sole reader: grant the E state (MESI).
                *st = DirState::Exclusive(core);
                self.messages += 2; // request + data
            }
            DirState::Exclusive(owner) if owner == core => {
                // Silent: already held exclusively.
            }
            DirState::Exclusive(owner) => {
                // Clean copy elsewhere: both share, no write-back needed.
                *st = DirState::Shared((1 << owner) | (1 << core));
                out.cache_to_cache = true;
                self.messages += 3; // req, fwd, data
            }
            DirState::Shared(mask) => {
                *st = DirState::Shared(mask | (1 << core));
                self.messages += 2;
            }
            DirState::Modified(owner) if owner == core => {
                // Silent: already owned.
            }
            DirState::Modified(owner) => {
                // Downgrade the owner: write back dirty data, both share.
                *st = DirState::Shared((1 << owner) | (1 << core));
                out.writeback_from_owner = true;
                out.cache_to_cache = true;
                self.messages += 4; // req, fwd, wb, data
            }
        }
        out
    }

    /// Core `core` requests write (exclusive) access to `line`.
    pub fn write(&mut self, core: u32, line: LineAddr) -> DirOutcome {
        let mut out = DirOutcome::default();
        let st = &mut self.lines[line.index()];
        match *st {
            DirState::Uncached => {
                self.messages += 2;
            }
            DirState::Exclusive(owner) if owner == core => {
                // The MESI payoff: silent E -> M upgrade, zero messages.
            }
            DirState::Exclusive(_) => {
                // Invalidate the clean remote copy; no write-back needed.
                out.invalidations = 1;
                self.messages += 3;
            }
            DirState::Shared(mask) => {
                let others = mask & !(1 << core);
                out.invalidations = others.count_ones();
                self.messages += 2 + 2 * u64::from(out.invalidations);
            }
            DirState::Modified(owner) if owner == core => {
                // Silent upgrade hit.
                return out;
            }
            DirState::Modified(_) => {
                out.writeback_from_owner = true;
                out.cache_to_cache = true;
                out.invalidations = 1;
                self.messages += 4;
            }
        }
        *st = DirState::Modified(core);
        out
    }

    /// Core `core` evicts its copy of `line` (capacity eviction or
    /// checkpoint-flush downgrade to clean-shared).
    ///
    /// `keep_shared` models the Rebound-style checkpoint flush, which
    /// writes dirty data back while *keeping clean copies in the cache*.
    pub fn evict(&mut self, core: u32, line: LineAddr, keep_shared: bool) {
        let st = &mut self.lines[line.index()];
        match *st {
            DirState::Modified(owner) if owner == core => {
                *st = if keep_shared {
                    DirState::Shared(1 << core)
                } else {
                    DirState::Uncached
                };
                self.messages += 1;
            }
            DirState::Exclusive(owner) if owner == core && !keep_shared => {
                *st = DirState::Uncached;
                self.messages += 1;
            }
            DirState::Shared(mask) if !keep_shared => {
                let m = mask & !(1 << core);
                *st = if m == 0 {
                    DirState::Uncached
                } else {
                    DirState::Shared(m)
                };
                self.messages += 1;
            }
            _ => {}
        }
    }

    /// Drops every entry (recovery invalidates all caches).
    pub fn reset(&mut self) {
        for l in &mut self.lines {
            *l = DirState::Uncached;
        }
    }

    /// Overwrites this directory with `other`'s state (same line count),
    /// reusing this directory's storage.
    pub fn restore(&mut self, other: &Directory) {
        self.lines.copy_from_slice(&other.lines);
        self.messages = other.messages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sole_read_grants_exclusive_second_read_shares() {
        let mut d = Directory::new(16);
        d.read(0, LineAddr(3));
        assert_eq!(d.state(LineAddr(3)), DirState::Exclusive(0));
        let out = d.read(1, LineAddr(3));
        assert!(out.cache_to_cache);
        assert!(!out.writeback_from_owner, "clean copy needs no write-back");
        assert_eq!(d.state(LineAddr(3)), DirState::Shared(0b11));
    }

    #[test]
    fn exclusive_to_modified_is_silent() {
        let mut d = Directory::new(16);
        d.read(2, LineAddr(4));
        let m0 = d.messages();
        let out = d.write(2, LineAddr(4));
        assert_eq!(out, DirOutcome::default());
        assert_eq!(d.messages(), m0, "E->M upgrade must be message-free");
        assert_eq!(d.state(LineAddr(4)), DirState::Modified(2));
    }

    #[test]
    fn remote_exclusive_write_invalidates_cleanly() {
        let mut d = Directory::new(16);
        d.read(0, LineAddr(6));
        let out = d.write(1, LineAddr(6));
        assert_eq!(out.invalidations, 1);
        assert!(!out.writeback_from_owner);
        assert_eq!(d.state(LineAddr(6)), DirState::Modified(1));
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new(16);
        d.read(0, LineAddr(1));
        d.read(1, LineAddr(1));
        d.read(2, LineAddr(1));
        let out = d.write(1, LineAddr(1));
        assert_eq!(out.invalidations, 2);
        assert_eq!(d.state(LineAddr(1)), DirState::Modified(1));
    }

    #[test]
    fn read_of_modified_downgrades_owner() {
        let mut d = Directory::new(16);
        d.write(0, LineAddr(2));
        let out = d.read(1, LineAddr(2));
        assert!(out.writeback_from_owner);
        assert!(out.cache_to_cache);
        assert_eq!(d.state(LineAddr(2)), DirState::Shared(0b11));
    }

    #[test]
    fn write_of_remote_modified_transfers_ownership() {
        let mut d = Directory::new(16);
        d.write(0, LineAddr(2));
        let out = d.write(1, LineAddr(2));
        assert!(out.writeback_from_owner);
        assert_eq!(out.invalidations, 1);
        assert_eq!(d.state(LineAddr(2)), DirState::Modified(1));
    }

    #[test]
    fn silent_owner_hits() {
        let mut d = Directory::new(16);
        d.write(0, LineAddr(5));
        let m0 = d.messages();
        let out = d.read(0, LineAddr(5));
        assert_eq!(out, DirOutcome::default());
        let out = d.write(0, LineAddr(5));
        assert_eq!(out, DirOutcome::default());
        assert_eq!(d.messages(), m0);
    }

    #[test]
    fn flush_downgrade_keeps_shared_copy() {
        let mut d = Directory::new(16);
        d.write(3, LineAddr(7));
        d.evict(3, LineAddr(7), true);
        assert_eq!(d.state(LineAddr(7)), DirState::Shared(1 << 3));
        // A later write by the same core must now send an upgrade (not
        // silent), matching the extra traffic Rebound-style flushes incur.
        let out = d.write(3, LineAddr(7));
        assert_eq!(out.invalidations, 0);
        assert_eq!(d.state(LineAddr(7)), DirState::Modified(3));
    }

    #[test]
    fn capacity_eviction_uncaches() {
        let mut d = Directory::new(16);
        d.write(0, LineAddr(9));
        d.evict(0, LineAddr(9), false);
        assert_eq!(d.state(LineAddr(9)), DirState::Uncached);
    }
}

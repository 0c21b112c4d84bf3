//! Ergonomic construction of multithreaded programs.

use crate::instr::{AluOp, BranchCond, Instr, Reg};
use crate::program::{Program, ThreadCode};
use crate::slice::Slice;

/// Handle returned by [`ThreadBuilder::begin_loop`], consumed by
/// [`ThreadBuilder::end_loop`].
///
/// Loops are counted: the induction register runs from 0 to `count`
/// (exclusive) in steps of 1.
#[derive(Debug)]
#[must_use = "a loop must be closed with end_loop"]
pub struct LoopHandle {
    head: u32,
    counter: Reg,
    limit: Reg,
}

/// Builds the instruction stream of one thread.
#[derive(Debug, Default)]
pub struct ThreadBuilder {
    instrs: Vec<Instr>,
}

impl ThreadBuilder {
    /// Current instruction index (the pc the *next* emitted instruction
    /// will occupy).
    #[inline]
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Emits a raw instruction.
    pub fn raw(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// `rd <- imm`.
    pub fn imm(&mut self, rd: Reg, imm: u64) -> &mut Self {
        self.raw(Instr::Imm { rd, imm })
    }

    /// `rd <- op(ra, rb)`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.raw(Instr::Alu { op, rd, ra, rb })
    }

    /// `rd <- op(ra, imm)`.
    pub fn alui(&mut self, op: AluOp, rd: Reg, ra: Reg, imm: u64) -> &mut Self {
        self.raw(Instr::AluI { op, rd, ra, imm })
    }

    /// `rd <- mem[base + disp]`.
    pub fn load(&mut self, rd: Reg, base: Reg, disp: u64) -> &mut Self {
        self.raw(Instr::Load { rd, base, disp })
    }

    /// `mem[base + disp] <- rs`.
    pub fn store(&mut self, rs: Reg, base: Reg, disp: u64) -> &mut Self {
        self.raw(Instr::Store { rs, base, disp })
    }

    /// Emits a synchronization barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.raw(Instr::Barrier)
    }

    /// Terminates the thread.
    pub fn halt(&mut self) -> &mut Self {
        self.raw(Instr::Halt)
    }

    /// Opens a counted loop: `counter` runs 0..count. `limit` is clobbered
    /// to hold the loop bound. Loops with `count == 0` still execute once
    /// through the *setup* (counter/limit init) but zero body iterations.
    pub fn begin_loop(&mut self, counter: Reg, limit: Reg, count: u64) -> LoopHandle {
        self.imm(counter, 0);
        self.imm(limit, count);
        let head = self.here();
        // Placeholder branch to be patched by end_loop: if counter >= limit,
        // skip past the loop body.
        self.raw(Instr::Branch {
            cond: BranchCond::Ge,
            ra: counter,
            rb: limit,
            target: 0, // patched
        });
        LoopHandle {
            head,
            counter,
            limit,
        }
    }

    /// Closes a counted loop opened with [`begin_loop`].
    ///
    /// [`begin_loop`]: ThreadBuilder::begin_loop
    pub fn end_loop(&mut self, handle: LoopHandle) -> &mut Self {
        self.alui(AluOp::Add, handle.counter, handle.counter, 1);
        self.raw(Instr::Jump {
            target: handle.head,
        });
        let exit = self.here();
        // Patch the guard branch to exit past the back-edge.
        match &mut self.instrs[handle.head as usize] {
            Instr::Branch { target, .. } => *target = exit,
            other => unreachable!("loop head must be a branch, found {other}"),
        }
        let _ = handle.limit;
        self
    }

    /// Emits a forward conditional branch with a placeholder target; patch
    /// it with [`ThreadBuilder::patch_branch`] once the join point is
    /// known.
    pub fn branch_placeholder(&mut self, cond: BranchCond, ra: Reg, rb: Reg) -> u32 {
        let pc = self.here();
        self.raw(Instr::Branch {
            cond,
            ra,
            rb,
            target: u32::MAX,
        });
        pc
    }

    /// Patches the branch emitted at `pc` to jump to `target`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction at `pc` is not a branch.
    pub fn patch_branch(&mut self, pc: u32, target: u32) {
        match &mut self.instrs[pc as usize] {
            Instr::Branch { target: t, .. } => *t = target,
            other => panic!("patch_branch at non-branch {other}"),
        }
    }

    /// Consumes the builder into thread code.
    pub fn finish(self) -> ThreadCode {
        ThreadCode::new(self.instrs)
    }
}

/// Builds a multithreaded [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    threads: Vec<ThreadBuilder>,
    slices: Vec<Slice>,
    mem_bytes: u64,
}

impl ProgramBuilder {
    /// Creates a builder for a program with `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        ProgramBuilder {
            threads: (0..num_threads).map(|_| ThreadBuilder::default()).collect(),
            slices: Vec::new(),
            mem_bytes: 0,
        }
    }

    /// The builder for thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&mut self, t: u32) -> &mut ThreadBuilder {
        &mut self.threads[t as usize]
    }

    /// Declares the size of the data memory image in bytes.
    pub fn set_mem_bytes(&mut self, bytes: u64) -> &mut Self {
        self.mem_bytes = bytes;
        self
    }

    /// Finalizes the program. The result should be passed through
    /// [`Program::validate`] before simulation; the workloads crate does so
    /// in its tests.
    pub fn build(self) -> Program {
        Program::new(
            self.threads
                .into_iter()
                .map(ThreadBuilder::finish)
                .collect(),
            self.slices,
            self.mem_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    #[test]
    fn counted_loop_runs_expected_iterations() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        let t = b.thread(0);
        t.imm(Reg(5), 0);
        let l = t.begin_loop(Reg(1), Reg(2), 10);
        t.alui(AluOp::Add, Reg(5), Reg(5), 3);
        t.end_loop(l);
        t.store(Reg(5), Reg(0), 64);
        t.halt();
        let p = b.build();
        p.validate().unwrap();

        let mut interp = Interp::new(&p);
        interp.run_to_completion(1_000_000).unwrap();
        assert_eq!(interp.mem_word(64), 30);
    }

    #[test]
    fn finished_code_is_stored_at_exact_capacity() {
        let mut t = ThreadBuilder::default();
        for i in 0..1000 {
            t.imm(Reg(1), i);
        }
        let mut code = t.finish();
        assert_eq!(code.instrs_mut().capacity(), 1000);
    }

    #[test]
    fn zero_iteration_loop() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        let t = b.thread(0);
        t.imm(Reg(5), 7);
        let l = t.begin_loop(Reg(1), Reg(2), 0);
        t.imm(Reg(5), 99);
        t.end_loop(l);
        t.store(Reg(5), Reg(0), 0);
        t.halt();
        let p = b.build();
        p.validate().unwrap();
        let mut interp = Interp::new(&p);
        interp.run_to_completion(1000).unwrap();
        assert_eq!(interp.mem_word(0), 7);
    }

    #[test]
    fn nested_loops() {
        let mut b = ProgramBuilder::new(1);
        b.set_mem_bytes(4096);
        let t = b.thread(0);
        t.imm(Reg(5), 0);
        let outer = t.begin_loop(Reg(1), Reg(2), 4);
        let inner = t.begin_loop(Reg(3), Reg(4), 5);
        t.alui(AluOp::Add, Reg(5), Reg(5), 1);
        t.end_loop(inner);
        t.end_loop(outer);
        t.store(Reg(5), Reg(0), 8);
        t.halt();
        let p = b.build();
        p.validate().unwrap();
        let mut interp = Interp::new(&p);
        interp.run_to_completion(10_000).unwrap();
        assert_eq!(interp.mem_word(8), 20);
    }
}

//! The register-machine interpreter.

use crate::inst::{effective_addr, Inst};
use crate::layout::AddressMap;
use crate::program::Program;
use crate::{Addr, Word};

/// Data-memory interface the VM executes against.
///
/// The chunk engine implements this with a speculative view (committed
/// memory + per-chunk write buffers); tests use [`FlatMemory`].
pub trait DataMemory {
    /// Reads the word at `addr`.
    fn load(&mut self, addr: Addr) -> Word;
    /// Writes the word at `addr`.
    fn store(&mut self, addr: Addr, value: Word);
}

/// Uncached I/O port interface.
pub trait IoBus {
    /// Uncached load from a device port.
    fn io_load(&mut self, port: u16) -> Word;
    /// Uncached store to a device port.
    fn io_store(&mut self, port: u16, value: Word);
}

/// An I/O bus that reads zero and discards writes; for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullIo;

impl IoBus for NullIo {
    fn io_load(&mut self, _port: u16) -> Word {
        0
    }
    fn io_store(&mut self, _port: u16, _value: Word) {}
}

/// A plain vector-backed memory (addresses wrap modulo capacity).
///
/// # Examples
///
/// ```
/// use delorean_isa::{DataMemory, FlatMemory};
/// let mut m = FlatMemory::new(16);
/// m.store(3, 99);
/// assert_eq!(m.load(3), 99);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatMemory {
    words: Vec<Word>,
}

impl FlatMemory {
    /// Allocates `words` zeroed words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(words: u64) -> Self {
        assert!(words > 0, "memory must be non-empty");
        Self {
            words: vec![0; words as usize],
        }
    }

    /// Capacity in words.
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    /// Whether the memory has zero capacity (never true).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    fn index(&self, addr: Addr) -> usize {
        (addr % self.words.len() as u64) as usize
    }
}

impl DataMemory for FlatMemory {
    fn load(&mut self, addr: Addr) -> Word {
        self.words[self.index(addr)]
    }
    fn store(&mut self, addr: Addr, value: Word) {
        let i = self.index(addr);
        self.words[i] = value;
    }
}

/// A single data-memory access performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Word address accessed.
    pub addr: Addr,
    /// `true` for a store (or a successful CAS write).
    pub write: bool,
}

/// Classification of an executed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// An ordinary cached instruction.
    Normal,
    /// An uncached / special-system instruction (already executed).
    Uncached,
    /// The thread has halted; nothing was executed.
    Halted,
}

/// Result of [`Vm::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// What kind of instruction retired.
    pub kind: StepKind,
    /// Up to two data-memory accesses (CAS performs a read and,
    /// on success, a write).
    pub mem_ops: [Option<MemOp>; 2],
    /// Whether the instruction was a taken or not-taken branch.
    pub is_branch: bool,
}

impl StepInfo {
    fn none(kind: StepKind) -> Self {
        Self {
            kind,
            mem_ops: [None, None],
            is_branch: false,
        }
    }
}

/// Why [`Vm::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The run retired its `limit` of instructions.
    Limit,
    /// The thread retired its budget, halted, or its pc ran past the
    /// end of the program.
    Finished,
    /// An uncached instruction ended the run: it comes next and the run
    /// already holds instructions, or it ran first, on its own.
    Uncached,
}

/// Architected state snapshot used for chunk checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmState {
    regs: [Word; 16],
    pc: usize,
    halted: bool,
    in_handler: bool,
    saved: Option<(usize, [Word; 16])>,
    retired: u64,
    hash: u64,
}

impl VmState {
    /// Whether the checkpointed state was inside an interrupt handler.
    pub fn in_handler(&self) -> bool {
        self.in_handler
    }

    /// Retired-instruction count at the checkpoint.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Serializes the architected state to a fixed little-endian byte
    /// layout (system checkpoint persistence).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * 8 + 8 + 3 + 8 + 16 * 8 + 16);
        for &r in &self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.pc as u64).to_le_bytes());
        out.push(u8::from(self.halted));
        out.push(u8::from(self.in_handler));
        match &self.saved {
            None => out.push(0),
            Some((pc, regs)) => {
                out.push(1);
                out.extend_from_slice(&(*pc as u64).to_le_bytes());
                for r in regs {
                    out.extend_from_slice(&r.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&self.retired.to_le_bytes());
        out.extend_from_slice(&self.hash.to_le_bytes());
        out
    }

    /// Deserializes a state written by [`VmState::to_bytes`]; `None` on
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let u64_at = |b: &[u8], p: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(b.get(*p..*p + 8)?.try_into().ok()?);
            *p += 8;
            Some(v)
        };
        let mut regs = [0u64; 16];
        for r in &mut regs {
            *r = u64_at(bytes, &mut pos)?;
        }
        let pc = u64_at(bytes, &mut pos)? as usize;
        let halted = *bytes.get(pos)? != 0;
        let in_handler = *bytes.get(pos + 1)? != 0;
        let saved_flag = *bytes.get(pos + 2)?;
        pos += 3;
        let saved = match saved_flag {
            0 => None,
            1 => {
                let spc = u64_at(bytes, &mut pos)? as usize;
                let mut sregs = [0u64; 16];
                for r in &mut sregs {
                    *r = u64_at(bytes, &mut pos)?;
                }
                Some((spc, sregs))
            }
            _ => return None,
        };
        let retired = u64_at(bytes, &mut pos)?;
        let hash = u64_at(bytes, &mut pos)?;
        if pos != bytes.len() {
            return None;
        }
        Some(VmState {
            regs,
            pc,
            halted,
            in_handler,
            saved,
            retired,
            hash,
        })
    }
}

/// The interpreter for one hardware thread.
///
/// Register conventions used by the workload generators:
/// `r15` = thread id, `r13` = private base, `r12` = shared base,
/// `r9` = interrupt payload.
///
/// # Examples
///
/// ```
/// use delorean_isa::{layout::AddressMap, FlatMemory, Inst, NullIo, Program, Reg, Vm};
/// let prog = Program::new(vec![
///     Inst::Imm { rd: Reg::new(0), value: 5 },
///     Inst::Store { rs: Reg::new(0), base: Reg::new(13), offset: 0 },
///     Inst::Halt,
/// ], 0, None);
/// let map = AddressMap::new(1);
/// let mut vm = Vm::new(0, &map);
/// let mut mem = FlatMemory::new(map.total_words());
/// let mut io = NullIo;
/// while !vm.halted() {
///     vm.step(&prog, &mut mem, &mut io);
/// }
/// // Imm, Store and Halt all retire.
/// assert_eq!(vm.retired(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vm {
    regs: [Word; 16],
    pc: usize,
    halted: bool,
    in_handler: bool,
    saved: Option<(usize, [Word; 16])>,
    retired: u64,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(FNV_PRIME);
}

impl Vm {
    /// Creates a VM for thread `tid` with the conventional registers
    /// initialized from `map`. The program counter starts at zero; call
    /// [`Vm::set_pc`] with the program entry before stepping if the
    /// entry is non-zero.
    pub fn new(tid: u32, map: &AddressMap) -> Self {
        let mut regs = [0u64; 16];
        regs[15] = u64::from(tid);
        regs[13] = map.private_base(tid);
        regs[12] = map.shared_base();
        Self {
            regs,
            pc: 0,
            halted: false,
            in_handler: false,
            saved: None,
            retired: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Sets the program counter (used to jump to a program's entry).
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the thread has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the thread is inside an interrupt handler.
    pub fn in_handler(&self) -> bool {
        self.in_handler
    }

    /// Retired instruction count.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Rolling hash of the retired instruction stream, including loaded
    /// values; two runs replay deterministically iff these match.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    /// Reads a register (for tests and device glue).
    pub fn reg(&self, index: usize) -> Word {
        self.regs[index]
    }

    /// Takes an architected-state checkpoint.
    pub fn snapshot(&self) -> VmState {
        VmState {
            regs: self.regs,
            pc: self.pc,
            halted: self.halted,
            in_handler: self.in_handler,
            saved: self.saved,
            retired: self.retired,
            hash: self.hash,
        }
    }

    /// Restores a checkpoint taken by [`Vm::snapshot`] (chunk squash).
    pub fn restore(&mut self, s: &VmState) {
        self.regs = s.regs;
        self.pc = s.pc;
        self.halted = s.halted;
        self.in_handler = s.in_handler;
        self.saved = s.saved;
        self.retired = s.retired;
        self.hash = s.hash;
    }

    /// The next instruction to execute, if any.
    pub fn peek<'p>(&self, prog: &'p Program) -> Option<&'p Inst> {
        if self.halted {
            None
        } else {
            prog.inst_at(self.pc)
        }
    }

    /// Delivers an interrupt: banks the architected state and jumps to
    /// the program's handler with `payload` in `r9`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no handler or the VM is already inside
    /// a handler (the platform delivers at chunk boundaries only, and
    /// queues while a handler runs).
    pub fn deliver_interrupt(&mut self, prog: &Program, payload: Word) {
        assert!(!self.in_handler, "nested interrupt delivery");
        let handler = prog.handler().expect("program has no interrupt handler");
        self.saved = Some((self.pc, self.regs));
        self.regs[9] = payload;
        self.pc = handler;
        self.in_handler = true;
        fold(&mut self.hash, 0x1157_u64);
        fold(&mut self.hash, payload);
    }

    /// Executes one instruction.
    ///
    /// Returns what happened; when the thread is halted this is a no-op
    /// reporting [`StepKind::Halted`]. A pc past the end of the program
    /// halts the thread without retiring anything.
    pub fn step<M: DataMemory + ?Sized, I: IoBus + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut M,
        io: &mut I,
    ) -> StepInfo {
        if self.halted {
            return StepInfo::none(StepKind::Halted);
        }
        let Some(&inst) = prog.inst_at(self.pc) else {
            self.halted = true;
            return StepInfo::none(StepKind::Halted);
        };
        self.execute(inst, mem, io)
    }

    /// Runs up to `limit` instructions under the chunking rules, and
    /// returns how many retired and why the run stopped. The checks come
    /// in this order before each instruction:
    ///
    /// 1. `limit` instructions ran: [`Stop::Limit`];
    /// 2. the thread retired `budget` instructions or halted:
    ///    [`Stop::Finished`];
    /// 3. the pc is past the end of the program: [`Stop::Finished`],
    ///    leaving `halted` unset (unlike [`Vm::step`]);
    /// 4. the instruction is uncached and the run already holds
    ///    instructions: [`Stop::Uncached`], before executing it.
    ///
    /// An uncached instruction that runs first runs on its own: the run
    /// stops right after it with [`Stop::Uncached`].
    pub fn run<M: DataMemory + ?Sized, I: IoBus + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut M,
        io: &mut I,
        limit: u32,
        budget: u64,
    ) -> (u32, Stop) {
        let mut n = 0u32;
        // Each instruction retires one, so the budget allows `room` more.
        let room = budget.saturating_sub(self.retired);
        loop {
            if n >= limit {
                return (n, Stop::Limit);
            }
            if u64::from(n) >= room || self.halted {
                return (n, Stop::Finished);
            }
            let Some(&inst) = prog.inst_at(self.pc) else {
                return (n, Stop::Finished);
            };
            let uncached = inst.is_uncached();
            if uncached && n > 0 {
                return (n, Stop::Uncached);
            }
            self.execute(inst, mem, io);
            n += 1;
            if uncached {
                return (n, Stop::Uncached);
            }
        }
    }

    /// Executes `inst`, the instruction at the pc, and retires it: the
    /// one per-instruction executor behind [`Vm::step`] and [`Vm::run`].
    /// It is inlined into both, so `run` drops the `StepInfo` unbuilt.
    #[inline(always)]
    fn execute<M: DataMemory + ?Sized, I: IoBus + ?Sized>(
        &mut self,
        inst: Inst,
        mem: &mut M,
        io: &mut I,
    ) -> StepInfo {
        let mut info = StepInfo::none(StepKind::Normal);
        let mut next_pc = self.pc + 1;
        fold(&mut self.hash, self.pc as u64);
        match inst {
            Inst::Imm { rd, value } => {
                self.regs[rd.index()] = value;
            }
            Inst::Alu { rd, ra, rb, op } => {
                let v = op.apply(self.regs[ra.index()], self.regs[rb.index()]);
                self.regs[rd.index()] = v;
                fold(&mut self.hash, v);
            }
            Inst::AddImm { rd, ra, imm } => {
                self.regs[rd.index()] = self.regs[ra.index()].wrapping_add(imm as u64);
            }
            Inst::Load { rd, base, offset } => {
                let addr = effective_addr(self.regs[base.index()], offset);
                let v = mem.load(addr);
                self.regs[rd.index()] = v;
                info.mem_ops[0] = Some(MemOp { addr, write: false });
                fold(&mut self.hash, addr);
                fold(&mut self.hash, v);
            }
            Inst::Store { rs, base, offset } => {
                let addr = effective_addr(self.regs[base.index()], offset);
                let v = self.regs[rs.index()];
                mem.store(addr, v);
                info.mem_ops[0] = Some(MemOp { addr, write: true });
                fold(&mut self.hash, addr);
                fold(&mut self.hash, v);
            }
            Inst::Cas {
                rd,
                base,
                offset,
                expected,
                desired,
            } => {
                let addr = effective_addr(self.regs[base.index()], offset);
                let cur = mem.load(addr);
                info.mem_ops[0] = Some(MemOp { addr, write: false });
                let ok = cur == self.regs[expected.index()];
                if ok {
                    mem.store(addr, self.regs[desired.index()]);
                    info.mem_ops[1] = Some(MemOp { addr, write: true });
                }
                self.regs[rd.index()] = u64::from(ok);
                fold(&mut self.hash, addr);
                fold(&mut self.hash, cur);
                fold(&mut self.hash, u64::from(ok));
            }
            Inst::Jump { target } => {
                next_pc = target;
                info.is_branch = true;
            }
            Inst::BranchEq { ra, rb, target } => {
                info.is_branch = true;
                if self.regs[ra.index()] == self.regs[rb.index()] {
                    next_pc = target;
                }
            }
            Inst::BranchLt { ra, rb, target } => {
                info.is_branch = true;
                if self.regs[ra.index()] < self.regs[rb.index()] {
                    next_pc = target;
                }
            }
            Inst::Fence => {}
            Inst::IoLoad { rd, port } => {
                let v = io.io_load(port);
                self.regs[rd.index()] = v;
                info.kind = StepKind::Uncached;
                fold(&mut self.hash, u64::from(port));
                fold(&mut self.hash, v);
            }
            Inst::IoStore { rs, port } => {
                io.io_store(port, self.regs[rs.index()]);
                info.kind = StepKind::Uncached;
                fold(&mut self.hash, u64::from(port));
                fold(&mut self.hash, self.regs[rs.index()]);
            }
            Inst::System { code } => {
                info.kind = StepKind::Uncached;
                fold(&mut self.hash, u64::from(code));
            }
            Inst::Iret => {
                let (pc, regs) = self
                    .saved
                    .take()
                    .expect("iret outside of interrupt handler");
                self.regs = regs;
                next_pc = pc;
                self.in_handler = false;
                info.is_branch = true;
            }
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                self.retired += 1;
                return StepInfo::none(StepKind::Halted);
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Reg};
    use crate::program::ProgramBuilder;
    use proptest::prelude::*;

    fn map() -> AddressMap {
        AddressMap::new(2)
    }

    fn run(prog: &Program, steps: usize) -> (Vm, FlatMemory) {
        let m = map();
        let mut vm = Vm::new(0, &m);
        vm.set_pc(prog.entry());
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        for _ in 0..steps {
            if vm.halted() {
                break;
            }
            vm.step(prog, &mut mem, &mut io);
        }
        (vm, mem)
    }

    // Outcomes a generated case reached, one bit each.
    const CAS_OK: u32 = 1;
    const CAS_FAILED: u32 = 1 << 1;
    const IRET: u32 = 1 << 2;
    const HALT: u32 = 1 << 3;
    const PAST_END: u32 = 1 << 4;
    const UNCACHED_SOLO: u32 = 1 << 5;
    const UNCACHED_NEXT: u32 = 1 << 6;
    const LIMIT: u32 = 1 << 7;
    const BUDGET: u32 = 1 << 8;
    const EVERY_OUTCOME: u32 = (1 << 9) - 1;

    /// The per-instruction chunk loop that [`Vm::run`] replaced: peek,
    /// check, step. It sets in `seen` the outcomes it executed.
    fn reference<M: DataMemory, I: IoBus>(
        vm: &mut Vm,
        prog: &Program,
        mem: &mut M,
        io: &mut I,
        limit: u32,
        budget: u64,
        seen: &mut u32,
    ) -> (u32, Stop) {
        let mut n = 0u32;
        loop {
            if n >= limit {
                return (n, Stop::Limit);
            }
            if vm.retired() >= budget || vm.halted() {
                return (n, Stop::Finished);
            }
            let Some(&inst) = vm.peek(prog) else {
                return (n, Stop::Finished);
            };
            if inst.is_uncached() && n > 0 {
                return (n, Stop::Uncached);
            }
            let info = vm.step(prog, mem, io);
            n += 1;
            *seen |= match inst {
                Inst::Cas { .. } if info.mem_ops[1].is_some() => CAS_OK,
                Inst::Cas { .. } => CAS_FAILED,
                Inst::Iret => IRET,
                Inst::Halt => HALT,
                _ => 0,
            };
            if info.kind == StepKind::Uncached {
                return (n, Stop::Uncached);
            }
        }
    }

    /// An I/O bus that logs every call; a load returns a value that
    /// depends on how many calls came before it.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct IoLog {
        calls: Vec<(u16, Option<Word>)>,
    }

    impl IoBus for IoLog {
        fn io_load(&mut self, port: u16) -> Word {
            self.calls.push((port, None));
            self.calls.len() as Word * 3
        }
        fn io_store(&mut self, port: u16, value: Word) {
            self.calls.push((port, Some(value)));
        }
    }

    /// A generated instruction before its branch target is placed:
    /// kind, four register numbers, a small immediate and a target seed.
    type Proto = (u8, u8, u8, u8, u8, u8, u8);

    const ALU_OPS: [AluOp; 7] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Mul,
        AluOp::Mix,
    ];

    /// Kinds 0..7 are the ALU operations, then every other instruction
    /// but `Iret`, which ends the handler.
    const KINDS: u8 = 21;

    fn proto() -> impl Strategy<Value = Proto> {
        (
            0..KINDS,
            0u8..16,
            0u8..16,
            0u8..16,
            0u8..16,
            0u8..8,
            any::<u8>(),
        )
    }

    /// The instruction `p` names. A branch lands in `region` or, one
    /// time in four, up to two past the end of a `len`-instruction
    /// program.
    fn place(p: Proto, region: core::ops::Range<usize>, len: usize) -> Inst {
        let (kind, a, b, c, d, imm, seed) = p;
        let (a, b, c, d) = (Reg::new(a), Reg::new(b), Reg::new(c), Reg::new(d));
        let seed = usize::from(seed);
        let target = if seed % 4 == 0 {
            len + seed / 4 % 3
        } else {
            region.start + seed / 4 % region.len()
        };
        let value = u64::from(imm);
        let offset = i64::from(imm) - 4;
        match kind {
            0..=6 => Inst::Alu {
                rd: a,
                ra: b,
                rb: c,
                op: ALU_OPS[usize::from(kind)],
            },
            7 => Inst::Imm { rd: a, value },
            8 => Inst::AddImm {
                rd: a,
                ra: b,
                imm: offset,
            },
            9 => Inst::Load {
                rd: a,
                base: b,
                offset,
            },
            10 => Inst::Store {
                rs: a,
                base: b,
                offset,
            },
            11 => Inst::Cas {
                rd: a,
                base: b,
                offset,
                expected: c,
                desired: d,
            },
            12 => Inst::Jump { target },
            13 => Inst::BranchEq {
                ra: a,
                rb: b,
                target,
            },
            14 => Inst::BranchLt {
                ra: a,
                rb: b,
                target,
            },
            15 => Inst::Fence,
            16 => Inst::IoLoad {
                rd: a,
                port: u16::from(imm),
            },
            17 => Inst::IoStore {
                rs: a,
                port: u16::from(imm),
            },
            18 => Inst::System {
                code: u16::from(imm),
            },
            19 => Inst::Nop,
            _ => Inst::Halt,
        }
    }

    /// A program of `main` then `Halt`, and an interrupt handler of
    /// `handler` then `Iret`. Branches stay in their own part (or leave
    /// the program), so `Iret` runs only inside a delivered handler.
    fn program(main: &[Proto], handler: &[Proto]) -> Program {
        let h = main.len() + 1;
        let len = h + handler.len() + 1;
        let mut code: Vec<Inst> = main.iter().map(|&p| place(p, 0..h, len)).collect();
        code.push(Inst::Halt);
        code.extend(handler.iter().map(|&p| place(p, h..len, len)));
        code.push(Inst::Iret);
        Program::new(code, 0, Some(h))
    }

    /// One generated case: runs the chunks (`limit`, `budget`) on two
    /// VMs, one by stepping and one by [`Vm::run`], delivering an
    /// interrupt before chunk `irq.1` when `irq.0` is set, requires them
    /// to agree after every chunk, and returns the outcomes reached.
    fn check(
        main: &[Proto],
        handler: &[Proto],
        chunks: &[(u32, u64)],
        irq: (bool, usize, Word),
    ) -> u32 {
        let prog = program(main, handler);
        let map = AddressMap::new(1);
        let (mut stepped, mut ran) = (Vm::new(0, &map), Vm::new(0, &map));
        let (mut stepped_mem, mut ran_mem) = (FlatMemory::new(64), FlatMemory::new(64));
        let (mut stepped_io, mut ran_io) = (IoLog::default(), IoLog::default());
        let mut seen = 0;
        for (i, &(limit, budget)) in chunks.iter().enumerate() {
            if irq.0 && irq.1 == i && !stepped.in_handler() {
                stepped.deliver_interrupt(&prog, irq.2);
                ran.deliver_interrupt(&prog, irq.2);
            }
            let want = reference(
                &mut stepped,
                &prog,
                &mut stepped_mem,
                &mut stepped_io,
                limit,
                budget,
                &mut seen,
            );
            let got = ran.run(&prog, &mut ran_mem, &mut ran_io, limit, budget);
            assert_eq!(got, want, "chunk {i} of {prog:?}");
            assert_eq!(ran.snapshot(), stepped.snapshot(), "chunk {i} of {prog:?}");
            assert_eq!(ran_mem, stepped_mem, "chunk {i} of {prog:?}");
            assert_eq!(ran_io, stepped_io, "chunk {i} of {prog:?}");
            seen |= match want.1 {
                Stop::Limit => LIMIT,
                Stop::Finished if stepped.retired() >= budget => BUDGET,
                Stop::Finished if !stepped.halted() => PAST_END,
                Stop::Finished => 0,
                Stop::Uncached if want.0 == 1 => UNCACHED_SOLO,
                Stop::Uncached => UNCACHED_NEXT,
            };
        }
        seen
    }

    fn chunks() -> impl Strategy<Value = Vec<(u32, u64)>> {
        proptest::collection::vec((0u32..24, 0u64..80), 1..6)
    }

    fn irq() -> impl Strategy<Value = (bool, usize, Word)> {
        (proptest::bool::ANY, 0usize..4, any::<u64>())
    }

    const CASES: u32 = 512;

    proptest! {
        #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

        /// `Vm::run` retires the same instructions as the stepping loop
        /// and stops for the same reason, leaving the same VM state
        /// (registers, pc, `halted`, handler state, retired count and
        /// stream hash), the same memory and the same I/O calls, over
        /// random programs, limits, budgets and interrupts.
        #[test]
        fn run_equals_stepping(
            main in proptest::collection::vec(proto(), 0..24),
            handler in proptest::collection::vec(proto(), 0..8),
            chunks in chunks(),
            irq in irq(),
        ) {
            check(&main, &handler, &chunks, irq);
        }
    }

    /// The cases [`run_equals_stepping`] runs, drawn again from the same
    /// case stream, reach everything it means to cover: both CAS
    /// outcomes, `Iret` in a delivered handler, `Halt`, a pc run past the
    /// end, and every stop reason, an uncached instruction run on its
    /// own and one stopped before included.
    #[test]
    fn generated_cases_cover_every_outcome() {
        let strategy = (
            proptest::collection::vec(proto(), 0..24),
            proptest::collection::vec(proto(), 0..8),
            chunks(),
            irq(),
        );
        let mut seen = 0;
        for case in 0..u64::from(CASES) {
            let mut rng =
                proptest::test_runner::TestRng::for_case_named("run_equals_stepping", case);
            let (main, handler, chunks, irq) = strategy.generate(&mut rng);
            seen |= check(&main, &handler, &chunks, irq);
        }
        assert_eq!(seen, EVERY_OUTCOME, "outcomes reached: {seen:#011b}");
    }

    #[test]
    fn store_load_round_trip() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::Imm {
            rd: Reg::new(0),
            value: 42,
        });
        b.emit(Inst::Store {
            rs: Reg::new(0),
            base: Reg::new(13),
            offset: 5,
        });
        b.emit(Inst::Load {
            rd: Reg::new(1),
            base: Reg::new(13),
            offset: 5,
        });
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let (vm, _) = run(&prog, 10);
        assert_eq!(vm.reg(1), 42);
        assert_eq!(vm.retired(), 4);
        assert!(vm.halted());
    }

    #[test]
    fn cas_success_and_failure() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::Imm {
            rd: Reg::new(1),
            value: 0,
        }); // expected
        b.emit(Inst::Imm {
            rd: Reg::new(2),
            value: 9,
        }); // desired
        b.emit(Inst::Cas {
            rd: Reg::new(3),
            base: Reg::new(13),
            offset: 0,
            expected: Reg::new(1),
            desired: Reg::new(2),
        });
        b.emit(Inst::Cas {
            rd: Reg::new(4),
            base: Reg::new(13),
            offset: 0,
            expected: Reg::new(1),
            desired: Reg::new(2),
        });
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let (vm, mut mem) = run(&prog, 10);
        assert_eq!(vm.reg(3), 1, "first CAS succeeds");
        assert_eq!(vm.reg(4), 0, "second CAS fails");
        assert_eq!(mem.load(map().private_base(0)), 9);
    }

    #[test]
    fn branches_select_paths() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::Imm {
            rd: Reg::new(0),
            value: 3,
        });
        b.emit(Inst::Imm {
            rd: Reg::new(1),
            value: 3,
        });
        let l = b.emit_forward(Inst::BranchEq {
            ra: Reg::new(0),
            rb: Reg::new(1),
            target: usize::MAX,
        });
        b.emit(Inst::Imm {
            rd: Reg::new(2),
            value: 111,
        }); // skipped
        b.bind(l);
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let (vm, _) = run(&prog, 10);
        assert_eq!(vm.reg(2), 0);
    }

    #[test]
    fn spin_loop_terminates_on_external_write() {
        // while mem[shared] == 0 {}  — step manually, flip the flag.
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.emit(Inst::Load {
            rd: Reg::new(0),
            base: Reg::new(12),
            offset: 0,
        });
        b.emit(Inst::Imm {
            rd: Reg::new(1),
            value: 0,
        });
        b.emit(Inst::BranchEq {
            ra: Reg::new(0),
            rb: Reg::new(1),
            target: top,
        });
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let m = map();
        let mut vm = Vm::new(0, &m);
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        for _ in 0..9 {
            vm.step(&prog, &mut mem, &mut io);
        }
        assert!(!vm.halted());
        mem.store(m.shared_base(), 1);
        for _ in 0..4 {
            vm.step(&prog, &mut mem, &mut io);
        }
        assert!(vm.halted());
    }

    #[test]
    fn interrupt_banks_and_restores_state() {
        let mut b = ProgramBuilder::new();
        // main: r0 <- 7; loop: jump loop
        b.emit(Inst::Imm {
            rd: Reg::new(0),
            value: 7,
        });
        let lp = b.here();
        b.emit(Inst::Jump { target: lp });
        // handler: write payload to mailbox, iret
        let h = b.here();
        b.emit(Inst::Store {
            rs: Reg::new(9),
            base: Reg::new(13),
            offset: 1,
        });
        b.emit(Inst::Iret);
        let prog = b.build(0, Some(h));
        let m = map();
        let mut vm = Vm::new(0, &m);
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        vm.step(&prog, &mut mem, &mut io);
        vm.step(&prog, &mut mem, &mut io);
        let r0_before = vm.reg(0);
        vm.deliver_interrupt(&prog, 0xbeef);
        assert!(vm.in_handler());
        vm.step(&prog, &mut mem, &mut io); // store
        vm.step(&prog, &mut mem, &mut io); // iret
        assert!(!vm.in_handler());
        assert_eq!(vm.reg(0), r0_before, "registers restored after iret");
        assert_eq!(mem.load(m.private_base(0) + 1), 0xbeef);
    }

    #[test]
    fn vm_state_byte_round_trip() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::Imm {
            rd: Reg::new(0),
            value: 9,
        });
        let lp = b.here();
        b.emit(Inst::Jump { target: lp });
        let h = b.here();
        b.emit(Inst::Iret);
        let prog = b.build(0, Some(h));
        let m = map();
        let mut vm = Vm::new(1, &m);
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        vm.step(&prog, &mut mem, &mut io);
        // Plain state.
        let st = vm.snapshot();
        assert_eq!(VmState::from_bytes(&st.to_bytes()), Some(st.clone()));
        // Handler-banked state (exercises the `saved` branch).
        vm.deliver_interrupt(&prog, 0xabcd);
        let st = vm.snapshot();
        assert_eq!(VmState::from_bytes(&st.to_bytes()), Some(st));
        // Malformed inputs fail cleanly.
        assert_eq!(VmState::from_bytes(&[]), None);
        assert_eq!(VmState::from_bytes(&[0u8; 10]), None);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::Imm {
            rd: Reg::new(0),
            value: 1,
        });
        b.emit(Inst::Imm {
            rd: Reg::new(0),
            value: 2,
        });
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let m = map();
        let mut vm = Vm::new(0, &m);
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        vm.step(&prog, &mut mem, &mut io);
        let snap = vm.snapshot();
        let hash_at_snap = vm.stream_hash();
        vm.step(&prog, &mut mem, &mut io);
        assert_ne!(vm.stream_hash(), hash_at_snap);
        vm.restore(&snap);
        assert_eq!(vm.stream_hash(), hash_at_snap);
        assert_eq!(vm.retired(), 1);
        assert_eq!(vm.reg(0), 1);
    }

    #[test]
    fn stream_hash_is_load_value_sensitive() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::Load {
            rd: Reg::new(0),
            base: Reg::new(12),
            offset: 0,
        });
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let m = map();
        let mut io = NullIo;

        let mut vm1 = Vm::new(0, &m);
        let mut mem1 = FlatMemory::new(m.total_words());
        vm1.step(&prog, &mut mem1, &mut io);

        let mut vm2 = Vm::new(0, &m);
        let mut mem2 = FlatMemory::new(m.total_words());
        mem2.store(m.shared_base(), 5);
        vm2.step(&prog, &mut mem2, &mut io);

        assert_ne!(vm1.stream_hash(), vm2.stream_hash());
    }

    #[test]
    fn uncached_kinds_reported() {
        let mut b = ProgramBuilder::new();
        b.emit(Inst::IoLoad {
            rd: Reg::new(0),
            port: 2,
        });
        b.emit(Inst::System { code: 1 });
        b.emit(Inst::Halt);
        let prog = b.build(0, None);
        let m = map();
        let mut vm = Vm::new(0, &m);
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        assert_eq!(vm.step(&prog, &mut mem, &mut io).kind, StepKind::Uncached);
        assert_eq!(vm.step(&prog, &mut mem, &mut io).kind, StepKind::Uncached);
    }

    #[test]
    fn halted_step_is_noop() {
        let prog = Program::new(vec![Inst::Halt], 0, None);
        let m = map();
        let mut vm = Vm::new(0, &m);
        let mut mem = FlatMemory::new(m.total_words());
        let mut io = NullIo;
        vm.step(&prog, &mut mem, &mut io);
        let retired = vm.retired();
        assert_eq!(vm.step(&prog, &mut mem, &mut io).kind, StepKind::Halted);
        assert_eq!(vm.retired(), retired);
    }
}

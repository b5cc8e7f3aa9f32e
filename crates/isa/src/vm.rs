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
    /// reporting [`StepKind::Halted`].
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
    use crate::inst::Reg;
    use crate::program::ProgramBuilder;

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

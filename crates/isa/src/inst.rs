//! Instruction set definition.

use crate::{Addr, Word};

/// One of the 16 general-purpose registers.
///
/// # Examples
///
/// ```
/// use delorean_isa::Reg;
/// let r = Reg::new(3);
/// assert_eq!(r.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 16;

    /// Creates a register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::COUNT`.
    pub const fn new(index: u8) -> Self {
        assert!((index as usize) < Self::COUNT, "register out of range");
        Reg(index)
    }

    /// The register number. [`Reg::new`] keeps it below
    /// [`Reg::COUNT`], so the mask changes nothing; it lets the compiler
    /// drop the bounds check when the number indexes a register file.
    pub const fn index(self) -> usize {
        self.0 as usize & (Self::COUNT - 1)
    }
}

impl core::fmt::Display for Reg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Binary ALU operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Wrapping multiplication.
    Mul,
    /// A cheap mixing function (`(a ^ rotl(b, 13)).wrapping_mul(K)`)
    /// used by workloads to derive data-dependent addresses.
    Mix,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: Word, b: Word) -> Word {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Xor => a ^ b,
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mix => (a ^ b.rotate_left(13)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }
}

/// Instruction encoding.
///
/// Memory addresses are word granular and computed as
/// `regs[base] + offset` (wrapping). Control-flow targets are absolute
/// instruction indices into the owning [`Program`](crate::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `rd <- value`.
    Imm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        value: Word,
    },
    /// `rd <- op(ra, rb)`.
    Alu {
        /// Destination register.
        rd: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
        /// Operation.
        op: AluOp,
    },
    /// `rd <- ra + imm` (wrapping).
    AddImm {
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Immediate addend (two's complement).
        imm: i64,
    },
    /// `rd <- mem[regs[base] + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
    },
    /// `mem[regs[base] + offset] <- rs`.
    Store {
        /// Source register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
    },
    /// Atomic compare-and-swap on `mem[regs[base] + offset]`:
    /// if the current value equals `regs[expected]`, store
    /// `regs[desired]` and set `rd <- 1`; otherwise `rd <- 0`.
    Cas {
        /// Result register (1 on success).
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
        /// Register holding the expected value.
        expected: Reg,
        /// Register holding the replacement value.
        desired: Reg,
    },
    /// Unconditional jump to instruction index `target`.
    Jump {
        /// Absolute instruction index.
        target: usize,
    },
    /// Jump to `target` when `ra == rb`.
    BranchEq {
        /// First comparison register.
        ra: Reg,
        /// Second comparison register.
        rb: Reg,
        /// Absolute instruction index.
        target: usize,
    },
    /// Jump to `target` when `ra < rb` (unsigned).
    BranchLt {
        /// First comparison register.
        ra: Reg,
        /// Second comparison register.
        rb: Reg,
        /// Absolute instruction index.
        target: usize,
    },
    /// Memory fence (a no-op for the functional model; consistency
    /// models give it a timing meaning).
    Fence,
    /// Uncached load from an I/O port: `rd <- device[port]`.
    /// Truncates the running chunk deterministically (Section 4.2.2);
    /// the loaded value is recorded in the I/O log.
    IoLoad {
        /// Destination register.
        rd: Reg,
        /// Device port number.
        port: u16,
    },
    /// Uncached store to an I/O port (e.g. I/O initiation). Truncates
    /// the running chunk deterministically; not logged.
    IoStore {
        /// Source register.
        rs: Reg,
        /// Device port number.
        port: u16,
    },
    /// Special system instruction (frequency change, interrupt masking,
    /// ...). Truncates the running chunk deterministically; otherwise a
    /// no-op in the functional model.
    System {
        /// Operation code, carried for the stream hash only.
        code: u16,
    },
    /// Return from interrupt handler.
    Iret,
    /// No operation.
    Nop,
    /// Stop the thread.
    Halt,
}

impl Inst {
    /// Whether this instruction is "hard to undo" and must truncate the
    /// currently-running chunk *deterministically* before executing
    /// (uncached accesses and special system instructions,
    /// Section 4.2.2 of the paper).
    pub fn is_uncached(&self) -> bool {
        matches!(
            self,
            Inst::IoLoad { .. } | Inst::IoStore { .. } | Inst::System { .. }
        )
    }

    /// Whether this instruction reads or writes data memory.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::Cas { .. }
        )
    }
}

/// Computes the effective word address of a memory instruction.
pub fn effective_addr(base_value: Word, offset: i64) -> Addr {
    base_value.wrapping_add(offset as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_display_and_index() {
        let r = Reg::new(15);
        assert_eq!(r.index(), 15);
        assert_eq!(r.to_string(), "r15");
    }

    #[test]
    #[should_panic(expected = "register out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(16);
    }

    #[test]
    fn alu_ops() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        // Mix must be a deterministic non-trivial mixing.
        assert_ne!(AluOp::Mix.apply(1, 2), AluOp::Mix.apply(2, 1));
    }

    #[test]
    fn uncached_classification() {
        assert!(Inst::IoLoad {
            rd: Reg::new(0),
            port: 1
        }
        .is_uncached());
        assert!(Inst::IoStore {
            rs: Reg::new(0),
            port: 1
        }
        .is_uncached());
        assert!(Inst::System { code: 3 }.is_uncached());
        assert!(!Inst::Nop.is_uncached());
        assert!(!Inst::Load {
            rd: Reg::new(0),
            base: Reg::new(1),
            offset: 0
        }
        .is_uncached());
    }

    #[test]
    fn mem_classification() {
        assert!(Inst::Load {
            rd: Reg::new(0),
            base: Reg::new(1),
            offset: 0
        }
        .is_mem());
        assert!(Inst::Store {
            rs: Reg::new(0),
            base: Reg::new(1),
            offset: 0
        }
        .is_mem());
        assert!(Inst::Cas {
            rd: Reg::new(0),
            base: Reg::new(1),
            offset: 0,
            expected: Reg::new(2),
            desired: Reg::new(3)
        }
        .is_mem());
        assert!(!Inst::Fence.is_mem());
    }

    #[test]
    fn effective_addr_wraps() {
        assert_eq!(effective_addr(10, -4), 6);
        assert_eq!(effective_addr(0, -1), u64::MAX);
    }
}

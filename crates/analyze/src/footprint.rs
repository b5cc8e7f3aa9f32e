//! Static program footprint analysis (pass 1).
//!
//! An abstract interpretation over [`delorean_isa`] programs that
//! computes, *without executing*, the shared-address footprint each
//! thread may read or write, and flags unsynchronized conflicting
//! access pairs as potential races with source locations.
//!
//! # Abstract domain
//!
//! Register values are abstracted as [`AbsVal`]: a known constant, a
//! bounded interval `[base, base+span]`, or unknown. The interval form
//! arises from the workloads' data-dependent addressing idiom
//! (`mix(...) & (span-1) + region_base`): masking with a constant
//! bounds the value, and adding a constant base shifts the interval.
//! The lattice has height 3 (`Const ⊑ Range ⊑ Any`), so the fixpoint
//! terminates quickly.
//!
//! Synchronization is tracked as a flow-sensitive *must-hold* lockset:
//! a CAS on a lock-slot word acquires it, a store to the same word
//! releases it, and control-flow joins intersect (a lock is held at a
//! point only if it is held on every path reaching it). Two accesses
//! from different threads race statically when their address intervals
//! may overlap, at least one writes, and their locksets are disjoint.
//!
//! Accesses to the lock words themselves and to the barrier words are
//! synchronization, not data, and are excluded from race candidates.

use crate::report::{diagnostics_json, Diagnostic};
use delorean::json;
use delorean_isa::inst::{AluOp, Inst, Reg};
use delorean_isa::layout::{AddressMap, BARRIER_WORDS, DMA_WORDS, LOCK_COUNT, LOCK_STRIDE};
use delorean_isa::workload::WorkloadSpec;
use delorean_isa::{Addr, Program};
use std::collections::{BTreeSet, VecDeque};

/// Abstract register value: a 3-level interval lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Exactly this value.
    Const(u64),
    /// Any value in `[base, base + span]` (inclusive).
    Range {
        /// Smallest possible value.
        base: u64,
        /// Width of the interval (`span = hi - base`).
        span: u64,
    },
    /// Unknown.
    Any,
}

impl AbsVal {
    fn bounds(self) -> Option<(u64, u64)> {
        match self {
            AbsVal::Const(c) => Some((c, c)),
            AbsVal::Range { base, span } => Some((base, base.checked_add(span)?)),
            AbsVal::Any => None,
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (a, b) if a == b => a,
            (AbsVal::Const(c), AbsVal::Range { base, span })
            | (AbsVal::Range { base, span }, AbsVal::Const(c))
                if c >= base && c - base <= span =>
            {
                AbsVal::Range { base, span }
            }
            _ => AbsVal::Any,
        }
    }

    fn add(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(a.wrapping_add(b)),
            (AbsVal::Const(c), AbsVal::Range { base, span })
            | (AbsVal::Range { base, span }, AbsVal::Const(c)) => match base.checked_add(c) {
                Some(b) if b.checked_add(span).is_some() => AbsVal::Range { base: b, span },
                _ => AbsVal::Any,
            },
            (AbsVal::Range { base: b1, span: s1 }, AbsVal::Range { base: b2, span: s2 }) => {
                match (b1.checked_add(b2), s1.checked_add(s2)) {
                    (Some(b), Some(s)) if b.checked_add(s).is_some() => {
                        AbsVal::Range { base: b, span: s }
                    }
                    _ => AbsVal::Any,
                }
            }
            _ => AbsVal::Any,
        }
    }

    fn add_signed(self, imm: i64) -> AbsVal {
        // The VM computes `base + offset` with wrapping adds of the
        // offset as u64; model a negative offset as an exact
        // subtraction when it stays in range.
        if imm >= 0 {
            return self.add(AbsVal::Const(imm as u64));
        }
        let mag = imm.unsigned_abs();
        match self {
            AbsVal::Const(c) => AbsVal::Const(c.wrapping_sub(mag)),
            AbsVal::Range { base, span } => match base.checked_sub(mag) {
                Some(b) => AbsVal::Range { base: b, span },
                None => AbsVal::Any,
            },
            AbsVal::Any => AbsVal::Any,
        }
    }

    fn alu(op: AluOp, a: AbsVal, b: AbsVal) -> AbsVal {
        if let (AbsVal::Const(x), AbsVal::Const(y)) = (a, b) {
            return AbsVal::Const(op.apply(x, y));
        }
        match op {
            AluOp::Add => a.add(b),
            // `x & m <= m` for any x, so masking with a constant bounds
            // the result — the workloads' span-mask addressing idiom.
            AluOp::And => match (a, b) {
                (_, AbsVal::Const(m)) | (AbsVal::Const(m), _) => AbsVal::Range { base: 0, span: m },
                _ => AbsVal::Any,
            },
            _ => AbsVal::Any,
        }
    }
}

impl core::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AbsVal::Const(c) => write!(f, "{c:#x}"),
            AbsVal::Range { base, span } => {
                write!(f, "[{:#x}, {:#x}]", base, base.saturating_add(*span))
            }
            AbsVal::Any => write!(f, "?"),
        }
    }
}

/// Which address-space region an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// A thread's private region.
    Private(u32),
    /// The shared data region.
    Shared,
    /// A lock slot's word 0 — synchronization, not data.
    LockWord,
    /// A lock slot's data words (offset 1..stride) — lock-protected
    /// shared data.
    LockData,
    /// The barrier words — synchronization, not data.
    Barrier,
    /// A thread's interrupt mailbox.
    Mailbox(u32),
    /// The DMA target buffer.
    Dma,
    /// Spans multiple regions or could not be resolved.
    Unresolved,
}

impl Region {
    fn classify_addr(map: &AddressMap, addr: Addr) -> Region {
        let n = map.threads();
        let locks_base = map.lock_addr(0);
        if addr < map.shared_base() {
            return Region::Private((addr / delorean_isa::layout::PRIVATE_WORDS) as u32);
        }
        if addr < locks_base {
            return Region::Shared;
        }
        if addr < map.barrier_base() {
            let off = (addr - locks_base) % LOCK_STRIDE;
            return if off == 0 {
                Region::LockWord
            } else {
                Region::LockData
            };
        }
        if addr < map.barrier_base() + BARRIER_WORDS {
            return Region::Barrier;
        }
        if addr < map.dma_base() {
            let off = addr - map.mailbox_base(0);
            let owner = (off / delorean_isa::layout::MAILBOX_WORDS) as u32;
            return if owner < n {
                Region::Mailbox(owner)
            } else {
                Region::Unresolved
            };
        }
        if addr < map.dma_base() + DMA_WORDS {
            return Region::Dma;
        }
        Region::Unresolved
    }

    fn classify(map: &AddressMap, addr: AbsVal) -> Region {
        match addr.bounds() {
            None => Region::Unresolved,
            Some((lo, hi)) => {
                let a = Self::classify_addr(map, lo);
                let b = Self::classify_addr(map, hi);
                if a == b {
                    a
                } else {
                    Region::Unresolved
                }
            }
        }
    }

    /// Whether accesses here are data (candidates for races) rather
    /// than synchronization operations.
    fn is_data(self) -> bool {
        !matches!(self, Region::LockWord | Region::Barrier)
    }

    fn label(self) -> String {
        match self {
            Region::Private(t) => format!("private[{t}]"),
            Region::Shared => "shared".to_string(),
            Region::LockWord => "lock-word".to_string(),
            Region::LockData => "lock-data".to_string(),
            Region::Barrier => "barrier".to_string(),
            Region::Mailbox(t) => format!("mailbox[{t}]"),
            Region::Dma => "dma".to_string(),
            Region::Unresolved => "unresolved".to_string(),
        }
    }
}

/// One static memory-access site, with the abstract state that reaches
/// it at the fixpoint.
#[derive(Debug, Clone)]
pub struct AccessSite {
    /// Thread the program belongs to.
    pub tid: u32,
    /// Instruction index within the program — the source location.
    pub pc: usize,
    /// Whether the site may read memory.
    pub read: bool,
    /// Whether the site may write memory.
    pub write: bool,
    /// Abstract effective address.
    pub addr: AbsVal,
    /// Region classification of the address.
    pub region: Region,
    /// Lock-slot addresses held on *every* path reaching the site.
    pub locks: BTreeSet<Addr>,
    /// Whether the site is inside the interrupt handler.
    pub in_handler: bool,
}

impl AccessSite {
    fn may_overlap(&self, other: &AccessSite) -> bool {
        match (self.addr.bounds(), other.addr.bounds()) {
            (Some((a_lo, a_hi)), Some((b_lo, b_hi))) => a_lo <= b_hi && b_lo <= a_hi,
            // An unresolved address conservatively overlaps anything
            // in a data region.
            _ => true,
        }
    }
}

/// Flow state: abstract registers plus the must-hold lockset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: [AbsVal; 16],
    locks: BTreeSet<Addr>,
}

impl AbsState {
    fn join_from(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for (r, o) in self.regs.iter_mut().zip(other.regs.iter()) {
            let j = r.join(*o);
            if j != *r {
                *r = j;
                changed = true;
            }
        }
        let inter: BTreeSet<Addr> = self.locks.intersection(&other.locks).copied().collect();
        if inter != self.locks {
            self.locks = inter;
            changed = true;
        }
        changed
    }
}

fn reg(state: &AbsState, r: Reg) -> AbsVal {
    state.regs[r.index()]
}

struct ProgramAnalysis<'a> {
    program: &'a Program,
    map: &'a AddressMap,
    tid: u32,
    in_states: Vec<Option<AbsState>>,
}

impl<'a> ProgramAnalysis<'a> {
    fn new(program: &'a Program, map: &'a AddressMap, tid: u32) -> Self {
        Self {
            program,
            map,
            tid,
            in_states: vec![None; program.len()],
        }
    }

    /// Seeds `pc` with `state`, joining into any existing state, and
    /// runs the worklist to the fixpoint.
    fn run_from(&mut self, pc: usize, state: AbsState) {
        let mut worklist = VecDeque::new();
        if self.merge_into(pc, &state) {
            worklist.push_back(pc);
        }
        while let Some(pc) = worklist.pop_front() {
            let Some(inst) = self.program.inst_at(pc) else {
                continue;
            };
            let Some(in_state) = self.in_states[pc].clone() else {
                continue;
            };
            let out = transfer(&in_state, inst, self.map);
            for succ in successors(pc, inst) {
                if succ < self.program.len() && self.merge_into(succ, &out) {
                    worklist.push_back(succ);
                }
            }
        }
    }

    fn merge_into(&mut self, pc: usize, state: &AbsState) -> bool {
        match &mut self.in_states[pc] {
            Some(existing) => existing.join_from(state),
            slot @ None => {
                *slot = Some(state.clone());
                true
            }
        }
    }

    /// Collects the memory-access sites with their fixpoint states.
    fn sites(&self) -> Vec<AccessSite> {
        let mut out = Vec::new();
        let handler = self.program.handler();
        for (pc, inst) in self.program.iter().enumerate() {
            let Some(state) = &self.in_states[pc] else {
                continue;
            };
            let (read, write, base, offset) = match *inst {
                Inst::Load { base, offset, .. } => (true, false, base, offset),
                Inst::Store { base, offset, .. } => (false, true, base, offset),
                Inst::Cas { base, offset, .. } => (true, true, base, offset),
                _ => continue,
            };
            let addr = reg(state, base).add_signed(offset);
            let region = Region::classify(self.map, addr);
            out.push(AccessSite {
                tid: self.tid,
                pc,
                read,
                write,
                addr,
                region,
                locks: state.locks.clone(),
                in_handler: handler.is_some_and(|h| pc >= h),
            });
        }
        out
    }
}

fn successors(pc: usize, inst: &Inst) -> Vec<usize> {
    match *inst {
        Inst::Jump { target } => vec![target],
        Inst::BranchEq { target, .. } | Inst::BranchLt { target, .. } => vec![pc + 1, target],
        Inst::Halt | Inst::Iret => Vec::new(),
        _ => vec![pc + 1],
    }
}

fn transfer(state: &AbsState, inst: &Inst, map: &AddressMap) -> AbsState {
    let mut out = state.clone();
    match *inst {
        Inst::Imm { rd, value } => out.regs[rd.index()] = AbsVal::Const(value),
        Inst::Alu { rd, ra, rb, op } => {
            out.regs[rd.index()] = AbsVal::alu(op, reg(state, ra), reg(state, rb));
        }
        Inst::AddImm { rd, ra, imm } => out.regs[rd.index()] = reg(state, ra).add_signed(imm),
        Inst::Load { rd, .. } => out.regs[rd.index()] = AbsVal::Any,
        Inst::Store { base, offset, .. } => {
            // A store of any value to a lock word is the release idiom.
            if let AbsVal::Const(addr) = reg(state, base).add_signed(offset) {
                if Region::classify_addr(map, addr) == Region::LockWord {
                    out.locks.remove(&addr);
                }
            }
        }
        Inst::Cas {
            rd, base, offset, ..
        } => {
            out.regs[rd.index()] = AbsVal::Range { base: 0, span: 1 };
            // A CAS on a lock word is the acquire idiom. The failure
            // path loops back through the pre-CAS state, whose lockset
            // lacks the lock, so the intersection at the spin head
            // removes it again; only the success path keeps it.
            if let AbsVal::Const(addr) = reg(state, base).add_signed(offset) {
                if Region::classify_addr(map, addr) == Region::LockWord {
                    out.locks.insert(addr);
                }
            }
        }
        Inst::IoLoad { rd, .. } => out.regs[rd.index()] = AbsVal::Any,
        Inst::Jump { .. }
        | Inst::BranchEq { .. }
        | Inst::BranchLt { .. }
        | Inst::Fence
        | Inst::IoStore { .. }
        | Inst::System { .. }
        | Inst::Iret
        | Inst::Nop
        | Inst::Halt => {}
    }
    out
}

/// Analyzes one thread program, returning its access sites at the
/// fixpoint. The main flow is seeded with the VM's initial register
/// file; the interrupt handler (which banks and restores the full
/// register file around itself) is seeded independently with unknown
/// registers except the never-written base registers r12/r13/r15.
pub fn analyze_program(program: &Program, tid: u32, map: &AddressMap) -> Vec<AccessSite> {
    let mut regs = [AbsVal::Const(0); 16];
    regs[15] = AbsVal::Const(u64::from(tid));
    regs[13] = AbsVal::Const(map.private_base(tid));
    regs[12] = AbsVal::Const(map.shared_base());
    let mut analysis = ProgramAnalysis::new(program, map, tid);
    analysis.run_from(
        program.entry(),
        AbsState {
            regs,
            locks: BTreeSet::new(),
        },
    );
    if let Some(h) = program.handler() {
        let mut hregs = [AbsVal::Any; 16];
        hregs[15] = AbsVal::Const(u64::from(tid));
        hregs[13] = AbsVal::Const(map.private_base(tid));
        hregs[12] = AbsVal::Const(map.shared_base());
        analysis.run_from(
            h,
            AbsState {
                regs: hregs,
                locks: BTreeSet::new(),
            },
        );
    }
    analysis.sites()
}

/// Conflict kind of a racing pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Both sides write.
    WriteWrite,
    /// Earlier/first site writes, the other reads.
    WriteRead,
    /// Earlier/first site reads, the other writes.
    ReadWrite,
}

impl RaceKind {
    /// Short label (`W-W`, `W-R`, `R-W`).
    pub fn label(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "W-W",
            RaceKind::WriteRead => "W-R",
            RaceKind::ReadWrite => "R-W",
        }
    }
}

/// One statically-detected potential race pair.
#[derive(Debug, Clone)]
pub struct StaticRace {
    /// First site (lower thread ID).
    pub a: AccessSite,
    /// Second site.
    pub b: AccessSite,
    /// Conflict kind.
    pub kind: RaceKind,
}

/// Per-thread footprint summary.
#[derive(Debug, Clone)]
pub struct ThreadFootprint {
    /// Thread ID.
    pub tid: u32,
    /// Total memory-access sites.
    pub sites: usize,
    /// Sites that may read the shared data region.
    pub shared_reads: usize,
    /// Sites that may write the shared data region.
    pub shared_writes: usize,
    /// Sites reached only with at least one lock held.
    pub locked_sites: usize,
}

/// Output of the static pass.
#[derive(Debug, Clone)]
pub struct FootprintReport {
    /// Per-thread footprints.
    pub threads: Vec<ThreadFootprint>,
    /// Total unsynchronized conflicting pairs found.
    pub pairs_total: u64,
    /// Distinct sites participating in at least one racy pair.
    pub racy_sites: usize,
    /// Example pairs (capped).
    pub examples: Vec<StaticRace>,
    /// Findings (one warning per example pair, plus summaries).
    pub diagnostics: Vec<Diagnostic>,
}

impl FootprintReport {
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"threads\":[");
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tid\":{},\"sites\":{},\"shared_reads\":{},\"shared_writes\":{},\"locked_sites\":{}}}",
                t.tid, t.sites, t.shared_reads, t.shared_writes, t.locked_sites
            ));
        }
        out.push_str(&format!(
            "],\"pairs_total\":{},\"racy_sites\":{},\"examples\":[",
            self.pairs_total, self.racy_sites
        ));
        for (i, r) in self.examples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                r.kind.label(),
                site_json(&r.a),
                site_json(&r.b)
            ));
        }
        out.push_str("],\"diagnostics\":");
        diagnostics_json(&self.diagnostics, out);
        out.push('}');
    }
}

fn site_json(s: &AccessSite) -> String {
    format!(
        "{{\"thread\":{},\"pc\":{},\"access\":\"{}\",\"region\":\"{}\",\"addr\":\"{}\"}}",
        s.tid,
        s.pc,
        access_label(s),
        json::escape(&s.region.label()),
        s.addr
    )
}

fn access_label(s: &AccessSite) -> &'static str {
    match (s.read, s.write) {
        (true, true) => "read-write",
        (_, true) => "write",
        _ => "read",
    }
}

impl core::fmt::Display for FootprintReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "static footprint analysis:")?;
        for t in &self.threads {
            writeln!(
                f,
                "  thread {}: {} access sites, {} shared-read, {} shared-write, {} lock-protected",
                t.tid, t.sites, t.shared_reads, t.shared_writes, t.locked_sites
            )?;
        }
        writeln!(
            f,
            "  {} unsynchronized conflicting pair(s) across {} site(s)",
            self.pairs_total, self.racy_sites
        )?;
        for r in &self.examples {
            writeln!(
                f,
                "  potential race ({}): thread {} pc {} ({}, {}) vs thread {} pc {} ({}, {})",
                r.kind.label(),
                r.a.tid,
                r.a.pc,
                access_label(&r.a),
                r.a.addr,
                r.b.tid,
                r.b.pc,
                access_label(&r.b),
                r.b.addr
            )?;
        }
        // Summary/unresolved notes are only in `diagnostics`.
        for d in self.diagnostics.iter().filter(|d| d.code != "static-race") {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Options for the static pass.
#[derive(Debug, Clone)]
pub struct StaticOptions {
    /// Maximum number of example pairs carried in the report.
    pub max_examples: usize,
}

impl Default for StaticOptions {
    fn default() -> Self {
        Self { max_examples: 8 }
    }
}

/// Runs the static pass over every thread program of `spec`.
pub fn analyze_workload(
    spec: &WorkloadSpec,
    n_procs: u32,
    seed: u64,
    opts: &StaticOptions,
) -> FootprintReport {
    let map = AddressMap::new(n_procs);
    let per_thread: Vec<Vec<AccessSite>> = (0..n_procs)
        .map(|t| {
            let program = spec.generate(t, n_procs, &map, seed);
            analyze_program(&program, t, &map)
        })
        .collect();
    find_static_races(&per_thread, &map, opts)
}

/// Pairs access sites across threads and reports the unsynchronized
/// conflicting ones.
pub fn find_static_races(
    per_thread: &[Vec<AccessSite>],
    map: &AddressMap,
    opts: &StaticOptions,
) -> FootprintReport {
    let shared_lo = map.shared_base();
    let threads: Vec<ThreadFootprint> = per_thread
        .iter()
        .enumerate()
        .map(|(tid, sites)| {
            let shared = |s: &&AccessSite| matches!(s.region, Region::Shared | Region::Unresolved);
            ThreadFootprint {
                tid: tid as u32,
                sites: sites.len(),
                shared_reads: sites.iter().filter(shared).filter(|s| s.read).count(),
                shared_writes: sites.iter().filter(shared).filter(|s| s.write).count(),
                locked_sites: sites.iter().filter(|s| !s.locks.is_empty()).count(),
            }
        })
        .collect();

    let mut pairs_total = 0u64;
    let mut examples = Vec::new();
    let mut racy: BTreeSet<(u32, usize)> = BTreeSet::new();
    let mut unresolved = 0usize;
    for (t1, sites1) in per_thread.iter().enumerate() {
        unresolved += sites1
            .iter()
            .filter(|s| s.region == Region::Unresolved && s.addr == AbsVal::Any)
            .count();
        for sites2 in per_thread.iter().skip(t1 + 1) {
            for a in sites1 {
                if !a.region.is_data() {
                    continue;
                }
                for b in sites2 {
                    if !b.region.is_data() || (!a.write && !b.write) {
                        continue;
                    }
                    if !a.may_overlap(b) {
                        continue;
                    }
                    if a.locks.intersection(&b.locks).next().is_some() {
                        continue;
                    }
                    pairs_total += 1;
                    racy.insert((a.tid, a.pc));
                    racy.insert((b.tid, b.pc));
                    if examples.len() < opts.max_examples {
                        let kind = match (a.write, b.write) {
                            (true, true) => RaceKind::WriteWrite,
                            (true, false) => RaceKind::WriteRead,
                            _ => RaceKind::ReadWrite,
                        };
                        examples.push(StaticRace {
                            a: a.clone(),
                            b: b.clone(),
                            kind,
                        });
                    }
                }
            }
        }
    }

    let mut diagnostics = Vec::new();
    for r in &examples {
        diagnostics.push(Diagnostic::warning(
            "static-race",
            format!(
                "potential {} race: thread {} pc {} and thread {} pc {} may touch overlapping {} addresses (a: {}, b: {}) with no common lock",
                r.kind.label(),
                r.a.tid,
                r.a.pc,
                r.b.tid,
                r.b.pc,
                r.a.region.label(),
                r.a.addr,
                r.b.addr
            ),
        ));
    }
    if pairs_total > examples.len() as u64 {
        diagnostics.push(Diagnostic::info(
            "static-race-summary",
            format!(
                "{} further unsynchronized conflicting pair(s) not listed",
                pairs_total - examples.len() as u64
            ),
        ));
    }
    if unresolved > 0 {
        diagnostics.push(Diagnostic::info(
            "static-unresolved",
            format!(
                "{unresolved} access site(s) have fully unknown addresses (treated as overlapping everything above {shared_lo:#x})"
            ),
        ));
    }
    FootprintReport {
        threads,
        pairs_total,
        racy_sites: racy.len(),
        examples,
        diagnostics,
    }
}

// LOCK_COUNT is part of the layout contract the classifier relies on;
// reference it so the import stays meaningful if the layout changes.
const _: () = assert!(LOCK_COUNT > 0);

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_isa::{Inst, ProgramBuilder};

    fn map2() -> AddressMap {
        AddressMap::new(2)
    }

    #[test]
    fn absval_lattice_joins() {
        let c = AbsVal::Const(4);
        assert_eq!(c.join(AbsVal::Const(4)), c);
        assert_eq!(c.join(AbsVal::Const(5)), AbsVal::Any);
        let r = AbsVal::Range { base: 0, span: 15 };
        assert_eq!(c.join(r), r);
        assert_eq!(AbsVal::Const(99).join(r), AbsVal::Any);
        assert_eq!(r.join(AbsVal::Any), AbsVal::Any);
    }

    #[test]
    fn masking_bounds_and_base_shifts() {
        let any = AbsVal::Any;
        let masked = AbsVal::alu(AluOp::And, any, AbsVal::Const(1023));
        assert_eq!(
            masked,
            AbsVal::Range {
                base: 0,
                span: 1023
            }
        );
        let shifted = AbsVal::alu(AluOp::Add, masked, AbsVal::Const(0x8000));
        assert_eq!(
            shifted,
            AbsVal::Range {
                base: 0x8000,
                span: 1023
            }
        );
    }

    #[test]
    fn region_classification_matches_layout() {
        let m = map2();
        assert_eq!(
            Region::classify_addr(&m, m.private_base(1) + 3),
            Region::Private(1)
        );
        assert_eq!(Region::classify_addr(&m, m.shared_base()), Region::Shared);
        assert_eq!(Region::classify_addr(&m, m.lock_addr(2)), Region::LockWord);
        assert_eq!(
            Region::classify_addr(&m, m.lock_addr(2) + 1),
            Region::LockData
        );
        assert_eq!(
            Region::classify_addr(&m, m.barrier_base() + 1),
            Region::Barrier
        );
        assert_eq!(
            Region::classify_addr(&m, m.mailbox_base(0)),
            Region::Mailbox(0)
        );
        assert_eq!(Region::classify_addr(&m, m.dma_base()), Region::Dma);
    }

    /// Two threads storing to the same shared constant address with no
    /// locks: one W-W race pair.
    #[test]
    fn unlocked_shared_store_races() {
        let m = map2();
        let prog = |_tid: u32| {
            let mut b = ProgramBuilder::new();
            b.emit(Inst::Store {
                rs: Reg::new(0),
                base: Reg::new(12),
                offset: 5,
            });
            b.emit(Inst::Halt);
            b.build(0, None)
        };
        let sites: Vec<Vec<AccessSite>> =
            (0..2).map(|t| analyze_program(&prog(t), t, &m)).collect();
        let report = find_static_races(&sites, &m, &StaticOptions::default());
        assert_eq!(report.pairs_total, 1);
        assert_eq!(report.examples[0].kind, RaceKind::WriteWrite);
        assert_eq!(report.racy_sites, 2);
    }

    /// The same conflicting store protected by a common lock: no race.
    #[test]
    fn lock_protected_store_does_not_race() {
        let m = map2();
        let lock = m.lock_addr(0);
        let prog = || {
            let mut b = ProgramBuilder::new();
            b.emit(Inst::Imm {
                rd: Reg::new(5),
                value: lock,
            });
            b.emit(Inst::Imm {
                rd: Reg::new(1),
                value: 0,
            });
            b.emit(Inst::Imm {
                rd: Reg::new(2),
                value: 1,
            });
            let spin = b.here();
            b.emit(Inst::Cas {
                rd: Reg::new(3),
                base: Reg::new(5),
                offset: 0,
                expected: Reg::new(1),
                desired: Reg::new(2),
            });
            b.emit(Inst::BranchEq {
                ra: Reg::new(3),
                rb: Reg::new(0),
                target: spin,
            });
            // Critical body: write shared word 5.
            b.emit(Inst::Store {
                rs: Reg::new(2),
                base: Reg::new(12),
                offset: 5,
            });
            // Release.
            b.emit(Inst::Store {
                rs: Reg::new(0),
                base: Reg::new(5),
                offset: 0,
            });
            b.emit(Inst::Halt);
            b.build(0, None)
        };
        let sites: Vec<Vec<AccessSite>> = (0..2).map(|t| analyze_program(&prog(), t, &m)).collect();
        // The shared store must be seen as lock-protected.
        let body = sites[0]
            .iter()
            .find(|s| s.region == Region::Shared)
            .unwrap();
        assert_eq!(body.locks.iter().copied().collect::<Vec<_>>(), vec![lock]);
        let report = find_static_races(&sites, &m, &StaticOptions::default());
        assert_eq!(report.pairs_total, 0, "{:?}", report.examples);
    }

    /// Private-only programs are race-free.
    #[test]
    fn private_accesses_never_race() {
        let m = map2();
        let prog = || {
            let mut b = ProgramBuilder::new();
            b.emit(Inst::Store {
                rs: Reg::new(0),
                base: Reg::new(13),
                offset: 7,
            });
            b.emit(Inst::Load {
                rd: Reg::new(1),
                base: Reg::new(13),
                offset: 7,
            });
            b.emit(Inst::Halt);
            b.build(0, None)
        };
        let sites: Vec<Vec<AccessSite>> = (0..2).map(|t| analyze_program(&prog(), t, &m)).collect();
        assert!(matches!(sites[0][0].region, Region::Private(0)));
        assert!(matches!(sites[1][0].region, Region::Private(1)));
        let report = find_static_races(&sites, &m, &StaticOptions::default());
        assert_eq!(report.pairs_total, 0);
    }

    /// Catalog sanity: an unlocked, irregular workload (radix) must
    /// show static races; a private-only spec must not.
    #[test]
    fn catalog_specs_classify_as_expected() {
        let radix = delorean_isa::workload::by_name("radix").unwrap();
        let report = analyze_workload(radix, 2, 7, &StaticOptions::default());
        assert!(report.pairs_total > 0, "radix must race statically");
        assert!(!report.examples.is_empty());

        let mut drf = WorkloadSpec::test_spec();
        drf.shared_frac = 0.0;
        drf.lock_every = 0;
        let report = analyze_workload(&drf, 2, 7, &StaticOptions::default());
        assert_eq!(report.pairs_total, 0, "{:?}", report.examples);
    }
}

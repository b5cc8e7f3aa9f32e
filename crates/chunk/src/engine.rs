//! The event-driven chunk execution engine.
//!
//! Chunks execute *functionally at their start time* against committed
//! memory plus the write buffers of older in-flight chunks on the same
//! core (lazy versioning), and their timing-model duration schedules a
//! completion event. A commit whose written lines meet an in-flight
//! chunk's read or written lines squashes that chunk and everything
//! younger on its core — the standard lazy-conflict
//! serializability argument then guarantees that the committed
//! execution equals the serial execution of chunks in arbiter grant
//! order, which is exactly the property DeLorean's determinism proof
//! (Appendix B) relies on.

use crate::arbiter::{ArbiterBackend, GlobalArbiter, ShardedArbiter};
use crate::components::{machine_components, EngineCtx};
use crate::config::{ArbiterConfig, EngineConfig};
use crate::devices::DeviceBank;
use crate::footprint::intersects_sorted;
use crate::hooks::{
    ArbiterContext, CommitRecord, Committer, ExecutionHooks, PendingView, SubstrateEvent,
    TruncationReason,
};
use crate::spec::{Chunk, ChunkState, Occupancy, SpecView};
use crate::stats::{ParallelStats, RunStats, StateDigest, TokenStats};
use crate::CoreId;
use delorean_isa::inst::effective_addr;
use delorean_isa::layout::{AddressMap, DMA_WORDS};
use delorean_isa::{Addr, Inst, IoBus, Program, StepKind, Vm, Word};
use delorean_mem::{line_of, Memory};
use delorean_sim::component::{Component, ComponentId, NEVER};
use delorean_sim::scheduler::Scheduler;
use delorean_sim::{AccessClass, MemorySystem, RunSpec, TimingParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The event vocabulary the machine's components exchange through the
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A chunk execution attempt finished.
    Complete { core: u32, attempt: u64 },
    /// A commit request reached the arbiter.
    Request { core: u32, attempt: u64 },
    /// A granted commit finished propagating.
    CommitDone { token: u64 },
    /// Device interrupt for a core (recording only).
    Irq { core: u32 },
    /// DMA transfer request (recording only).
    Dma,
    /// Injected squash storm (recording under substrate faults only).
    Storm,
    /// Re-poll the arbiter (grant-gap pacing).
    Poll,
}

#[derive(Debug)]
struct PendingReq {
    committer: Committer,
    attempt: u64,
    arrival: u64,
}

#[derive(Debug)]
struct ActiveCommit {
    committer: Committer,
    token: u64,
    /// Exact access footprint, sorted, for the parallel-commit
    /// disjointness check.
    lines: Vec<u64>,
}

#[derive(Debug)]
struct CoreState {
    vm: Vm,
    program: Program,
    /// In-flight chunks, oldest first.
    chunks: Vec<Chunk>,
    chunks_started: u64,
    committed: u64,
    occupancy: Occupancy,
    pending_irqs: std::collections::VecDeque<(u16, Word)>,
    stall_since: Option<u64>,
    stall_cycles: u64,
    done: bool,
    last_grant_time: u64,
    had_grant: bool,
}

/// Architectural state a run starts from when recording or replaying an
/// *interval* rather than a whole execution (the paper's `I(n,m)`
/// intervals, which begin at a ReVive/SafetyNet-style system
/// checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartState {
    /// Full committed-memory image.
    pub memory: Vec<Word>,
    /// Per-processor architected state (registers, PC, retired counts,
    /// stream hashes, handler state).
    pub vm_states: Vec<delorean_isa::vm::VmState>,
    /// Per-processor logical chunks committed before the interval.
    pub chunks_done: Vec<u64>,
}

/// Why the engine could not run an execution to its budget.
///
/// Recording cannot fail: its policy grants whatever is pending. A
/// replay follows its logs instead, so a log the machine cannot
/// follow, or a start state of the wrong shape, comes back as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Events drained while processors still held uncommitted work:
    /// the hooks never granted what those processors waited on.
    Starved {
        /// Simulated cycle of the last event.
        cycle: u64,
        /// The processors still holding work.
        pending: Vec<CoreId>,
    },
    /// The start state holds register files, chunk counters or a
    /// memory image for another machine than this one.
    StartShape {
        /// Processors in the machine.
        n_procs: u32,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Starved { cycle, pending } => write!(
                f,
                "engine starved at cycle {cycle}: processors {pending:?} still hold \
                 uncommitted work"
            ),
            EngineError::StartShape { n_procs } => {
                write!(f, "start state does not fit a {n_procs}-processor machine")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Runs one chunk-based execution to the per-processor budget and
/// returns its statistics and determinism digest.
///
/// # Errors
///
/// Returns [`EngineError::Starved`] when events drain while processors
/// still hold uncommitted work: during a replay, logs the machine
/// cannot follow.
pub fn run(
    spec: &RunSpec,
    cfg: &EngineConfig,
    hooks: &mut dyn ExecutionHooks,
) -> Result<RunStats, EngineError> {
    Engine::new(spec, cfg, hooks, None).run()
}

/// Like [`run`], but starting from a mid-execution checkpoint. The
/// budget in `spec` is *absolute*: each processor runs until its total
/// retired count (including pre-checkpoint instructions) reaches it.
///
/// # Errors
///
/// As [`run`], plus [`EngineError::StartShape`] when `start` does not
/// fit the machine.
pub fn run_from(
    spec: &RunSpec,
    cfg: &EngineConfig,
    hooks: &mut dyn ExecutionHooks,
    start: &StartState,
) -> Result<RunStats, EngineError> {
    let n = spec.n_procs as usize;
    let words = AddressMap::new(spec.n_procs).total_words();
    if start.vm_states.len() != n
        || start.chunks_done.len() != n
        || start.memory.len() as u64 != words
    {
        return Err(EngineError::StartShape {
            n_procs: spec.n_procs,
        });
    }
    Engine::new(spec, cfg, hooks, Some(start)).run()
}

pub(crate) struct Engine<'h> {
    cfg: EngineConfig,
    hooks: &'h mut dyn ExecutionHooks,
    budget: u64,
    now: u64,
    attempt_ctr: u64,
    commit_token_ctr: u64,
    sched: Scheduler<Ev>,
    arbiter: Box<dyn ArbiterBackend>,
    /// Shard of the grant currently being applied, consumed into its
    /// [`CommitRecord`].
    grant_shard: Option<u32>,
    cores: Vec<CoreState>,
    memory: Memory,
    memsys: MemorySystem,
    params: TimingParams,
    trng: SmallRng,
    /// Fault-injection RNG, seeded independently of `trng` so injected
    /// faults never perturb the timing randomness streams.
    frng: SmallRng,
    devices: DeviceBank,
    pending: Vec<PendingReq>,
    committing: Vec<ActiveCommit>,
    arrival_ctr: u64,
    gcc: u64,
    dma_pending: Option<Vec<(Addr, Word)>>,
    last_grant_time_global: u64,
    // Statistics.
    squashes: u64,
    squashed_insts: u64,
    overflow_trunc: u64,
    collision_trunc: u64,
    uncached_trunc: u64,
    interrupts: u64,
    dma_commits: u64,
    replay_splits: u64,
    commit_insts: u64,
    chunk_commits: u64,
    traffic: u64,
    parallel: ParallelStats,
    token: TokenStats,
}

impl<'h> Engine<'h> {
    fn new(
        spec: &RunSpec,
        cfg: &EngineConfig,
        hooks: &'h mut dyn ExecutionHooks,
        start: Option<&StartState>,
    ) -> Self {
        let mut cfg = cfg.clone();
        cfg.machine.n_procs = spec.n_procs;
        // Substrate faults (recording only): boost the overflow noise
        // and compress the device periods *before* the device bank and
        // memory system are built, so the burst shapes the whole run.
        if !cfg.replay {
            if let Some(f) = cfg.faults {
                cfg.overflow_noise += f.overflow_boost;
                if f.device_burst > 1 {
                    let burst = u64::from(f.device_burst);
                    if cfg.devices.irq_period > 0 {
                        cfg.devices.irq_period = (cfg.devices.irq_period / burst).max(1);
                    }
                    if cfg.devices.dma_period > 0 {
                        cfg.devices.dma_period = (cfg.devices.dma_period / burst).max(1);
                    }
                }
            }
        }
        let map = AddressMap::new(spec.n_procs);
        // `run_from` checked the start state's shape.
        let memory = match start {
            Some(st) => Memory::from_image(st.memory.clone()),
            None => Memory::new(map.total_words()),
        };
        let memsys = MemorySystem::new(&cfg.machine);
        let programs = spec.workload.programs(spec.n_procs, &map, spec.seed);
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(t, program)| {
                let mut vm = Vm::new(t as u32, &map);
                vm.set_pc(program.entry());
                if let Some(st) = start {
                    vm.restore(&st.vm_states[t]);
                }
                let done = start.map_or(0, |st| st.chunks_done[t]);
                CoreState {
                    vm,
                    program,
                    chunks: Vec::new(),
                    chunks_started: done,
                    committed: done,
                    occupancy: Occupancy::new(cfg.machine.l1.sets),
                    pending_irqs: std::collections::VecDeque::new(),
                    stall_since: None,
                    stall_cycles: 0,
                    done: false,
                    last_grant_time: 0,
                    had_grant: false,
                }
            })
            .collect();
        let devices = DeviceBank::new(spec.seed, cfg.devices, map.dma_base(), DMA_WORDS);
        let trng = SmallRng::seed_from_u64(cfg.timing_seed ^ 0x7141_e57a);
        let frng = SmallRng::seed_from_u64(cfg.faults.map_or(0, |f| f.seed) ^ 0xfa17_5eed);
        // Replay re-serializes the recorded total order, so it always
        // runs the global arbiter mechanics regardless of the topology
        // that produced the recording.
        let arbiter: Box<dyn ArbiterBackend> = match (cfg.replay, cfg.arbiter) {
            (false, ArbiterConfig::Sharded { shards }) => Box::new(ShardedArbiter::new(shards)),
            _ => Box::new(GlobalArbiter),
        };
        Self {
            budget: spec.budget,
            hooks,
            now: 0,
            attempt_ctr: 0,
            commit_token_ctr: 0,
            sched: Scheduler::new(),
            arbiter,
            grant_shard: None,
            cores,
            memory,
            memsys,
            params: TimingParams::chunk(),
            trng,
            frng,
            devices,
            pending: Vec::new(),
            committing: Vec::new(),
            arrival_ctr: 0,
            gcc: 0,
            dma_pending: None,
            last_grant_time_global: 0,
            squashes: 0,
            squashed_insts: 0,
            overflow_trunc: 0,
            collision_trunc: 0,
            uncached_trunc: 0,
            interrupts: 0,
            dma_commits: 0,
            replay_splits: 0,
            commit_insts: 0,
            chunk_commits: 0,
            traffic: 0,
            parallel: ParallelStats::default(),
            token: TokenStats::default(),
            cfg,
        }
    }

    /// Routes an event to the component that consumes it: executors
    /// `0..n`, then arbiter, interrupt controller, DMA, storm.
    fn component_of(&self, ev: Ev) -> ComponentId {
        let n = self.cores.len() as u32;
        ComponentId::new(match ev {
            Ev::Complete { core, .. } => core,
            Ev::Request { .. } | Ev::CommitDone { .. } | Ev::Poll => n,
            Ev::Irq { .. } => n + 1,
            Ev::Dma => n + 2,
            Ev::Storm => n + 3,
        })
    }

    fn schedule(&mut self, time: u64, ev: Ev) {
        let id = self.component_of(ev);
        self.sched.post(time, id, ev);
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.done)
    }

    fn run(mut self) -> Result<RunStats, EngineError> {
        let n = self.cores.len() as u32;
        let mut components = machine_components(n);
        for c in 0..n {
            self.try_start_chunk(c);
        }
        if !self.cfg.replay {
            for c in 0..n {
                if let Some(d) = self.devices.next_irq_delay() {
                    self.schedule(d, Ev::Irq { core: c });
                }
            }
            if let Some(d) = self.devices.next_dma_delay() {
                self.schedule(d, Ev::Dma);
            }
            if let Some(f) = self.cfg.faults {
                if f.storm_period > 0 {
                    self.schedule(f.storm_period, Ev::Storm);
                }
            }
        }
        self.poll_arbiter();
        while let Some(item) = self.sched.pop() {
            if self.all_done() {
                break;
            }
            self.now = item.tick;
            let (wake, rearm) = {
                let comp = &mut components[item.id.index()];
                let mut ctx = EngineCtx {
                    st: &mut self,
                    ev: item.payload,
                };
                let wake = comp.tick(&mut ctx);
                (wake, comp.rearm())
            };
            // Proactive components (DMA, storm) are re-armed by the
            // driver with their payload-free event; reactive ones
            // return NEVER and post follow-on work internally.
            if wake != NEVER {
                if let Some(ev) = rearm {
                    self.sched.post(wake, item.id, ev);
                }
            }
            self.poll_arbiter();
        }
        if !self.all_done() {
            return Err(EngineError::Starved {
                cycle: self.now,
                pending: (0..n).filter(|&c| !self.cores[c as usize].done).collect(),
            });
        }
        Ok(self.finish())
    }

    fn finish(mut self) -> RunStats {
        // Cache-miss fill traffic (includes squash re-execution
        // refills); L2 misses add a memory fill, as in the RC baseline.
        let (_, l1m, l2m) = self.memsys.stats();
        self.traffic += l1m * 40 + l2m * 40;
        let digest = StateDigest {
            mem_hash: self.memory.content_hash(),
            stream_hashes: self.cores.iter().map(|c| c.vm.stream_hash()).collect(),
            retired: self.cores.iter().map(|c| c.vm.retired()).collect(),
            committed_chunks: self.cores.iter().map(|c| c.committed).collect(),
        };
        let stats = RunStats {
            work_units: self.cores.iter().map(|c| c.vm.reg(14)).sum(),
            cycles: self.now,
            total_commits: self.gcc,
            squashes: self.squashes,
            squashed_insts: self.squashed_insts,
            overflow_truncations: self.overflow_trunc,
            collision_truncations: self.collision_trunc,
            uncached_truncations: self.uncached_trunc,
            interrupts: self.interrupts,
            dma_commits: self.dma_commits,
            stall_cycles: self.cores.iter().map(|c| c.stall_cycles).collect(),
            traffic_bytes: self.traffic,
            avg_chunk_size: if self.chunk_commits == 0 {
                0.0
            } else {
                self.commit_insts as f64 / self.chunk_commits as f64
            },
            parallel: self.parallel,
            token: if self.cfg.collect_token_stats {
                Some(self.token)
            } else {
                None
            },
            digest,
        };
        self.hooks.on_run_end(&stats);
        stats
    }

    // ----- event handlers -------------------------------------------------

    pub(crate) fn handle_complete(&mut self, core: u32, attempt: u64) {
        let c = &mut self.cores[core as usize];
        let Some(chunk) = c.chunks.iter_mut().find(|ch| ch.incarnation == attempt) else {
            return; // stale: chunk was squashed
        };
        if chunk.state != ChunkState::Executing {
            return;
        }
        chunk.state = ChunkState::Completed;
        let mut delay = self.cfg.arbitration_latency / 2;
        if let Some(p) = self.cfg.perturb {
            if self.trng.gen_bool(p.commit_delay_frac) {
                delay += self.trng.gen_range(p.delay_min..=p.delay_max);
            }
        }
        self.schedule(self.now + delay, Ev::Request { core, attempt });
        self.try_start_chunk(core);
    }

    pub(crate) fn handle_request(&mut self, core: u32, attempt: u64) {
        let c = &self.cores[core as usize];
        let Some(chunk) = c.chunks.iter().find(|ch| ch.incarnation == attempt) else {
            return; // stale
        };
        if chunk.state != ChunkState::Completed {
            return;
        }
        self.arrival_ctr += 1;
        self.pending.push(PendingReq {
            committer: Committer::Proc(core),
            attempt,
            arrival: self.arrival_ctr,
        });
    }

    pub(crate) fn handle_commit_done(&mut self, token: u64) {
        let Some(pos) = self.committing.iter().position(|a| a.token == token) else {
            return;
        };
        let done = self.committing.remove(pos);
        if let Committer::Proc(p) = done.committer {
            let c = &mut self.cores[p as usize];
            assert!(
                !c.chunks.is_empty() && c.chunks[0].state == ChunkState::Committing,
                "commit-done for a core whose oldest chunk is not committing"
            );
            c.chunks.remove(0);
            if c.chunks.is_empty() && (c.vm.retired() >= self.budget || c.vm.halted()) {
                c.done = true;
            }
            self.try_start_chunk(p);
        }
    }

    pub(crate) fn handle_irq(&mut self, core: u32) {
        if self.cores[core as usize].done {
            return;
        }
        let (vector, payload) = self.devices.irq_content();
        self.cores[core as usize]
            .pending_irqs
            .push_back((vector, payload));
        self.hooks
            .on_event(self.now, &SubstrateEvent::Interrupt { core, vector });
        // Early delivery: squash a recently-started chunk so the handler
        // runs promptly (Section 4.2.1); otherwise it waits for the next
        // chunk boundary.
        let c = &self.cores[core as usize];
        let squash_pos = c.chunks.iter().position(|ch| {
            ch.state == ChunkState::Executing
                && ch.irq.is_none()
                && self.now.saturating_sub(ch.start_time) <= self.cfg.irq_squash_window
                && !ch.checkpoint.in_handler()
        });
        if let Some(pos) = squash_pos {
            self.squash_from(core, pos);
        }
        if let Some(d) = self.devices.next_irq_delay() {
            self.schedule(self.now + d, Ev::Irq { core });
        }
    }

    /// Ticks the DMA device; returns its next firing cycle ([`NEVER`]
    /// once the run has drained or the device bank stops).
    pub(crate) fn handle_dma(&mut self) -> u64 {
        if self.all_done() {
            return NEVER;
        }
        if self.dma_pending.is_none() {
            let data = self.devices.dma_transfer();
            self.hooks.on_event(
                self.now,
                &SubstrateEvent::Dma {
                    words: data.len() as u32,
                },
            );
            self.dma_pending = Some(data);
            self.arrival_ctr += 1;
            self.pending.push(PendingReq {
                committer: Committer::Dma,
                attempt: 0,
                arrival: self.arrival_ctr,
            });
        }
        match self.devices.next_dma_delay() {
            Some(d) => self.now + d,
            None => NEVER,
        }
    }

    /// Injected squash storm: every `storm_period` cycles each core's
    /// oldest not-yet-committing chunk is squashed, re-exercising the
    /// squash/re-execute path under load. Determinism is preserved
    /// because squashed work is simply re-executed — only the commit
    /// order (which the log records) can shift.
    pub(crate) fn handle_storm(&mut self) -> u64 {
        let Some(f) = self.cfg.faults else {
            return NEVER;
        };
        if f.storm_period == 0 || self.cfg.replay {
            return NEVER;
        }
        let n = self.cores.len() as u32;
        for q in 0..n {
            let pos = self.cores[q as usize]
                .chunks
                .iter()
                .position(|ch| ch.state != ChunkState::Committing);
            if let Some(pos) = pos {
                self.squash_from(q, pos);
            }
        }
        if self.all_done() {
            NEVER
        } else {
            self.now + f.storm_period
        }
    }

    // ----- arbiter --------------------------------------------------------

    /// Drops requests whose chunk was squashed since they were sent.
    fn cleanup_stale_requests(&mut self) {
        let cores = &self.cores;
        self.pending.retain(|r| match r.committer {
            Committer::Proc(p) => cores[p as usize]
                .chunks
                .iter()
                .any(|ch| ch.incarnation == r.attempt && ch.state == ChunkState::Completed),
            Committer::Dma => true,
        });
    }

    /// Requests eligible for a grant: the core's *oldest* chunk, with no
    /// same-core commit still propagating (per-core commits are in
    /// program order).
    fn eligible_views(&self) -> Vec<PendingView> {
        self.pending
            .iter()
            .filter(|r| match r.committer {
                Committer::Proc(p) => {
                    let c = &self.cores[p as usize];
                    c.chunks.first().is_some_and(|ch| {
                        ch.incarnation == r.attempt && ch.state == ChunkState::Completed
                    })
                }
                Committer::Dma => self.dma_pending.is_some(),
            })
            .map(|r| PendingView {
                committer: r.committer,
                arrival: r.arrival,
            })
            .collect()
    }

    fn poll_arbiter(&mut self) {
        loop {
            if self.committing.len() >= self.cfg.max_parallel_commits as usize {
                return;
            }
            // Token-passing pacing: consecutive grants are separated by
            // the configured gap.
            if self.cfg.grant_gap > 0 && self.gcc > 0 {
                let next_ok = self.last_grant_time_global + self.cfg.grant_gap;
                if self.now < next_ok {
                    self.schedule(next_ok, Ev::Poll);
                    return;
                }
            }
            self.cleanup_stale_requests();
            let eligible = self.eligible_views();
            let committers: Vec<Committer> = self.committing.iter().map(|a| a.committer).collect();
            let finished: Vec<bool> = self.cores.iter().map(|c| c.done).collect();
            let ctx = ArbiterContext {
                pending: &eligible,
                n_procs: self.cores.len() as u32,
                committing: &committers,
                total_commits: self.gcc,
                finished: &finished,
            };
            // The backend decides which requests the mode's policy
            // sees (all of them for the global arbiter, one shard's
            // worth for the sharded one) and stamps the grant's
            // provenance.
            let Some(grant) = self.arbiter.next_grant(&mut *self.hooks, &ctx) else {
                return;
            };
            self.grant_shard = grant.shard;
            match grant.committer {
                Committer::Dma => {
                    let (data, device_generated) = match self.dma_pending.take() {
                        Some(d) => (d, true),
                        None => {
                            assert!(
                                self.cfg.replay,
                                "policy granted DMA with no pending transfer outside replay"
                            );
                            (self.hooks.dma_data(), false)
                        }
                    };
                    let mut lines: Vec<u64> = data.iter().map(|(a, _)| line_of(*a)).collect();
                    lines.sort_unstable();
                    lines.dedup();
                    if self
                        .committing
                        .iter()
                        .any(|a| intersects_sorted(&a.lines, &lines))
                    {
                        // Must wait for the conflicting commit to finish
                        // (a replay injection is retried on the next poll).
                        self.dma_pending = Some(data);
                        return;
                    }
                    if device_generated {
                        self.pending.retain(|r| r.committer != Committer::Dma);
                    }
                    self.grant_dma(data, lines);
                }
                Committer::Proc(p) => {
                    assert!(
                        ctx.has_pending(grant.committer),
                        "policy granted processor {p} with no eligible request"
                    );
                    let footprint = self.cores[p as usize].chunks[0].footprint();
                    if self
                        .committing
                        .iter()
                        .any(|a| intersects_sorted(&a.lines, &footprint.0))
                    {
                        return; // wait for disjointness
                    }
                    self.grant_proc(p, footprint);
                }
            }
        }
    }

    /// Grants processor `p`'s oldest chunk, whose sorted footprint
    /// (all lines accessed, lines written) is `(access_lines,
    /// write_lines)`.
    fn grant_proc(&mut self, p: u32, (access_lines, write_lines): (Vec<u64>, Vec<u64>)) {
        // Sample Table-6 parallel stats before mutating state.
        let ready_procs = self
            .cores
            .iter()
            .filter(|c| {
                c.chunks
                    .first()
                    .is_some_and(|ch| ch.state == ChunkState::Completed)
            })
            .count() as u64;
        self.parallel.samples += 1;
        self.parallel.ready_procs_sum += ready_procs;
        self.parallel.committing_sum += self.committing.len() as u64 + 1;

        let core = &mut self.cores[p as usize];
        let chunk = &mut core.chunks[0];
        assert_eq!(chunk.state, ChunkState::Completed);
        let attempt = chunk.incarnation;
        self.pending
            .retain(|r| !(r.committer == Committer::Proc(p) && r.attempt == attempt));
        chunk.state = ChunkState::Committing;
        for (&addr, &val) in &chunk.buffer {
            use delorean_isa::DataMemory;
            self.memory.store(addr, val);
        }
        let memsys = &self.memsys;
        core.occupancy
            .remove_chunk(chunk.wlines.iter(), |l| memsys.l1_set_of(l));
        core.committed += 1;
        self.gcc += 1;
        self.chunk_commits += 1;
        self.commit_insts += u64::from(chunk.size);
        match chunk.reason {
            TruncationReason::Overflow => self.overflow_trunc += 1,
            TruncationReason::Collision => self.collision_trunc += 1,
            TruncationReason::Uncached => self.uncached_trunc += 1,
            _ => {}
        }
        if chunk.irq.is_some() {
            self.interrupts += 1;
        }
        let mut commit_latency = self.cfg.arbitration_latency;
        if chunk.replay_split {
            self.replay_splits += 1;
            // The chunk commits in two back-to-back pieces.
            commit_latency += self.cfg.arbitration_latency;
            self.traffic += 264;
        }
        // Commit-specific traffic: the 2-Kbit signature plus the grant.
        // Dirty-line write-back traffic is symmetric with what an RC
        // machine pays and is accounted via the cache-miss fills.
        self.traffic += 256 + 8;

        if self.cfg.collect_token_stats {
            let token_arrival = self.last_grant_time_global;
            if chunk.complete_time <= token_arrival {
                self.token.ready_grants += 1;
                self.token.wait_token_cycles += token_arrival - chunk.complete_time;
            } else {
                self.token.not_ready_grants += 1;
                self.token.wait_complete_cycles += chunk.complete_time - token_arrival;
            }
            if core.had_grant {
                self.token.roundtrip_cycles += self.now - core.last_grant_time;
                self.token.roundtrips += 1;
            }
            core.last_grant_time = self.now;
            core.had_grant = true;
        }
        self.last_grant_time_global = self.now;

        let rec = CommitRecord {
            committer: Committer::Proc(p),
            chunk_index: chunk.index,
            size: chunk.size,
            truncation: chunk.reason,
            global_slot: self.gcc,
            interrupt: chunk.irq,
            io_values: chunk.io_values.clone(),
            dma_data: Vec::new(),
            access_lines,
            write_lines,
            shard: self.grant_shard.take(),
        };
        self.hooks.on_commit(&rec);
        self.hooks
            .on_event(self.now, &SubstrateEvent::commit_of(&rec));
        self.commit_token_ctr += 1;
        let token = self.commit_token_ctr;
        self.committing.push(ActiveCommit {
            committer: Committer::Proc(p),
            token,
            lines: rec.access_lines,
        });
        self.schedule(self.now + commit_latency, Ev::CommitDone { token });
        let n = self.cores.len() as u32;
        for q in 0..n {
            if q != p {
                self.conflict_squash(q, |ch| ch.conflicts_with(&rec.write_lines));
            }
        }
    }

    /// Grants a DMA transfer of `data`, whose sorted, deduplicated lines
    /// are `lines`.
    fn grant_dma(&mut self, data: Vec<(Addr, Word)>, lines: Vec<u64>) {
        self.gcc += 1;
        self.dma_commits += 1;
        self.traffic += 8 * data.len() as u64 + 64;
        {
            use delorean_isa::DataMemory;
            for &(addr, val) in &data {
                self.memory.store(addr, val);
            }
        }
        let rec = CommitRecord {
            committer: Committer::Dma,
            chunk_index: 0,
            size: 0,
            truncation: TruncationReason::StandardSize,
            global_slot: self.gcc,
            interrupt: None,
            io_values: Vec::new(),
            access_lines: lines.clone(),
            write_lines: lines,
            dma_data: data,
            shard: self.grant_shard.take(),
        };
        self.hooks.on_commit(&rec);
        self.hooks
            .on_event(self.now, &SubstrateEvent::commit_of(&rec));
        self.commit_token_ctr += 1;
        let token = self.commit_token_ctr;
        self.committing.push(ActiveCommit {
            committer: Committer::Dma,
            token,
            lines: rec.access_lines,
        });
        self.schedule(
            self.now + self.cfg.arbitration_latency,
            Ev::CommitDone { token },
        );
        // A replayed transfer's lines come from the log: meet them with
        // each chunk's sorted footprint instead of hashing them.
        let n = self.cores.len() as u32;
        for q in 0..n {
            self.conflict_squash(q, |ch| {
                intersects_sorted(&ch.footprint().0, &rec.write_lines)
            });
        }
    }

    // ----- squash and re-execution ----------------------------------------

    /// Squashes core `q` from its oldest uncommitted chunk that
    /// `conflicts` with the commit just granted.
    fn conflict_squash(&mut self, q: u32, conflicts: impl Fn(&Chunk) -> bool) {
        let pos = self.cores[q as usize]
            .chunks
            .iter()
            .position(|ch| ch.state != ChunkState::Committing && conflicts(ch));
        if let Some(pos) = pos {
            self.squash_from(q, pos);
        }
    }

    /// Squashes chunks `pos..` on core `q` and re-executes them in
    /// place with staggered completion times.
    fn squash_from(&mut self, q: u32, pos: usize) {
        let budget = self.budget;
        let now = self.now;
        let mut scheduled: Vec<(u64, u64)> = Vec::new();
        {
            let Self {
                cores,
                memory,
                memsys,
                params,
                trng,
                hooks,
                devices,
                cfg,
                attempt_ctr,
                squashes,
                squashed_insts,
                ..
            } = &mut *self;
            let core = &mut cores[q as usize];
            let CoreState {
                vm,
                program,
                chunks,
                chunks_started,
                occupancy,
                pending_irqs,
                ..
            } = core;
            let mut squashed_here = 0u32;
            let mut insts_here = 0u64;
            for (k, ch) in chunks[pos..].iter_mut().enumerate() {
                *squashes += 1;
                *squashed_insts += u64::from(ch.size);
                squashed_here += 1;
                insts_here += u64::from(ch.size);
                occupancy.remove_chunk(ch.wlines.iter(), |l| memsys.l1_set_of(l));
                // Only the directly-conflicting chunk counts toward
                // repeated-collision shrinking; younger chunks are
                // re-execution fallout.
                if k == 0 {
                    ch.squashes += 1;
                }
            }
            hooks.on_event(
                now,
                &SubstrateEvent::Squash {
                    core: q,
                    chunks: squashed_here,
                    insts: insts_here,
                },
            );
            // Repeated-collision shrinking (recording only, never in
            // PicoLog whose predefined order rules collisions out).
            if cfg.collision_shrink {
                let ch = &mut chunks[pos];
                if ch.squashes >= cfg.collision_retry && ch.target > 32 {
                    ch.target = (ch.target / 2).max(32);
                    ch.shrunk = true;
                }
            }
            vm.restore(&chunks[pos].checkpoint);
            let mut t = now;
            let mut deferred_irqs = Vec::new();
            for i in pos..chunks.len() {
                let (older, rest) = chunks.split_at_mut(i);
                let chunk = &mut rest[0];
                *attempt_ctr += 1;
                chunk.reset_for_retry(*attempt_ctr);
                chunk.checkpoint = vm.snapshot();
                // Shrinking an earlier chunk shifts every younger
                // boundary, so a boundary that held an interrupt in the
                // previous attempt may now sit inside a handler; the
                // platform queues interrupts while a handler runs, so
                // detach it and requeue rather than deliver nested.
                if !cfg.replay && vm.in_handler() {
                    if let Some(irq) = chunk.irq.take() {
                        deferred_irqs.push(irq);
                    }
                }
                // A queued interrupt may attach at this (re-)started
                // chunk boundary during recording.
                if !cfg.replay && chunk.irq.is_none() && !vm.in_handler() {
                    if let Some(irq) = pending_irqs.pop_front() {
                        chunk.irq = Some(irq);
                    }
                }
                execute_attempt(
                    t, q, vm, program, chunk, older, occupancy, memory, memsys, params, trng,
                    *hooks, devices, cfg, budget,
                );
                t = chunk.complete_time;
                scheduled.push((chunk.complete_time, chunk.incarnation));
            }
            // A re-execution that reaches the budget earlier than the
            // original attempt leaves trailing *empty* chunks; they have
            // nothing to commit (and a replay would never create them),
            // so drop them and return any attached interrupts.
            while let Some(ch) =
                chunks.pop_if(|ch| ch.size == 0 && ch.reason == TruncationReason::BudgetEnd)
            {
                *chunks_started -= 1;
                scheduled.retain(|&(_, a)| a != ch.incarnation);
                if let Some(irq) = ch.irq {
                    pending_irqs.push_front(irq);
                }
            }
            // Interrupts detached above are older than anything still
            // queued; restore them to the front in their original order.
            for irq in deferred_irqs.into_iter().rev() {
                pending_irqs.push_front(irq);
            }
        }
        for (time, attempt) in scheduled {
            self.schedule(time, Ev::Complete { core: q, attempt });
        }
    }

    // ----- chunk creation ---------------------------------------------------

    fn try_start_chunk(&mut self, p: u32) {
        let budget = self.budget;
        let now = self.now;
        let scheduled: Option<(u64, u64)> = 'blk: {
            let Self {
                cores,
                memory,
                memsys,
                params,
                trng,
                frng,
                hooks,
                devices,
                cfg,
                attempt_ctr,
                ..
            } = &mut *self;
            let core = &mut cores[p as usize];
            if core.done {
                break 'blk None;
            }
            if core.chunks.iter().any(|c| c.state == ChunkState::Executing) {
                break 'blk None;
            }
            let CoreState {
                vm,
                program,
                chunks,
                chunks_started,
                occupancy,
                pending_irqs,
                stall_since,
                stall_cycles,
                done,
                ..
            } = core;
            if vm.retired() >= budget || vm.halted() {
                if chunks.is_empty() {
                    *done = true;
                }
                break 'blk None;
            }
            if chunks.len() >= cfg.machine.simultaneous_chunks as usize {
                if stall_since.is_none() {
                    *stall_since = Some(now);
                }
                break 'blk None;
            }
            if let Some(s) = stall_since.take() {
                *stall_cycles += now - s;
            }
            // Uncached accesses execute non-speculatively between chunks:
            // wait for older chunks to drain (Section 4.2.2).
            let next_uncached = vm.peek(program).is_some_and(|i| i.is_uncached());
            if next_uncached && !chunks.is_empty() {
                break 'blk None;
            }
            *chunks_started += 1;
            let index = *chunks_started;
            let mut chunk = Chunk::new(index, cfg.chunk_size, vm.snapshot());
            if cfg.replay {
                chunk.irq = hooks.pending_interrupt(p, index);
                if let Some(size) = hooks.forced_chunk_size(p, index) {
                    chunk.target = size;
                }
            } else {
                if !vm.in_handler() {
                    if let Some(irq) = pending_irqs.pop_front() {
                        chunk.irq = Some(irq);
                    }
                }
                if cfg.variable_truncate_prob > 0.0 && trng.gen_bool(cfg.variable_truncate_prob) {
                    chunk.target = trng.gen_range(1..=cfg.chunk_size);
                }
                // Injected fault: a forced *non-deterministic* truncation.
                // Marking the chunk shrunk makes the truncation register
                // as a collision, which the OrderOnly/PicoLog CS log must
                // record for replay to reproduce the chunking.
                if let Some(f) = cfg.faults {
                    if f.force_truncate_prob > 0.0 && frng.gen_bool(f.force_truncate_prob) {
                        chunk.target = frng.gen_range(1..=cfg.chunk_size);
                        chunk.shrunk = true;
                    }
                }
            }
            *attempt_ctr += 1;
            chunk.incarnation = *attempt_ctr;
            hooks.on_event(
                now,
                &SubstrateEvent::ChunkStart {
                    core: p,
                    index,
                    target: chunk.target,
                },
            );
            execute_attempt(
                now,
                p,
                vm,
                program,
                &mut chunk,
                &chunks[..],
                occupancy,
                memory,
                memsys,
                params,
                trng,
                *hooks,
                devices,
                cfg,
                budget,
            );
            let key = (chunk.complete_time, chunk.incarnation);
            chunks.push(chunk);
            Some(key)
        };
        if let Some((time, attempt)) = scheduled {
            self.schedule(time, Ev::Complete { core: p, attempt });
        }
    }
}

/// Adapter feeding the VM's uncached I/O through devices and hooks.
struct IoAdapter<'a> {
    hooks: &'a mut dyn ExecutionHooks,
    devices: &'a mut DeviceBank,
    core: u32,
    index: u64,
    now: u64,
    recording: bool,
    seq: u32,
    values: &'a mut Vec<(u16, Word)>,
}

impl IoBus for IoAdapter<'_> {
    fn io_load(&mut self, port: u16) -> Word {
        let dev = if self.recording {
            self.devices.io_load(port, self.now)
        } else {
            0
        };
        let v = self
            .hooks
            .io_load(self.core, self.index, self.seq, port, dev);
        self.seq += 1;
        self.values.push((port, v));
        v
    }

    fn io_store(&mut self, _port: u16, _value: Word) {
        // Device absorbs the store; value is register-derived and
        // therefore deterministic, so nothing is logged.
    }
}

/// Line a store-capable instruction would dirty, computed *before*
/// execution for the overflow pre-check.
fn store_line(inst: &Inst, vm: &Vm) -> Option<u64> {
    match *inst {
        Inst::Store { base, offset, .. } | Inst::Cas { base, offset, .. } => {
            Some(line_of(effective_addr(vm.reg(base.index()), offset)))
        }
        _ => None,
    }
}

/// Functionally executes one chunk attempt and computes its duration.
#[allow(clippy::too_many_arguments)]
fn execute_attempt(
    now: u64,
    core_id: u32,
    vm: &mut Vm,
    program: &Program,
    chunk: &mut Chunk,
    older: &[Chunk],
    occupancy: &mut Occupancy,
    memory: &Memory,
    memsys: &mut MemorySystem,
    params: &TimingParams,
    trng: &mut SmallRng,
    hooks: &mut dyn ExecutionHooks,
    devices: &mut DeviceBank,
    cfg: &EngineConfig,
    budget: u64,
) {
    chunk.start_time = now;
    // A re-execution can reach the budget before its younger siblings
    // re-run, leaving them empty; such chunks are dropped and their
    // interrupt requeued, so delivering it here would fold an
    // interrupt into the instruction stream that no committed chunk
    // (and no log entry) accounts for. A forged log can also place an
    // interrupt inside the handler, where the platform cannot deliver
    // it; the attempt then runs without it and the replay's digest
    // reports the divergence.
    let exhausted = vm.retired() >= budget || vm.halted();
    if !exhausted && !vm.in_handler() {
        if let Some((_vector, payload)) = chunk.irq {
            vm.deliver_interrupt(program, payload);
        }
    }
    let mut cost = 0.0f64;
    let mut io_seq = 0u32;
    chunk.reason = TruncationReason::StandardSize;
    loop {
        if chunk.size >= chunk.target {
            chunk.reason = if chunk.shrunk {
                TruncationReason::Collision
            } else {
                TruncationReason::StandardSize
            };
            break;
        }
        if vm.retired() >= budget || vm.halted() {
            chunk.reason = TruncationReason::BudgetEnd;
            break;
        }
        let Some(&inst) = vm.peek(program) else {
            chunk.reason = TruncationReason::BudgetEnd;
            break;
        };
        if inst.is_uncached() && chunk.size > 0 {
            chunk.reason = TruncationReason::Uncached;
            break;
        }
        // Overflow pre-check: would this store push an L1 set past its
        // associativity, counting every in-flight chunk's dirty lines
        // plus wrong-path noise?
        let mut occ_line = None;
        if let Some(line) = store_line(&inst, vm) {
            if !chunk.wlines.contains(&line) {
                occ_line = Some(line);
                if chunk.size > 0 {
                    let newly = !occupancy.contains(line);
                    let set = memsys.l1_set_of(line);
                    let full = newly && occupancy.set_count(set) >= memsys.l1_ways();
                    let noise = cfg.overflow_noise > 0.0 && trng.gen_bool(cfg.overflow_noise);
                    if full || noise {
                        if cfg.replay {
                            // Unexpected overflow during replay: the
                            // chunk commits in two pieces instead
                            // (Section 4.2.3); execution continues to
                            // the forced boundary.
                            chunk.replay_split = true;
                        } else {
                            chunk.reason = TruncationReason::Overflow;
                            break;
                        }
                    }
                }
            }
        }
        let info = {
            let mut view = SpecView {
                committed: memory,
                older,
                buffer: &mut chunk.buffer,
                wlines: &mut chunk.wlines,
                rlines: &mut chunk.rlines,
            };
            let mut io = IoAdapter {
                hooks,
                devices,
                core: core_id,
                index: chunk.index,
                now,
                recording: !cfg.replay,
                seq: io_seq,
                values: &mut chunk.io_values,
            };
            let info = vm.step(program, &mut view, &mut io);
            io_seq = io.seq;
            info
        };
        chunk.size += 1;
        cost += params.inst_cost(info.is_branch);
        let uncached = info.kind == StepKind::Uncached;
        if uncached {
            cost += params.uncached;
        }
        for op in info.mem_ops.into_iter().flatten() {
            let mut class = memsys.access(core_id, line_of(op.addr));
            if let Some(p) = cfg.perturb {
                if p.cache_flip_frac > 0.0 && trng.gen_bool(p.cache_flip_frac) {
                    class = match class {
                        AccessClass::L1 => AccessClass::Mem,
                        AccessClass::L2 => AccessClass::L2,
                        AccessClass::Mem => AccessClass::L1,
                    };
                }
            }
            cost += params.mem_cost(class, op.write);
        }
        if let Some(line) = occ_line {
            if chunk.wlines.contains(&line) {
                occupancy.add(line, memsys.l1_set_of(line));
            }
        }
        if uncached {
            // A chunk whose first instruction is uncached executes it
            // solo and ends (deterministic truncation).
            chunk.reason = TruncationReason::Uncached;
            break;
        }
    }
    let dur = cost.ceil().max(1.0) as u64;
    chunk.complete_time = now + dur;
    chunk.state = ChunkState::Executing;
}

//! Streaming record/replay: log sinks and log sources.
//!
//! A recording is one ordered stream: a [`StreamMeta`] header, one
//! [`LogEvent`] per commit in global commit order, and a
//! [`StreamTrailer`]. Each event is the record DeLorean's arbiter and
//! processors emit for one chunk commit: its PI entry, plus the CS and
//! input-log entries keyed by its chunk index. Both directions carry
//! that stream and nothing else:
//!
//! * Recording-side, the chunk engine's commit events flow through a
//!   [`LogSink`]. [`MemorySink`] collects them unchanged into a
//!   [`Recording`]; [`FileSink`] frames them into the versioned `.dlrn`
//!   format *incrementally*, compressing and flushing a segment every N
//!   commits so peak buffering is O(segment), not O(run).
//! * Replay-side, the replayer and the software inspector consume a
//!   [`LogSource`]. [`FileSource`] decodes `.dlrn` segments from any
//!   [`std::io::Read`] as the replay reaches them, so replaying never
//!   loads the whole file; [`RecoveringSource`](crate::RecoveringSource)
//!   answers from events already in memory, a [`Recording`]'s or a
//!   salvaged region's. Both answer from one queue of the log entries a
//!   replay has not consumed yet.
//!
//! Both directions keep the codec work beside the caller, as
//! DeLorean's compressors sit beside the log buffers: [`FileSink`]
//! compresses and checksums segments on one worker thread, and the one
//! `.dlrn` decoder (under [`FileSource`], [`SegmentWalker`] and
//! [`serialize::from_bytes`](crate::serialize::from_bytes)) reads each
//! frame on the caller's thread and verifies, decompresses and parses
//! its body on another, at most two segments ahead of the one the
//! caller consumes. Errors, positions, segment marks and checksum
//! counts settle when a segment is consumed, exactly as if it had been
//! decoded in place.
//!
//! The wire format (version 2) is:
//!
//! ```text
//! header  := MAGIC u32 | VERSION u16 | fnv(meta_len ‖ meta) u64
//!          | meta_len u64 | meta bytes
//! segment := kind u8 | body_len u64 | fnv(kind ‖ body_len ‖ body) u64 | body
//! ```
//!
//! Event segments carry a commit watermark plus one LZ77 block of
//! encoded commit events. The sink compresses every segment's block
//! alone, with no match history from earlier segments, so each segment
//! is independently decompressible — the property the salvage pass in
//! [`recover`](crate::recover) relies on to resume decoding after a
//! corrupt region. The final segment is a trailer holding the
//! determinism digest and run statistics. Every byte after the 14-byte
//! frame header is covered by a checksum.

use crate::machine::Recording;
use crate::mode::Mode;
use crate::serialize::DecodeError;
use crate::wire::{
    frame, frame_checksum, mode_from, mode_tag, segment_checksum, Reader, Writer, FILE_HEAD, MAGIC,
    SEGMENT_HEAD, SEG_EVENTS, SEG_TRAILER, VERSION,
};
use delorean_chunk::{
    policy, ArbiterConfig, ArbiterContext, CommitRecord, Committer, DeviceConfig, ExecutionHooks,
    ParallelStats, RunStats, StartState, StateDigest,
};
use delorean_isa::layout::AddressMap;
use delorean_isa::workload::{self, WorkloadSpec};
use delorean_isa::{Addr, Word};
use delorean_mem::{Block, MemoryImage};
use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Default number of commit events buffered before [`FileSink`] flushes
/// a compressed segment.
pub const DEFAULT_FLUSH_EVERY: usize = 64;

/// Where in a `.dlrn` stream the decoder currently is — attached to
/// streaming errors so corruption reports carry a position instead of
/// just a field name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamPosition {
    /// Bytes consumed from the underlying reader.
    pub byte_offset: u64,
    /// Event segments fully decoded so far (0-based index of the
    /// segment being decoded when attached to an error).
    pub segment: u64,
    /// Global commits decoded so far.
    pub commit: u64,
}

impl core::fmt::Display for StreamPosition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "segment {}, commit {}, byte offset {}",
            self.segment, self.commit, self.byte_offset
        )
    }
}

/// A [`DecodeError`] plus the stream position it was detected at.
#[derive(Debug, Clone)]
pub struct PositionedDecodeError {
    /// The underlying decode failure.
    pub error: DecodeError,
    /// Where in the stream it was detected.
    pub position: StreamPosition,
}

impl core::fmt::Display for PositionedDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} (at {})", self.error, self.position)
    }
}

impl std::error::Error for PositionedDecodeError {}

/// Why recovering the writer from a [`FileSink`] failed.
#[derive(Debug)]
pub enum SinkError {
    /// The sink was consumed without [`LogSink::finish`]: the stream
    /// carries no trailer and would decode as truncated. Buffered
    /// events are still flushed to the writer (by the sink's `Drop`);
    /// use [`FileSink::abandon`] to recover the writer of an
    /// intentionally unfinished stream.
    UnfinishedSink,
    /// The first I/O error latched while streaming.
    Io(io::Error),
}

impl core::fmt::Display for SinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnfinishedSink => {
                write!(
                    f,
                    "log sink consumed without finish(): stream has no trailer"
                )
            }
            Self::Io(e) => write!(f, "log sink I/O error: {e}"),
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::UnfinishedSink => None,
            Self::Io(e) => Some(e),
        }
    }
}

const TAG_DMA: u8 = 1 << 0;
const TAG_CS: u8 = 1 << 1;
const TAG_IRQ: u8 = 1 << 2;
const TAG_IO: u8 = 1 << 3;
/// The event carries the granting shard's index (sharded-arbiter
/// recordings only; global-arbiter streams never set this bit, keeping
/// their byte encoding identical to pre-topology writers).
const TAG_SHARD: u8 = 1 << 4;

/// Header tag introducing a sharded arbiter-topology block. The global
/// topology writes no block at all, so legacy streams decode unchanged.
const TOPOLOGY_SHARDED: u8 = 1;

// ---------------------------------------------------------------------------
// Stream data types
// ---------------------------------------------------------------------------

/// Everything a consumer must know before the first commit event: the
/// machine shape, the workload identity and the starting state.
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Execution mode of the stream.
    pub mode: Mode,
    /// Processors.
    pub n_procs: u32,
    /// Standard (or maximum) chunk size.
    pub chunk_size: u32,
    /// Per-processor retired-instruction budget.
    pub budget: u64,
    /// The recorded application.
    pub workload: WorkloadSpec,
    /// Program-generation seed.
    pub app_seed: u64,
    /// Device activity during the recording.
    pub devices: DeviceConfig,
    /// Content hash of the initial memory image.
    pub initial_mem_hash: u64,
    /// Mid-execution start state for interval recordings.
    pub interval: Option<StartState>,
    /// Commit-arbitration topology the stream was recorded under.
    pub arbiter: ArbiterConfig,
}

impl StreamMeta {
    /// Per-processor chunks committed before the stream's first event,
    /// one counter per processor. A start state of another shape is
    /// rejected before the first commit ([`StartState::fits`]); sizing
    /// the counters by `n_procs` keeps everything built before that
    /// check in bounds.
    pub(crate) fn start_chunks(&self) -> Vec<u64> {
        let mut chunks = self
            .interval
            .as_ref()
            .map_or_else(Vec::new, |s| s.chunks_done.clone());
        chunks.resize(self.n_procs as usize, 0);
        chunks
    }
}

/// Metadata of a 1000-instruction-chunk `lu` stream, for unit tests.
#[cfg(test)]
#[allow(clippy::expect_used)]
pub(crate) fn test_meta(mode: Mode, n_procs: u32) -> StreamMeta {
    StreamMeta {
        mode,
        n_procs,
        chunk_size: 1000,
        budget: 4_000,
        workload: *workload::by_name("lu").expect("catalog workload"),
        app_seed: 5,
        devices: DeviceConfig::none(),
        initial_mem_hash: 0,
        interval: None,
        arbiter: ArbiterConfig::Global,
    }
}

/// The stream's closing record: the run statistics (including the
/// determinism digest the replay is checked against).
#[derive(Debug, Clone)]
pub struct StreamTrailer {
    /// Statistics of the recorded execution.
    pub stats: RunStats,
}

/// One commit, as it appears on the log stream.
///
/// `chunk_index` is *derived* state (per-processor commit counters), so
/// it is never wire-encoded; decoders regenerate it. Footprints are
/// present only in PI-logging modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Who committed.
    pub committer: Committer,
    /// Per-processor logical chunk index (1-based; 0 for DMA).
    pub chunk_index: u64,
    /// Chunk size, when the CS log must reproduce it at replay.
    pub cs_size: Option<u32>,
    /// Interrupt delivered at the chunk's start, if any.
    pub interrupt: Option<(u16, Word)>,
    /// Logged uncached I/O load values, in execution order.
    pub io_values: Vec<(u16, Word)>,
    /// DMA payload (DMA commits only).
    pub dma_data: Vec<(Addr, Word)>,
    /// Accessed cache lines (PI modes only), sorted.
    pub access_lines: Vec<u64>,
    /// Written cache lines (PI modes only), sorted.
    pub write_lines: Vec<u64>,
    /// Index of the arbiter shard that granted the commit (`None` under
    /// the global arbiter and in replayed streams).
    pub shard: Option<u32>,
}

// ---------------------------------------------------------------------------
// LogSink: the recording direction
// ---------------------------------------------------------------------------

/// Consumes a recording as an ordered stream: metadata, then one
/// [`LogEvent`] per commit, then the trailer.
pub trait LogSink {
    /// Receives the stream metadata before any event.
    fn begin(&mut self, meta: &StreamMeta);
    /// Receives one commit event.
    fn on_event(&mut self, event: &LogEvent);
    /// Receives the trailer after the last event.
    fn finish(&mut self, trailer: &StreamTrailer);
    /// `(segments, bytes)` flushed to the backing store so far. Sinks
    /// with no segmented backing store (e.g. [`MemorySink`]) report
    /// `(0, 0)`. The counters are exact when read: a sink that writes
    /// in the background first writes out what it holds, which is why
    /// this takes `&mut self`. The `Session` pipeline polls this after
    /// each commit, when it has stages, to synthesize `SegmentFlush`
    /// substrate events for them.
    fn flush_stats(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// Mode-dependent commit policy and [`CommitRecord`] → [`LogEvent`]
/// conversion behind [`StreamRecorder`].
#[derive(Debug)]
pub(crate) struct CommitBridge {
    mode: Mode,
    n_procs: u32,
    rr_cursor: u32,
}

impl CommitBridge {
    pub(crate) fn new(mode: Mode, n_procs: u32) -> Self {
        Self {
            mode,
            n_procs,
            rr_cursor: 0,
        }
    }

    pub(crate) fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        match self.mode {
            Mode::OrderSize | Mode::OrderOnly => policy::arrival(ctx),
            Mode::PicoLog => policy::round_robin(ctx, self.rr_cursor),
        }
    }

    pub(crate) fn convert(&mut self, rec: &CommitRecord) -> LogEvent {
        let has_pi = self.mode.has_pi_log();
        let cs_size = match rec.committer {
            Committer::Proc(_) => {
                let log_size = match self.mode {
                    Mode::OrderSize => true,
                    Mode::OrderOnly | Mode::PicoLog => !rec.truncation.is_deterministic(),
                };
                log_size.then_some(rec.size)
            }
            Committer::Dma => None,
        };
        if self.mode == Mode::PicoLog {
            if let Committer::Proc(p) = rec.committer {
                self.rr_cursor = (p + 1) % self.n_procs;
            }
        }
        LogEvent {
            committer: rec.committer,
            chunk_index: rec.chunk_index,
            cs_size,
            shard: rec.shard,
            interrupt: rec.interrupt,
            io_values: rec.io_values.clone(),
            dma_data: rec.dma_data.clone(),
            access_lines: if has_pi {
                rec.access_lines.clone()
            } else {
                Vec::new()
            },
            write_lines: if has_pi {
                rec.write_lines.clone()
            } else {
                Vec::new()
            },
        }
    }
}

/// Recording-side [`ExecutionHooks`] that forward every commit straight
/// into a [`LogSink`]: a [`MemorySink`] collects the events, a
/// [`FileSink`] streams `.dlrn` bytes.
///
/// * Order&Size / OrderOnly grant commits in arrival order and log
///   processor IDs in the PI log; Order&Size additionally logs every
///   chunk size, OrderOnly only non-deterministic truncations.
/// * PicoLog grants round-robin and logs no PI entries at all; DMA
///   commits record their global commit slot.
#[derive(Debug)]
pub struct StreamRecorder<'a, S: LogSink> {
    bridge: CommitBridge,
    sink: &'a mut S,
}

impl<'a, S: LogSink> StreamRecorder<'a, S> {
    /// Hooks that record `mode` on an `n_procs` machine into `sink`.
    /// The caller must have already sent [`LogSink::begin`].
    pub fn new(mode: Mode, n_procs: u32, sink: &'a mut S) -> Self {
        Self {
            bridge: CommitBridge::new(mode, n_procs),
            sink,
        }
    }

    /// The sink's `(segments, bytes)` flush counters — see
    /// [`LogSink::flush_stats`].
    pub fn flush_stats(&mut self) -> (u64, u64) {
        self.sink.flush_stats()
    }
}

impl<S: LogSink> ExecutionHooks for StreamRecorder<'_, S> {
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        self.bridge.next_grant(ctx)
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        let event = self.bridge.convert(rec);
        self.sink.on_event(&event);
    }

    fn on_run_end(&mut self, stats: &RunStats) {
        self.sink.finish(&StreamTrailer {
            stats: stats.clone(),
        });
    }
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

/// A [`LogSink`] that collects the stream into a [`Recording`]: the
/// metadata, every event unchanged, then the trailer.
#[derive(Debug, Default)]
pub struct MemorySink {
    meta: Option<StreamMeta>,
    events: Vec<LogEvent>,
    trailer: Option<StreamTrailer>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected [`Recording`]; `None` unless both metadata and
    /// trailer were received.
    pub fn into_recording(self) -> Option<Recording> {
        Some(Recording {
            meta: self.meta?,
            events: self.events,
            stats: self.trailer?.stats,
        })
    }
}

impl LogSink for MemorySink {
    fn begin(&mut self, meta: &StreamMeta) {
        self.meta = Some(meta.clone());
        self.events.clear();
        self.trailer = None;
    }

    fn on_event(&mut self, event: &LogEvent) {
        self.events.push(event.clone());
    }

    fn finish(&mut self, trailer: &StreamTrailer) {
        self.trailer = Some(trailer.clone());
    }
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

/// Encodes a [`StartState`] (memory image, per-processor architected
/// state, chunk counters) — shared by the stream metadata's interval
/// block and the `.dlrnx` checkpoint-index entries, so the two formats
/// can never drift apart.
pub(crate) fn encode_start_state(w: &mut Writer, start: &StartState) {
    w.u64(start.memory.len());
    for block in start.memory.blocks() {
        match block {
            Block::Words(words) => w.words(words),
            Block::Zero(n) => w.zero_words(n),
        }
    }
    for st in &start.vm_states {
        w.bytes(&st.to_bytes());
    }
    for &c in &start.chunks_done {
        w.u64(c);
    }
}

/// Decodes a [`StartState`] for an `n_procs`-processor machine — the
/// inverse of [`encode_start_state`]. A memory image of another size
/// than the machine's is a [`DecodeError::MemoryImage`].
pub(crate) fn decode_start_state(
    r: &mut Reader<'_>,
    n_procs: u32,
) -> Result<StartState, DecodeError> {
    let n = r.len("interval memory len")?;
    let expected = AddressMap::new(n_procs).total_words();
    if n as u64 != expected {
        return Err(DecodeError::MemoryImage {
            n_procs,
            words: n as u64,
            expected,
        });
    }
    let len = n
        .checked_mul(8)
        .ok_or(DecodeError::Truncated("interval memory word"))?;
    let memory = MemoryImage::from_le_bytes(r.take(len, "interval memory word")?.as_chunks().0);
    let mut vm_states = Vec::with_capacity(n_procs as usize);
    for _ in 0..n_procs {
        let b = r.bytes("interval vm state")?;
        vm_states.push(
            delorean_isa::vm::VmState::from_bytes(b)
                .ok_or(DecodeError::Truncated("interval vm state"))?,
        );
    }
    let mut chunks_done = Vec::with_capacity(n_procs as usize);
    for _ in 0..n_procs {
        chunks_done.push(r.u64("interval chunks done")?);
    }
    Ok(StartState {
        memory,
        vm_states,
        chunks_done,
    })
}

fn encode_meta(meta: &StreamMeta) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(mode_tag(meta.mode));
    w.u32(meta.n_procs);
    w.u32(meta.chunk_size);
    w.u64(meta.budget);
    w.str(meta.workload.name);
    w.u64(meta.app_seed);
    w.u64(meta.devices.irq_period);
    w.u64(meta.devices.dma_period);
    w.u32(meta.devices.dma_words);
    w.u64(meta.initial_mem_hash);
    match &meta.interval {
        None => w.u8(0),
        Some(start) => {
            w.u8(1);
            encode_start_state(&mut w, start);
        }
    }
    // Arbiter topology rides at the tail so global-arbiter streams stay
    // byte-identical to pre-topology writers: Global appends nothing,
    // Sharded appends a tag byte and the shard count.
    if let ArbiterConfig::Sharded { shards } = meta.arbiter {
        w.u8(TOPOLOGY_SHARDED);
        w.u32(shards);
    }
    w.buf
}

pub(crate) fn decode_meta(bytes: &[u8]) -> Result<StreamMeta, DecodeError> {
    let mut r = Reader::new(bytes);
    let mode = mode_from(r.u8("mode")?)?;
    let n_procs = r.u32("n_procs")?;
    if delorean_sim::validate_procs(n_procs).is_err() {
        return Err(DecodeError::Truncated("n_procs"));
    }
    let chunk_size = r.u32("chunk_size")?;
    let budget = r.u64("budget")?;
    let name = r.str("workload name")?;
    let workload = match workload::by_name(&name) {
        Some(w) => *w,
        None => return Err(DecodeError::UnknownWorkload(name)),
    };
    let app_seed = r.u64("app_seed")?;
    let devices = DeviceConfig {
        irq_period: r.u64("irq_period")?,
        dma_period: r.u64("dma_period")?,
        dma_words: r.u32("dma_words")?,
    };
    let initial_mem_hash = r.u64("checkpoint hash")?;
    let interval = match r.u8("interval flag")? {
        0 => None,
        1 => Some(decode_start_state(&mut r, n_procs)?),
        _ => return Err(DecodeError::Truncated("interval flag")),
    };
    // Legacy (and global-arbiter) streams end here; a trailing topology
    // block identifies a sharded recording.
    let arbiter = if r.done() {
        ArbiterConfig::Global
    } else {
        match r.u8("arbiter topology tag")? {
            TOPOLOGY_SHARDED => {
                let shards = r.u32("arbiter shards")?;
                if shards == 0 || shards > delorean_sim::MAX_PROCS {
                    return Err(DecodeError::Truncated("arbiter shards"));
                }
                ArbiterConfig::Sharded { shards }
            }
            tag => return Err(DecodeError::UnknownTopology(tag)),
        }
    };
    if !r.done() {
        return Err(DecodeError::Truncated("metadata trailing bytes"));
    }
    Ok(StreamMeta {
        mode,
        n_procs,
        chunk_size,
        budget,
        workload,
        app_seed,
        devices,
        initial_mem_hash,
        interval,
        arbiter,
    })
}

fn encode_event(ev: &LogEvent, has_pi: bool, w: &mut Writer) {
    match ev.committer {
        Committer::Dma => {
            let mut tag = TAG_DMA;
            if ev.shard.is_some() {
                tag |= TAG_SHARD;
            }
            w.u8(tag);
            if let Some(shard) = ev.shard {
                w.u32(shard);
            }
            w.u32(ev.dma_data.len() as u32);
            for &(a, v) in &ev.dma_data {
                w.u64(a);
                w.u64(v);
            }
        }
        Committer::Proc(p) => {
            let mut tag = 0u8;
            if ev.cs_size.is_some() {
                tag |= TAG_CS;
            }
            if ev.interrupt.is_some() {
                tag |= TAG_IRQ;
            }
            if !ev.io_values.is_empty() {
                tag |= TAG_IO;
            }
            if ev.shard.is_some() {
                tag |= TAG_SHARD;
            }
            w.u8(tag);
            w.u16(p as u16);
            if let Some(shard) = ev.shard {
                w.u32(shard);
            }
            if let Some(size) = ev.cs_size {
                w.u32(size);
            }
            if let Some((vector, payload)) = ev.interrupt {
                w.u16(vector);
                w.u64(payload);
            }
            if !ev.io_values.is_empty() {
                w.u16(ev.io_values.len() as u16);
                for &(port, v) in &ev.io_values {
                    w.u16(port);
                    w.u64(v);
                }
            }
        }
    }
    if has_pi {
        w.u32(ev.access_lines.len() as u32);
        for &l in &ev.access_lines {
            w.u64(l);
        }
        w.u32(ev.write_lines.len() as u32);
        for &l in &ev.write_lines {
            w.u64(l);
        }
    }
}

/// One footprint: its length, then its lines. Without `keep` the lines
/// are only checked to lie inside the block, with the error reading
/// them would have raised.
fn decode_footprint(
    r: &mut Reader<'_>,
    keep: bool,
    len: &'static str,
    line: &'static str,
) -> Result<Vec<u64>, DecodeError> {
    let n = r.u32(len)? as usize;
    if keep {
        r.words(n, line)
    } else {
        r.take(n.checked_mul(8).ok_or(DecodeError::Truncated(line))?, line)?;
        Ok(Vec::new())
    }
}

fn decode_footprints(
    r: &mut Reader<'_>,
    shape: EventShape,
) -> Result<(Vec<u64>, Vec<u64>), DecodeError> {
    if !shape.mode.has_pi_log() {
        return Ok((Vec::new(), Vec::new()));
    }
    let keep = shape.footprints;
    let access = decode_footprint(r, keep, "footprint len", "footprint line")?;
    let writes = decode_footprint(r, keep, "write footprint len", "write footprint line")?;
    Ok((access, writes))
}

pub(crate) fn decode_event(
    r: &mut Reader<'_>,
    shape: EventShape,
    counters: &mut [u64],
) -> Result<LogEvent, DecodeError> {
    let tag = r.u8("event tag")?;
    if tag & TAG_DMA != 0 {
        if tag & !(TAG_DMA | TAG_SHARD) != 0 {
            return Err(DecodeError::Truncated("event tag"));
        }
        let shard = if tag & TAG_SHARD != 0 {
            Some(r.u32("event shard")?)
        } else {
            None
        };
        let n = r.u32("dma words")? as usize;
        // Sized once, bounded by the 16-byte pairs the block still holds.
        let mut data = Vec::with_capacity(n.min(r.remaining() / 16));
        for _ in 0..n {
            data.push((r.u64("dma addr")?, r.u64("dma value")?));
        }
        let (access_lines, write_lines) = decode_footprints(r, shape)?;
        return Ok(LogEvent {
            committer: Committer::Dma,
            chunk_index: 0,
            cs_size: None,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: data,
            access_lines,
            write_lines,
            shard,
        });
    }
    if tag & !(TAG_CS | TAG_IRQ | TAG_IO | TAG_SHARD) != 0 {
        return Err(DecodeError::Truncated("event tag"));
    }
    let core = u32::from(r.u16("event core")?);
    if core >= shape.n_procs {
        return Err(DecodeError::Truncated("event core"));
    }
    let shard = if tag & TAG_SHARD != 0 {
        Some(r.u32("event shard")?)
    } else {
        None
    };
    let cs_size = if tag & TAG_CS != 0 {
        Some(r.u32("cs size")?)
    } else {
        None
    };
    if shape.mode == Mode::OrderSize && cs_size.is_none() {
        // The Order&Size CS log must receive every chunk.
        return Err(DecodeError::Truncated("cs size"));
    }
    let interrupt = if tag & TAG_IRQ != 0 {
        Some((r.u16("irq vector")?, r.u64("irq payload")?))
    } else {
        None
    };
    let io_values = if tag & TAG_IO != 0 {
        let n = r.u16("io count")? as usize;
        // Sized once, bounded by the 10-byte entries the block still holds.
        let mut values = Vec::with_capacity(n.min(r.remaining() / 10));
        for _ in 0..n {
            values.push((r.u16("io port")?, r.u64("io value")?));
        }
        values
    } else {
        Vec::new()
    };
    let (access_lines, write_lines) = decode_footprints(r, shape)?;
    counters[core as usize] += 1;
    Ok(LogEvent {
        committer: Committer::Proc(core),
        chunk_index: counters[core as usize],
        cs_size,
        interrupt,
        io_values,
        dma_data: Vec::new(),
        access_lines,
        write_lines,
        shard,
    })
}

fn encode_trailer(trailer: &StreamTrailer) -> Vec<u8> {
    let mut w = Writer::new();
    let d = &trailer.stats.digest;
    w.u64(d.mem_hash);
    for &h in &d.stream_hashes {
        w.u64(h);
    }
    for &x in &d.retired {
        w.u64(x);
    }
    for &c in &d.committed_chunks {
        w.u64(c);
    }
    let s = &trailer.stats;
    w.u64(s.cycles);
    w.u64(s.total_commits);
    w.u64(s.squashes);
    w.u64(s.overflow_truncations);
    w.u64(s.collision_truncations);
    w.u64(s.uncached_truncations);
    w.u64(s.interrupts);
    w.u64(s.dma_commits);
    w.u64(s.work_units);
    w.f64(s.avg_chunk_size);
    w.buf
}

pub(crate) fn decode_trailer(bytes: &[u8], n_procs: u32) -> Result<StreamTrailer, DecodeError> {
    let mut r = Reader::new(bytes);
    let mem_hash = r.u64("digest mem")?;
    let mut stream_hashes = Vec::with_capacity(n_procs as usize);
    for _ in 0..n_procs {
        stream_hashes.push(r.u64("digest stream")?);
    }
    let mut retired = Vec::with_capacity(n_procs as usize);
    for _ in 0..n_procs {
        retired.push(r.u64("digest retired")?);
    }
    let mut committed_chunks = Vec::with_capacity(n_procs as usize);
    for _ in 0..n_procs {
        committed_chunks.push(r.u64("digest chunks")?);
    }
    let digest = StateDigest {
        mem_hash,
        stream_hashes,
        retired,
        committed_chunks,
    };
    let stats = RunStats {
        cycles: r.u64("cycles")?,
        total_commits: r.u64("total_commits")?,
        squashes: r.u64("squashes")?,
        squashed_insts: 0,
        overflow_truncations: r.u64("overflow")?,
        collision_truncations: r.u64("collision")?,
        uncached_truncations: r.u64("uncached")?,
        interrupts: r.u64("interrupts")?,
        dma_commits: r.u64("dma_commits")?,
        stall_cycles: vec![0; n_procs as usize],
        traffic_bytes: 0,
        avg_chunk_size: 0.0,
        parallel: ParallelStats::default(),
        token: None,
        work_units: r.u64("work_units")?,
        digest,
    };
    let mut stats = stats;
    stats.avg_chunk_size = r.f64("avg_chunk_size")?;
    if !r.done() {
        return Err(DecodeError::Truncated("trailer trailing bytes"));
    }
    Ok(StreamTrailer { stats })
}

// ---------------------------------------------------------------------------
// FileSink
// ---------------------------------------------------------------------------

/// Most event segments a [`FileSink`] hands to its compressor thread
/// before it waits for the oldest and writes it out, and most segments
/// a [`SegmentDecoder`] reads ahead of the one its caller consumes.
const MAX_IN_FLIGHT: usize = 2;

/// One event segment on its way to the compressor thread.
#[derive(Debug)]
struct SegmentJob {
    /// The body's uncompressed prefix: commit watermark, per-processor
    /// chunk counts and event count.
    prefix: Vec<u8>,
    /// The segment's encoded events.
    events: Vec<u8>,
}

/// A compressed, checksummed segment, written as two calls: head, then
/// body.
#[derive(Debug)]
struct FramedSegment {
    head: Vec<u8>,
    body: Vec<u8>,
}

impl FramedSegment {
    /// Frames `body` behind its head: `kind | body_len | fnv(kind ‖
    /// body_len ‖ body)`.
    fn new(kind: u8, body: Vec<u8>) -> Self {
        let mut head = Writer::new();
        head.u8(kind);
        head.u64(body.len() as u64);
        head.u64(segment_checksum(kind, &body));
        Self {
            head: head.buf,
            body,
        }
    }
}

impl SegmentJob {
    /// Compresses the events into one LZ77 block after the prefix and
    /// frames the body. The block is compressed alone, with no match
    /// history, so every segment decodes with a fresh decoder: the
    /// property the salvage pass relies on to re-enter a stream at any
    /// segment boundary after a corrupt region.
    fn frame(self) -> FramedSegment {
        let mut body = self.prefix;
        body.extend_from_slice(&delorean_compress::lz77::compress(&self.events));
        FramedSegment::new(SEG_EVENTS, body)
    }
}

/// The thread that compresses and frames a [`FileSink`]'s event
/// segments, one at a time, in the order they were handed over.
#[derive(Debug)]
struct Compressor {
    jobs: mpsc::Sender<SegmentJob>,
    done: mpsc::Receiver<FramedSegment>,
    thread: thread::JoinHandle<()>,
    /// Raw event bytes of each segment handed over and not yet
    /// collected, oldest first.
    in_flight: VecDeque<usize>,
}

fn compressor_stopped() -> io::Error {
    io::Error::other("segment compressor thread stopped")
}

impl Compressor {
    fn spawn() -> io::Result<Self> {
        let (jobs, queued) = mpsc::channel::<SegmentJob>();
        let (framed, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("dlrn-compress".to_string())
            .spawn(move || {
                for job in queued {
                    if framed.send(job.frame()).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Self {
            jobs,
            done,
            thread,
            in_flight: VecDeque::new(),
        })
    }

    fn submit(&mut self, job: SegmentJob) -> io::Result<()> {
        let raw = job.events.len();
        self.jobs.send(job).map_err(|_| compressor_stopped())?;
        self.in_flight.push_back(raw);
        Ok(())
    }

    /// Waits for the oldest segment in flight; `None` when none is.
    fn collect(&mut self) -> Option<io::Result<FramedSegment>> {
        self.in_flight.pop_front()?;
        Some(self.done.recv().map_err(|_| compressor_stopped()))
    }

    /// Closes the job queue and waits for the thread to exit.
    fn join(self) -> io::Result<()> {
        drop(self.jobs);
        self.thread.join().map_err(|_| compressor_stopped())
    }
}

/// A [`LogSink`] that frames the stream into the `.dlrn` binary format
/// incrementally: every [`DEFAULT_FLUSH_EVERY`] events (configurable)
/// the pending events become one LZ77-compressed, checksummed segment,
/// so peak buffering stays bounded by the flush granularity regardless
/// of run length.
///
/// A worker thread compresses and checksums the segments while the
/// caller goes on producing events; at most two are with it at once. The writer never leaves the calling thread: it receives
/// the header frame, then each segment's head and body (two writes) in
/// stream order, then the trailer, exactly as if the segments were
/// compressed in place. Everything that reports on the writer
/// ([`LogSink::flush_stats`], [`FileSink::bytes_written`], `finish`,
/// [`FileSink::abandon`], `Drop`) first writes out every segment in
/// flight, so the counters it reads are exact.
#[derive(Debug)]
pub struct FileSink<W: io::Write> {
    out: Option<W>,
    error: Option<io::Error>,
    /// Encoded events of the open segment.
    events: Vec<u8>,
    flush_every: usize,
    has_pi: bool,
    events_pending: u32,
    commits: u64,
    chunks_done: Vec<u64>,
    /// Started with the first segment, joined by `finish`, `abandon`
    /// and `Drop`.
    compressor: Option<Compressor>,
    peak_buffered: usize,
    bytes_written: u64,
    segments_flushed: u64,
    finished: bool,
}

impl<W: io::Write> FileSink<W> {
    /// A sink writing to `out` with the default flush granularity.
    pub fn new(out: W) -> Self {
        Self::with_flush_every(out, DEFAULT_FLUSH_EVERY)
    }

    /// A sink flushing a segment every `flush_every` events.
    ///
    /// # Panics
    ///
    /// Panics if `flush_every` is zero.
    pub fn with_flush_every(out: W, flush_every: usize) -> Self {
        assert!(flush_every > 0, "flush granularity must be positive");
        Self {
            out: Some(out),
            error: None,
            events: Vec::new(),
            flush_every,
            has_pi: true,
            events_pending: 0,
            commits: 0,
            chunks_done: Vec::new(),
            compressor: None,
            peak_buffered: 0,
            bytes_written: 0,
            segments_flushed: 0,
            finished: false,
        }
    }

    /// Largest number of encoded event bytes held at any point, in the
    /// open segment and in segments still with the compressor thread —
    /// the streaming pipeline's peak log buffering.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered
    }

    /// Total bytes written to the underlying writer so far, after
    /// writing out every segment still with the compressor thread.
    pub fn bytes_written(&mut self) -> u64 {
        self.write_in_flight();
        self.bytes_written
    }

    /// Recovers the writer, or the first I/O error hit while streaming.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::Io`] with the latched error if any write
    /// failed or the compressor thread stopped, and
    /// [`SinkError::UnfinishedSink`] if the sink never saw
    /// [`LogSink::finish`] — such a stream has no trailer and decodes
    /// as truncated, so handing the writer back silently would bless a
    /// corrupt log. Buffered events are still flushed to the writer by
    /// the sink's `Drop`; a caller that *wants* a trailer-less stream
    /// uses [`FileSink::abandon`] instead.
    pub fn into_inner(mut self) -> Result<W, SinkError> {
        if let Some(e) = self.error.take() {
            return Err(SinkError::Io(e));
        }
        if !self.finished && self.out.is_some() {
            return Err(SinkError::UnfinishedSink);
        }
        match self.out.take() {
            Some(w) => Ok(w),
            // Unreachable: the writer is only dropped when an error is
            // latched, but a `None` here must not panic a log sink.
            None => Err(SinkError::Io(io::Error::other("log writer already taken"))),
        }
    }

    /// Flushes buffered events as a final segment and recovers the
    /// writer *without* requiring [`LogSink::finish`] — the stream is
    /// intentionally left trailer-less and decodes as truncated.
    /// Exists for crash simulation and truncation tests.
    ///
    /// # Errors
    ///
    /// Returns the latched [`io::Error`] if any write failed or the
    /// compressor thread stopped.
    pub fn abandon(mut self) -> io::Result<W> {
        self.flush_segment();
        self.write_in_flight();
        self.join_compressor();
        match (self.error.take(), self.out.take()) {
            (Some(e), _) => Err(e),
            (None, Some(mut w)) => {
                w.flush()?;
                Ok(w)
            }
            (None, None) => Err(io::Error::other("log writer already taken")),
        }
    }

    /// Keeps the first error: later failures are its consequences.
    fn latch(&mut self, e: io::Error) {
        self.error.get_or_insert(e);
    }

    fn emit(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        if let Err(e) = out.write_all(bytes) {
            self.error = Some(e);
        } else {
            self.bytes_written += bytes.len() as u64;
        }
    }

    fn emit_segment(&mut self, segment: &FramedSegment) {
        self.emit(&segment.head);
        self.emit(&segment.body);
    }

    /// Hands the open segment to the compressor thread, first writing
    /// out the oldest segment in flight if [`MAX_IN_FLIGHT`] are.
    fn flush_segment(&mut self) {
        if self.events_pending == 0 {
            return;
        }
        let mut prefix = Writer::new();
        prefix.u64(self.commits);
        for &c in &self.chunks_done {
            prefix.u64(c);
        }
        prefix.u32(self.events_pending);
        self.events_pending = 0;
        let capacity = self.events.len();
        let job = SegmentJob {
            prefix: prefix.buf,
            events: std::mem::replace(&mut self.events, Vec::with_capacity(capacity)),
        };
        if self
            .compressor
            .as_ref()
            .is_some_and(|c| c.in_flight.len() >= MAX_IN_FLIGHT)
        {
            self.write_oldest();
        }
        let submitted = match self.compressor.as_mut() {
            Some(c) => c.submit(job),
            None => Compressor::spawn().and_then(|c| self.compressor.insert(c).submit(job)),
        };
        if let Err(e) = submitted {
            self.latch(e);
        }
    }

    /// Writes out the oldest segment in flight; false when none is.
    fn write_oldest(&mut self) -> bool {
        let Some(framed) = self.compressor.as_mut().and_then(Compressor::collect) else {
            return false;
        };
        match framed {
            Ok(segment) => self.emit_segment(&segment),
            Err(e) => self.latch(e),
        }
        self.segments_flushed += 1;
        true
    }

    /// Writes out every segment in flight, oldest first.
    fn write_in_flight(&mut self) {
        while self.write_oldest() {}
    }

    /// Stops the compressor thread; every segment must be written out.
    fn join_compressor(&mut self) {
        if let Some(Err(e)) = self.compressor.take().map(Compressor::join) {
            self.latch(e);
        }
    }
}

impl<W: io::Write> Drop for FileSink<W> {
    fn drop(&mut self) {
        if !self.finished && self.out.is_some() {
            // Last-resort flush: a sink dropped without finish() must
            // not silently discard buffered commits — push them out as
            // a final segment (the stream still lacks a trailer and
            // decodes as truncated, but every committed event reaches
            // the writer).
            self.flush_segment();
            self.write_in_flight();
            if self.error.is_none() {
                if let Some(out) = self.out.as_mut() {
                    let _ = out.flush();
                }
            }
        }
        self.join_compressor();
    }
}

impl<W: io::Write> LogSink for FileSink<W> {
    fn begin(&mut self, meta: &StreamMeta) {
        self.has_pi = meta.mode.has_pi_log();
        self.finished = false;
        self.commits = 0;
        self.chunks_done = meta.start_chunks();
        self.events_pending = 0;
        self.emit(&frame(MAGIC, VERSION, &encode_meta(meta)));
    }

    fn on_event(&mut self, event: &LogEvent) {
        let mut w = Writer {
            buf: std::mem::take(&mut self.events),
        };
        encode_event(event, self.has_pi, &mut w);
        self.events = w.buf;
        self.commits += 1;
        if let Committer::Proc(p) = event.committer {
            self.chunks_done[p as usize] += 1;
        }
        self.events_pending += 1;
        let in_flight: usize = self
            .compressor
            .as_ref()
            .map_or(0, |c| c.in_flight.iter().sum());
        self.peak_buffered = self.peak_buffered.max(self.events.len() + in_flight);
        if self.events_pending as usize >= self.flush_every {
            self.flush_segment();
        }
    }

    fn finish(&mut self, trailer: &StreamTrailer) {
        self.flush_segment();
        self.write_in_flight();
        self.join_compressor();
        self.emit_segment(&FramedSegment::new(SEG_TRAILER, encode_trailer(trailer)));
        if self.error.is_none() {
            if let Some(out) = self.out.as_mut() {
                if let Err(e) = out.flush() {
                    self.error = Some(e);
                }
            }
        }
        self.finished = true;
    }

    fn flush_stats(&mut self) -> (u64, u64) {
        self.write_in_flight();
        (self.segments_flushed, self.bytes_written)
    }
}

// ---------------------------------------------------------------------------
// Recording → stream
// ---------------------------------------------------------------------------

/// Streams an in-memory [`Recording`] into `sink`: its metadata, its
/// events unchanged, then its trailer. A [`FileSink`] fed this way
/// writes the bytes a live recording of the same execution streamed,
/// shard stamps included.
pub fn copy_recording<S: LogSink>(rec: &Recording, sink: &mut S) {
    sink.begin(&rec.meta);
    for ev in &rec.events {
        sink.on_event(ev);
    }
    sink.finish(&StreamTrailer {
        stats: rec.stats.clone(),
    });
}

// ---------------------------------------------------------------------------
// LogSource: the replay direction
// ---------------------------------------------------------------------------

/// Supplies a recorded log stream to a replayer, query-by-query, with
/// explicit commit notifications so implementations can advance (and
/// file-backed ones can evict consumed state).
pub trait LogSource {
    /// The stream metadata: machine shape, workload and start state.
    fn meta(&self) -> &StreamMeta;
    /// Execution mode of the stream.
    fn mode(&self) -> Mode {
        self.meta().mode
    }
    /// Processors in the recorded machine.
    fn n_procs(&self) -> u32 {
        self.meta().n_procs
    }
    /// The next PI-log entry (PI modes), without consuming it.
    fn pi_peek(&mut self) -> Option<Committer>;
    /// The CS-log-forced size of `core`'s logical chunk `index`.
    fn forced_size(&mut self, core: u32, index: u64) -> Option<u32>;
    /// The interrupt delivered at the start of `core`'s chunk `index`.
    fn interrupt_at(&mut self, core: u32, index: u64) -> Option<(u16, Word)>;
    /// The `seq`-th I/O-load value of `core`'s chunk `index`.
    fn io_value(&mut self, core: u32, index: u64, seq: u32) -> Option<Word>;
    /// Whether the next DMA commit's recorded slot equals `gcc`
    /// (PicoLog).
    fn dma_slot_matches(&mut self, gcc: u64) -> bool;
    /// The next DMA transfer's payload, without consuming it.
    fn dma_next(&mut self) -> Option<Vec<(Addr, Word)>>;
    /// Notes that `committer` committed, advancing the stream cursors.
    fn note_commit(&mut self, committer: Committer);
    /// Drains the stream and returns the trailer.
    ///
    /// # Errors
    ///
    /// Returns a description when the stream is corrupt, truncated or
    /// carries no trailer.
    fn finish(&mut self) -> Result<StreamTrailer, String>;
    /// First stream error encountered, if any.
    fn error(&self) -> Option<&str>;
    /// The PicoLog round-robin phase a replay resuming at this source's
    /// position must restart its commit cursor at, when the source was
    /// positioned mid-stream (e.g. by a checkpoint seek). `None` means
    /// the source carries no phase and the replayer should fall back to
    /// its own derivation — the default for sources that always start
    /// at a recording's beginning.
    fn resume_phase(&self) -> Option<u32> {
        None
    }
}

/// Any `&mut LogSource` is itself a [`LogSource`]: lets a caller lend a
/// source to a replayer or inspector (which consume their source by
/// value) and keep it afterwards — the seam windowed replay uses to
/// roll a source forward with the inspector before handing it to the
/// engine.
impl<S: LogSource> LogSource for &mut S {
    fn meta(&self) -> &StreamMeta {
        (**self).meta()
    }
    fn pi_peek(&mut self) -> Option<Committer> {
        (**self).pi_peek()
    }
    fn forced_size(&mut self, core: u32, index: u64) -> Option<u32> {
        (**self).forced_size(core, index)
    }
    fn interrupt_at(&mut self, core: u32, index: u64) -> Option<(u16, Word)> {
        (**self).interrupt_at(core, index)
    }
    fn io_value(&mut self, core: u32, index: u64, seq: u32) -> Option<Word> {
        (**self).io_value(core, index, seq)
    }
    fn dma_slot_matches(&mut self, gcc: u64) -> bool {
        (**self).dma_slot_matches(gcc)
    }
    fn dma_next(&mut self) -> Option<Vec<(Addr, Word)>> {
        (**self).dma_next()
    }
    fn note_commit(&mut self, committer: Committer) {
        (**self).note_commit(committer)
    }
    fn finish(&mut self) -> Result<StreamTrailer, String> {
        (**self).finish()
    }
    fn error(&self) -> Option<&str> {
        (**self).error()
    }
    fn resume_phase(&self) -> Option<u32> {
        (**self).resume_phase()
    }
}

// ---------------------------------------------------------------------------
// Segment decoding and FileSource
// ---------------------------------------------------------------------------

/// Per-core queue of not-yet-consumed I/O log entries: chunk index plus
/// that chunk's `(port, value)` loads.
type IoQueue = VecDeque<(u64, Vec<(u16, Word)>)>;

/// The log entries a replay has been handed but not yet consumed,
/// queued per core and evicted as commits are noted. [`FileSource`]
/// fills them segment by segment as it decodes; a
/// [`RecoveringSource`](crate::RecoveringSource) fills them once from
/// the events it is built over. Both answer their [`LogSource`]
/// queries from here.
#[derive(Debug)]
pub(crate) struct ReplayQueues {
    mode: Mode,
    pi: VecDeque<Committer>,
    cs: Vec<VecDeque<(u64, u32)>>,
    irq: Vec<VecDeque<(u64, u16, Word)>>,
    io: Vec<IoQueue>,
    dma: VecDeque<Vec<(Addr, Word)>>,
    /// PicoLog DMA commit slots, relative to the replay window's start.
    dma_slots: VecDeque<u64>,
    /// Per-processor committed-chunk counters.
    committed: Vec<u64>,
}

impl ReplayQueues {
    /// Empty queues for a replay of `meta`'s stream from its start.
    pub(crate) fn new(meta: &StreamMeta) -> Self {
        let n = meta.n_procs as usize;
        Self {
            mode: meta.mode,
            pi: VecDeque::new(),
            cs: vec![VecDeque::new(); n],
            irq: vec![VecDeque::new(); n],
            io: vec![VecDeque::new(); n],
            dma: VecDeque::new(),
            dma_slots: VecDeque::new(),
            committed: meta.start_chunks(),
        }
    }

    /// Queues what a replay asks of one event; footprints are not
    /// copied. `slot` is its commit slot relative to the window start,
    /// recorded for PicoLog DMA commits only.
    pub(crate) fn push(&mut self, ev: &LogEvent, slot: u64) {
        if self.mode.has_pi_log() {
            self.pi.push_back(ev.committer);
        }
        match ev.committer {
            Committer::Proc(p) => {
                let pi = p as usize;
                if let Some(size) = ev.cs_size {
                    self.cs[pi].push_back((ev.chunk_index, size));
                }
                if let Some((vector, payload)) = ev.interrupt {
                    self.irq[pi].push_back((ev.chunk_index, vector, payload));
                }
                if !ev.io_values.is_empty() {
                    self.io[pi].push_back((ev.chunk_index, ev.io_values.clone()));
                }
            }
            Committer::Dma => {
                if self.mode == Mode::PicoLog {
                    self.dma_slots.push_back(slot);
                }
                self.dma.push_back(ev.dma_data.clone());
            }
        }
    }

    fn clear(&mut self) {
        self.pi.clear();
        for q in &mut self.cs {
            q.clear();
        }
        for q in &mut self.irq {
            q.clear();
        }
        for q in &mut self.io {
            q.clear();
        }
        self.dma.clear();
        self.dma_slots.clear();
    }

    fn len(&self) -> usize {
        self.pi.len()
            + self.dma.len()
            + self.cs.iter().map(VecDeque::len).sum::<usize>()
            + self.irq.iter().map(VecDeque::len).sum::<usize>()
            + self.io.iter().map(VecDeque::len).sum::<usize>()
    }

    pub(crate) fn pi_peek(&self) -> Option<Committer> {
        self.pi.front().copied()
    }

    pub(crate) fn forced_size(&self, core: u32, index: u64) -> Option<u32> {
        self.cs[core as usize]
            .iter()
            .find(|&&(i, _)| i == index)
            .map(|&(_, s)| s)
    }

    pub(crate) fn interrupt_at(&self, core: u32, index: u64) -> Option<(u16, Word)> {
        self.irq[core as usize]
            .iter()
            .find(|&&(i, _, _)| i == index)
            .map(|&(_, v, p)| (v, p))
    }

    pub(crate) fn io_value(&self, core: u32, index: u64, seq: u32) -> Option<Word> {
        self.io[core as usize]
            .iter()
            .find(|(i, _)| *i == index)
            .and_then(|(_, values)| values.get(seq as usize))
            .map(|&(_, v)| v)
    }

    pub(crate) fn dma_slot_matches(&self, gcc: u64) -> bool {
        self.dma_slots.front() == Some(&gcc)
    }

    pub(crate) fn dma_next(&self) -> Option<Vec<(Addr, Word)>> {
        self.dma.front().cloned()
    }

    pub(crate) fn note_commit(&mut self, committer: Committer) {
        if self.mode.has_pi_log() {
            self.pi.pop_front();
        }
        match committer {
            Committer::Proc(p) => {
                let pi = p as usize;
                self.committed[pi] += 1;
                let limit = self.committed[pi];
                while self.cs[pi].front().is_some_and(|&(i, _)| i <= limit) {
                    self.cs[pi].pop_front();
                }
                while self.irq[pi].front().is_some_and(|&(i, _, _)| i <= limit) {
                    self.irq[pi].pop_front();
                }
                while self.io[pi].front().is_some_and(|(i, _)| *i <= limit) {
                    self.io[pi].pop_front();
                }
            }
            Committer::Dma => {
                self.dma.pop_front();
                if self.mode == Mode::PicoLog {
                    self.dma_slots.pop_front();
                }
            }
        }
    }
}

/// The decoded payload of one event segment, including the watermarks
/// the segment header declares (used by lint passes to cross-check
/// counter monotonicity).
#[derive(Debug, Clone)]
pub struct EventSegment {
    /// The commit events, in global commit order.
    pub events: Vec<LogEvent>,
    /// Global commit count after the segment's last event, as declared
    /// by the segment header.
    pub commit_watermark: u64,
    /// Per-processor committed-chunk counters after the segment's last
    /// event, as declared by the segment header.
    pub chunk_watermarks: Vec<u64>,
}

enum Segment {
    Events(EventSegment),
    Trailer(Box<StreamTrailer>),
    End,
}

/// Where an event segment starts in the byte stream and the decode
/// counters it starts with. A [`FileSource`] records one for every
/// segment it decodes, and every
/// [`CheckpointEntry`](crate::CheckpointEntry) carries one, so a seek
/// repositions the reader directly, without re-decoding the prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMark {
    /// Byte offset of the segment's kind byte.
    pub byte_offset: u64,
    /// Global commits decoded before this segment.
    pub start_gcc: u64,
    /// Per-processor committed-chunk counters before this segment.
    pub start_chunks: Vec<u64>,
}

fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), DecodeError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(DecodeError::Truncated(what)),
        Err(e) => Err(DecodeError::Io(e.to_string())),
    }
}

/// Reads as many bytes as the reader will give, up to `buf.len()`,
/// returning the count — lets the header parser distinguish an empty
/// input from a mid-magic truncation.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, DecodeError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DecodeError::Io(e.to_string())),
        }
    }
    Ok(got)
}

/// Reads a `len`-byte frame body into `body`, reusing its allocation.
/// `len` is untrusted: the up-front reservation is capped at 1 MiB, and
/// a longer body grows only as far as the reader actually delivers.
fn read_body<R: Read>(
    r: &mut R,
    len: u64,
    what: &'static str,
    mut body: Vec<u8>,
) -> Result<Vec<u8>, DecodeError> {
    body.clear();
    body.reserve(len.min(1 << 20) as usize);
    r.take(len)
        .read_to_end(&mut body)
        .map_err(|e| DecodeError::Io(e.to_string()))?;
    if body.len() as u64 != len {
        return Err(DecodeError::Truncated(what));
    }
    Ok(body)
}

/// What decoding an event segment needs to know about its stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventShape {
    pub(crate) mode: Mode,
    pub(crate) n_procs: u32,
    /// Build each event's footprint vectors. Without it the decoder
    /// still checks their lengths against the block, with the same
    /// errors, and leaves the vectors empty: a [`FileSource`]'s replay
    /// queues never read them.
    pub(crate) footprints: bool,
}

impl EventShape {
    pub(crate) fn of(meta: &StreamMeta) -> Self {
        Self {
            mode: meta.mode,
            n_procs: meta.n_procs,
            footprints: true,
        }
    }
}

/// The decode counters a segment starts from: the global commit count
/// and the per-processor chunk counters.
type Counters = (u64, Vec<u64>);

/// One segment frame, read on the caller's thread, on its way to the
/// decoder thread.
struct DecodeJob {
    /// The [`DecodeWorker::generation`] the job was read in; a seek or a
    /// drop moves on to the next, and the worker skips older jobs.
    generation: u64,
    /// Counters to decode from instead of the previous segment's end:
    /// set on the first job after the stream opens or seeks. The LZ77
    /// history restarts with them.
    restart: Option<Counters>,
    kind: u8,
    /// The checksum the body must match, unless the segment at this
    /// offset verified before.
    checksum: Option<u64>,
    seg_start: u64,
    body: Vec<u8>,
    /// Segments the caller is done with: they go back to the thread
    /// that allocated them, to be freed or refilled there.
    spent: Vec<EventSegment>,
}

/// What the decoder thread made of one [`DecodeJob`]: every change the
/// serial decoder would have made, for the caller to apply when it
/// consumes the segment.
struct Decoded {
    /// The checksum was computed and matched.
    verified: bool,
    /// The segment's mark, for an events segment whose checksum held.
    mark: Option<SegmentMark>,
    /// A trailer frame whose checksum held.
    trailer: bool,
    /// Commits decoded after this job, including those of a segment
    /// that failed part-way.
    gcc: u64,
    outcome: Result<Segment, DecodeError>,
    /// The body buffer, handed back for the next read.
    body: Vec<u8>,
}

/// The decoder thread's state: the counters and LZ77 history carried
/// from one segment to the next, and event vectors to refill.
struct DecodeState {
    shape: EventShape,
    lz: delorean_compress::lz77::Decoder,
    chunks: Vec<u64>,
    gcc: u64,
    spare: Vec<Vec<LogEvent>>,
}

impl DecodeState {
    /// Checks and decodes one frame body, exactly as the serial decoder
    /// did once the body was read.
    fn decode(&mut self, job: DecodeJob) -> Decoded {
        for mut seg in job.spent {
            if self.spare.len() < MAX_IN_FLIGHT {
                seg.events.clear();
                self.spare.push(seg.events);
            }
        }
        if let Some((gcc, chunks)) = job.restart {
            self.gcc = gcc;
            self.chunks = chunks;
            self.lz = delorean_compress::lz77::Decoder::new();
        }
        let mut d = Decoded {
            verified: false,
            mark: None,
            trailer: false,
            gcc: self.gcc,
            outcome: Err(DecodeError::BadChecksum),
            body: Vec::new(),
        };
        if let Some(sum) = job.checksum {
            if segment_checksum(job.kind, &job.body) != sum {
                d.body = job.body;
                return d;
            }
            d.verified = true;
        }
        d.outcome = match job.kind {
            SEG_EVENTS => {
                d.mark = Some(SegmentMark {
                    byte_offset: job.seg_start,
                    start_gcc: self.gcc,
                    start_chunks: self.chunks.clone(),
                });
                let events = self.spare.pop().unwrap_or_default();
                decode_events(
                    &job.body,
                    self.shape,
                    &mut self.lz,
                    &mut self.chunks,
                    &mut self.gcc,
                    events,
                )
                .and_then(|seg| {
                    if self.gcc != seg.commit_watermark || self.chunks != seg.chunk_watermarks {
                        return Err(DecodeError::Truncated("segment watermark"));
                    }
                    Ok(Segment::Events(seg))
                })
            }
            SEG_TRAILER => {
                d.trailer = true;
                decode_trailer(&job.body, self.shape.n_procs).map(|t| Segment::Trailer(Box::new(t)))
            }
            _ => Err(DecodeError::Truncated("segment kind")),
        };
        d.gcc = self.gcc;
        d.body = job.body;
        d
    }
}

fn decoder_stopped() -> DecodeError {
    DecodeError::Io("segment decoder thread stopped".to_string())
}

/// The thread that checks and decodes a [`SegmentDecoder`]'s segment
/// bodies in the order they were read, carrying the decode counters
/// from each segment to the next. Joined on drop.
struct DecodeWorker {
    jobs: Option<mpsc::Sender<DecodeJob>>,
    done: mpsc::Receiver<Decoded>,
    thread: Option<thread::JoinHandle<()>>,
    /// Jobs of an older generation were abandoned (by a seek or the
    /// drop) and are skipped unread. `Relaxed` suffices: the counter
    /// publishes no data, the channel orders each job after the bump
    /// before it, and an abandoned job that is decoded anyway only
    /// wastes the work: its result is dropped by count, and the next
    /// live job restarts the counters.
    generation: Arc<AtomicU64>,
}

impl DecodeWorker {
    fn spawn(shape: EventShape) -> Result<Self, DecodeError> {
        let (jobs, queued) = mpsc::channel::<DecodeJob>();
        let (decoded, done) = mpsc::channel();
        let generation = Arc::new(AtomicU64::new(0));
        let current = Arc::clone(&generation);
        let thread = thread::Builder::new()
            .name("dlrn-decode".to_string())
            .spawn(move || {
                let mut state = DecodeState {
                    shape,
                    lz: delorean_compress::lz77::Decoder::new(),
                    chunks: Vec::new(),
                    gcc: 0,
                    spare: Vec::new(),
                };
                for job in queued {
                    let d = if job.generation == current.load(Ordering::Relaxed) {
                        state.decode(job)
                    } else {
                        Decoded {
                            verified: false,
                            mark: None,
                            trailer: false,
                            gcc: 0,
                            outcome: Ok(Segment::End),
                            body: job.body,
                        }
                    };
                    if decoded.send(d).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| DecodeError::Io(format!("starting the segment decoder thread: {e}")))?;
        Ok(Self {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
            generation,
        })
    }
}

impl Drop for DecodeWorker {
    fn drop(&mut self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            // A worker that panicked has already surfaced as a closed
            // channel; there is nothing left to report here.
            let _ = thread.join();
        }
    }
}

/// A segment read ahead of the replay, in stream order.
enum Pending {
    /// A frame of `kind` with the decoder thread; `end` is the offset
    /// past its body.
    Sent { kind: u8, seg_start: u64, end: u64 },
    /// The reader ended at a frame boundary: a clean end, a header-only
    /// stream or a missing trailer, decided when it is consumed.
    Eof,
    /// Reading the frame failed, `end` bytes into the stream.
    Failed { error: DecodeError, end: u64 },
}

/// Incremental decoder for the v2 `.dlrn` segment stream.
///
/// Frames (kind byte, head, body) are read on the caller's thread; one
/// worker thread, started with the first segment read, checks and
/// decodes their bodies, at most [`MAX_IN_FLIGHT`] ahead of the
/// caller. Everything the caller can observe — the segment, the error
/// and its [`StreamPosition`], the marks, the checksum memo — changes
/// only when a segment is consumed, exactly as it did when each
/// segment was decoded in place.
pub(crate) struct SegmentDecoder<R: Read> {
    reader: R,
    pub(crate) meta: StreamMeta,
    shape: EventShape,
    /// Bytes read from the reader, read-ahead included.
    read_offset: u64,
    /// The position after the last segment consumed.
    consumed: StreamPosition,
    seen_trailer: bool,
    done: bool,
    /// Random-access hook, set only by seek-capable constructors.
    /// Stored as a plain fn pointer so the decoder stays generic over
    /// any `Read` without a `Seek` bound on the type itself.
    seek: Option<fn(&mut R, u64) -> io::Result<u64>>,
    /// Byte offsets of segments whose checksums already verified this
    /// session — a re-read after a seek skips re-verification.
    verified: HashSet<u64>,
    /// Checksum verifications actually performed (memoization probe).
    verifications: u64,
    /// Offset index of every event segment visited, sorted by offset.
    marks: Vec<SegmentMark>,
    /// Byte offset of the first segment frame (end of the header) —
    /// the rewind target, known even before any segment is visited.
    pub(crate) first_offset: u64,
    /// Segments read ahead and not yet consumed, oldest first.
    pending: VecDeque<Pending>,
    /// Counters the next job decodes from (see [`DecodeJob::restart`]).
    restart: Option<Counters>,
    worker: Option<DecodeWorker>,
    /// Results of abandoned jobs still to be received and dropped.
    stale: usize,
    /// Body buffers handed back by the worker.
    bodies: Vec<Vec<u8>>,
    /// Consumed segments to hand back to the worker with the next job.
    spent: Vec<EventSegment>,
}

/// Decodes a little-endian integer from the first `N` bytes of `b`.
/// Callers always pass slices of at least `N` bytes (fixed-size headers).
fn le_bytes<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&b[..N]);
    a
}

impl<R: Read> SegmentDecoder<R> {
    /// Reads and checks the stream header and metadata. Starts no
    /// thread: the decoder thread starts with the first segment read.
    pub(crate) fn open(reader: R) -> Result<Self, DecodeError> {
        Self::open_with(reader, None, true)
    }

    fn open_with(
        mut reader: R,
        seek: Option<fn(&mut R, u64) -> io::Result<u64>>,
        footprints: bool,
    ) -> Result<Self, DecodeError> {
        let mut head = [0u8; FILE_HEAD];
        let got = read_up_to(&mut reader, &mut head)?;
        if got == 0 {
            return Err(DecodeError::Empty);
        }
        if got < 4 {
            // Not even a whole magic number survived.
            return Err(DecodeError::Truncated("file magic"));
        }
        if u32::from_le_bytes(le_bytes(&head[0..4])) != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if got < head.len() {
            return Err(DecodeError::Truncated("file header"));
        }
        let version = u16::from_le_bytes(le_bytes(&head[4..6]));
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let checksum = u64::from_le_bytes(le_bytes(&head[6..14]));
        let mut len_bytes = [0u8; 8];
        read_exact_or(&mut reader, &mut len_bytes, "metadata length")?;
        let meta_len = u64::from_le_bytes(len_bytes);
        let meta_bytes = read_body(&mut reader, meta_len, "metadata", Vec::new())?;
        if frame_checksum(&meta_bytes) != checksum {
            return Err(DecodeError::BadChecksum);
        }
        let meta = decode_meta(&meta_bytes)?;
        let first_offset = FILE_HEAD as u64 + 8 + meta_len;
        Ok(Self {
            reader,
            shape: EventShape {
                footprints,
                ..EventShape::of(&meta)
            },
            restart: Some((0, meta.start_chunks())),
            meta,
            read_offset: first_offset,
            consumed: StreamPosition {
                byte_offset: first_offset,
                segment: 0,
                commit: 0,
            },
            seen_trailer: false,
            done: false,
            seek,
            verified: HashSet::new(),
            verifications: 0,
            marks: Vec::new(),
            first_offset,
            pending: VecDeque::new(),
            worker: None,
            stale: 0,
            bodies: Vec::new(),
            spent: Vec::new(),
        })
    }

    /// Repositions the reader at the kind byte of the segment `mark`
    /// describes and restarts decoding from the counters that segment
    /// starts with. Work read ahead is abandoned without waiting for
    /// it. The LZ77 history restarts too — sound because the sink drops
    /// its match window at every segment boundary.
    fn seek_to(&mut self, mark: &SegmentMark) -> Result<(), DecodeError> {
        let Some(seek) = self.seek else {
            return Err(DecodeError::Io(
                "log reader does not support seeking".to_string(),
            ));
        };
        seek(&mut self.reader, mark.byte_offset).map_err(|e| DecodeError::Io(e.to_string()))?;
        let abandoned = self
            .pending
            .drain(..)
            .filter(|p| matches!(p, Pending::Sent { .. }))
            .count();
        if abandoned > 0 {
            if let Some(w) = &self.worker {
                w.generation.fetch_add(1, Ordering::Relaxed);
            }
            self.stale += abandoned;
        }
        self.read_offset = mark.byte_offset;
        self.consumed.byte_offset = mark.byte_offset;
        self.consumed.commit = mark.start_gcc;
        self.restart = Some((mark.start_gcc, mark.start_chunks.clone()));
        self.seen_trailer = false;
        self.done = false;
        Ok(())
    }

    fn position(&self) -> StreamPosition {
        self.consumed
    }

    fn positioned(&self, error: DecodeError) -> PositionedDecodeError {
        PositionedDecodeError {
            error,
            position: self.consumed,
        }
    }

    /// Hands back a consumed segment, to be freed or refilled on the
    /// thread that allocated it.
    pub(crate) fn recycle(&mut self, seg: EventSegment) {
        self.spent.push(seg);
    }

    /// The next segment, its error, or the end of the stream.
    fn next(&mut self) -> Result<Segment, PositionedDecodeError> {
        if self.done {
            return Ok(Segment::End);
        }
        // Keep the worker one segment ahead of the one consumed now.
        while self.pending.len() < MAX_IN_FLIGHT && self.may_read_ahead() {
            let read = self.read_frame();
            self.pending.push_back(read);
        }
        match self.pending.pop_front() {
            Some(Pending::Sent { seg_start, end, .. }) => {
                self.consumed.byte_offset = end;
                match self.receive() {
                    Ok(d) => self.settle(seg_start, d),
                    Err(e) => Err(self.positioned(e)),
                }
            }
            Some(Pending::Failed { error, end }) => {
                self.consumed.byte_offset = end;
                Err(self.positioned(error))
            }
            Some(Pending::Eof) | None => {
                self.done = true;
                if self.seen_trailer {
                    Ok(Segment::End)
                } else if self.consumed.segment == 0 && self.consumed.commit == 0 {
                    // Valid header, then nothing: a header-only stream,
                    // not a mid-log truncation.
                    Err(self.positioned(DecodeError::HeaderOnly))
                } else {
                    Err(self.positioned(DecodeError::Truncated("missing trailer segment")))
                }
            }
        }
    }

    /// Whether the next frame can be read before the ones pending are
    /// consumed: only behind an event segment, which leaves the trailer
    /// flag as it is, and never past an end or a failed read.
    fn may_read_ahead(&self) -> bool {
        match self.pending.back() {
            None => true,
            Some(Pending::Sent { kind, .. }) => *kind == SEG_EVENTS,
            Some(Pending::Eof | Pending::Failed { .. }) => false,
        }
    }

    /// Reads one frame and hands its body to the decoder thread, or
    /// notes where and why reading it failed. The byte offsets follow
    /// the serial decoder's: a cut head or body leaves the offset where
    /// that field started.
    fn read_frame(&mut self) -> Pending {
        let seg_start = self.read_offset;
        let mut kind = [0u8; 1];
        match self.reader.read_exact(&mut kind) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Pending::Eof,
            Err(e) => return self.failed(DecodeError::Io(e.to_string())),
        }
        self.read_offset += 1;
        if self.seen_trailer {
            return self.failed(DecodeError::Truncated("data after trailer segment"));
        }
        let mut head = [0u8; SEGMENT_HEAD - 1];
        if let Err(e) = read_exact_or(&mut self.reader, &mut head, "segment header") {
            return self.failed(e);
        }
        self.read_offset += head.len() as u64;
        let body_len = u64::from_le_bytes(le_bytes(&head[0..8]));
        let checksum = u64::from_le_bytes(le_bytes(&head[8..16]));
        let spare = self.bodies.pop().unwrap_or_default();
        let body = match read_body(&mut self.reader, body_len, "segment body", spare) {
            Ok(body) => body,
            Err(e) => return self.failed(e),
        };
        self.read_offset += body.len() as u64;
        let job = DecodeJob {
            generation: 0,
            restart: None,
            kind: kind[0],
            checksum: (!self.verified.contains(&seg_start)).then_some(checksum),
            seg_start,
            body,
            spent: std::mem::take(&mut self.spent),
        };
        match self.submit(job) {
            Ok(()) => Pending::Sent {
                kind: kind[0],
                seg_start,
                end: self.read_offset,
            },
            Err(e) => self.failed(e),
        }
    }

    fn failed(&self, error: DecodeError) -> Pending {
        Pending::Failed {
            error,
            end: self.read_offset,
        }
    }

    /// Sends `job` to the decoder thread, starting it first if this is
    /// the first segment read.
    fn submit(&mut self, mut job: DecodeJob) -> Result<(), DecodeError> {
        let worker = match &mut self.worker {
            Some(w) => w,
            None => self.worker.insert(DecodeWorker::spawn(self.shape)?),
        };
        let jobs = worker.jobs.as_ref().ok_or_else(decoder_stopped)?;
        job.generation = worker.generation.load(Ordering::Relaxed);
        job.restart = self.restart.take();
        jobs.send(job).map_err(|mpsc::SendError(job)| {
            self.restart = job.restart;
            decoder_stopped()
        })
    }

    /// The decoder thread's result for the oldest job pending, after
    /// dropping those of abandoned jobs.
    fn receive(&mut self) -> Result<Decoded, DecodeError> {
        let Some(worker) = &self.worker else {
            return Err(decoder_stopped());
        };
        loop {
            let d = worker.done.recv().map_err(|_| decoder_stopped())?;
            if self.stale == 0 {
                return Ok(d);
            }
            self.stale -= 1;
            if self.bodies.len() < MAX_IN_FLIGHT {
                self.bodies.push(d.body);
            }
        }
    }

    /// Applies what the decoder thread found in the segment at
    /// `seg_start`, in the order the serial decoder made the changes.
    fn settle(&mut self, seg_start: u64, d: Decoded) -> Result<Segment, PositionedDecodeError> {
        if self.bodies.len() < MAX_IN_FLIGHT {
            self.bodies.push(d.body);
        }
        if d.verified {
            self.verifications += 1;
            self.verified.insert(seg_start);
        }
        if let Some(mark) = d.mark {
            if let Err(at) = self
                .marks
                .binary_search_by_key(&seg_start, |m| m.byte_offset)
            {
                self.marks.insert(at, mark);
            }
        }
        self.seen_trailer |= d.trailer;
        self.consumed.commit = d.gcc;
        match d.outcome {
            Ok(seg) => {
                if matches!(seg, Segment::Events(_)) {
                    self.consumed.segment += 1;
                }
                Ok(seg)
            }
            Err(e) => Err(self.positioned(e)),
        }
    }
}

/// Decodes one events-segment body: the declared commit and chunk
/// watermarks, then the events of its LZ77 block, decompressed through
/// `lz`, into `events` (cleared first, its allocation reused).
/// `counters` (per-processor chunk counters) and `gcc` advance past
/// every event decoded; checking them against the declared watermarks
/// is the caller's job. The decoder thread passes the one LZ77 decoder
/// it keeps for the whole stream, salvage a fresh one per segment.
pub(crate) fn decode_events(
    body: &[u8],
    shape: EventShape,
    lz: &mut delorean_compress::lz77::Decoder,
    counters: &mut [u64],
    gcc: &mut u64,
    mut events: Vec<LogEvent>,
) -> Result<EventSegment, DecodeError> {
    let mut r = Reader::new(body);
    let commits_end = r.u64("segment commit watermark")?;
    let marks = r.words(shape.n_procs as usize, "segment chunk watermark")?;
    let count = r.u32("segment event count")?;
    let raw = lz
        .decode_block(&body[r.pos..])
        .map_err(|_| DecodeError::Truncated("event block"))?;
    let mut er = Reader::new(&raw);
    events.clear();
    // Every event takes at least one byte of the block.
    events.reserve((count as usize).min(raw.len()));
    for _ in 0..count {
        events.push(decode_event(&mut er, shape, counters)?);
        *gcc += 1;
    }
    if !er.done() {
        return Err(DecodeError::Truncated("event block trailing bytes"));
    }
    Ok(EventSegment {
        events,
        commit_watermark: commits_end,
        chunk_watermarks: marks,
    })
}

/// A validated item yielded by [`SegmentWalker`].
#[derive(Debug)]
pub enum WalkedSegment {
    /// One event segment, fully decoded and checksum-verified.
    Events(EventSegment),
    /// The stream trailer.
    Trailer(Box<StreamTrailer>),
    /// End of stream (only reported after a trailer was seen).
    End,
}

/// A public, position-aware walk over the raw `.dlrn` segment
/// structure: every frame is checksum-verified and decoded, and all
/// failures carry the [`StreamPosition`] they were detected at. This
/// is the substrate the `delorean-analyze` log lint is built on; it
/// holds a few segments in memory at a time: the one returned and at
/// most two read ahead, decoding on a worker thread while the caller
/// checks the last.
pub struct SegmentWalker<R: Read> {
    dec: SegmentDecoder<R>,
}

impl<R: Read> std::fmt::Debug for SegmentWalker<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWalker")
            .field("position", &self.dec.position())
            .finish()
    }
}

impl<R: Read> SegmentWalker<R> {
    /// Opens a stream, validating the header and metadata eagerly.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the header is corrupt, from an
    /// incompatible version, or references an unknown workload.
    pub fn open(reader: R) -> Result<Self, DecodeError> {
        Ok(Self {
            dec: SegmentDecoder::open(reader)?,
        })
    }

    /// The stream metadata decoded from the header.
    pub fn meta(&self) -> &StreamMeta {
        &self.dec.meta
    }

    /// Current decode position.
    pub fn position(&self) -> StreamPosition {
        self.dec.position()
    }

    /// Decodes the next segment.
    ///
    /// # Errors
    ///
    /// Returns a [`PositionedDecodeError`] when the stream is
    /// truncated, corrupt, or structurally inconsistent at this
    /// segment.
    pub fn next_segment(&mut self) -> Result<WalkedSegment, PositionedDecodeError> {
        match self.dec.next()? {
            Segment::Events(seg) => Ok(WalkedSegment::Events(seg)),
            Segment::Trailer(t) => Ok(WalkedSegment::Trailer(t)),
            Segment::End => Ok(WalkedSegment::End),
        }
    }
}

/// Decodes a complete byte buffer into a [`Recording`]: the header's
/// metadata, every event in stream order and the trailer's statistics.
pub(crate) fn read_recording(bytes: &[u8]) -> Result<Recording, DecodeError> {
    let mut dec = SegmentDecoder::open(bytes)?;
    let mut events = Vec::new();
    let mut stats = None;
    loop {
        match dec.next().map_err(|e| e.error)? {
            Segment::Events(mut seg) => {
                events.append(&mut seg.events);
                dec.recycle(seg);
            }
            Segment::Trailer(trailer) => stats = Some(trailer.stats),
            Segment::End => break,
        }
    }
    Ok(Recording {
        meta: dec.meta,
        events,
        stats: stats.ok_or(DecodeError::Truncated("missing trailer segment"))?,
    })
}

/// A [`LogSource`] that decodes `.dlrn` segments from any reader as
/// the replay reaches them, on a worker thread at most two segments
/// ahead, holding only the not-yet-consumed slice of the log in memory
/// (consumed entries are evicted as commits are noted). Event
/// footprints are checked and skipped: the replay queues never read
/// them.
pub struct FileSource<R: Read> {
    dec: SegmentDecoder<R>,
    queues: ReplayQueues,
    chunks_seen: Vec<u64>,
    commits_seen: u64,
    /// Commit count the current replay window starts at. Events before
    /// it are decoded for their counter side effects but not enqueued —
    /// the prefix a checkpoint seek replays past without re-executing —
    /// and PicoLog DMA slots are recorded relative to it so an engine
    /// restarted mid-stream (whose own commit counter begins at zero)
    /// still matches them.
    window_start: u64,
    /// PicoLog round-robin cursor the current window resumes at, when
    /// the window starts mid-stream. `None` for slot-0 windows.
    phase: Option<u32>,
    trailer: Option<StreamTrailer>,
    eof: bool,
    error: Option<String>,
}

impl<R: Read> std::fmt::Debug for FileSource<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSource")
            .field("commits_seen", &self.commits_seen)
            .field("eof", &self.eof)
            .field("error", &self.error)
            .finish()
    }
}

impl<R: Read> FileSource<R> {
    /// Opens a stream, reading and validating the header eagerly.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the header is corrupt, from an
    /// incompatible version, or references an unknown workload.
    pub fn open(reader: R) -> Result<Self, DecodeError> {
        Self::from_decoder(SegmentDecoder::open_with(reader, None, false)?)
    }

    fn from_decoder(dec: SegmentDecoder<R>) -> Result<Self, DecodeError> {
        Ok(Self {
            queues: ReplayQueues::new(&dec.meta),
            chunks_seen: dec.meta.start_chunks(),
            dec,
            commits_seen: 0,
            window_start: 0,
            phase: None,
            trailer: None,
            eof: false,
            error: None,
        })
    }

    /// Number of checksum verifications actually performed this
    /// session. Re-reads of already-verified segments (after a seek)
    /// do not increase this count.
    pub fn checksums_verified(&self) -> u64 {
        self.dec.verifications
    }

    /// The last event segment this source has visited that starts at
    /// or before commit `gcc`: where a replay resuming at `gcc` decodes
    /// from.
    pub fn segment_at(&self, gcc: u64) -> Option<&SegmentMark> {
        self.dec.marks.iter().rev().find(|m| m.start_gcc <= gcc)
    }

    /// Repositions this source at a checkpoint: the decoder seeks to
    /// the checkpoint's segment, dropping what it read ahead, the
    /// restore state moves in as the stream's interval start, and events
    /// before the checkpoint commit are skipped (their counters still
    /// advance so watermark validation stays intact). Commit slots count
    /// from the checkpoint, where a replay restarted from it begins.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the underlying reader cannot
    /// seek or the repositioning I/O fails.
    pub fn seek_to(
        &mut self,
        entry: crate::checkpoint::CheckpointEntry,
    ) -> Result<(), DecodeError> {
        self.reposition(&entry)?;
        self.dec.meta.interval = Some(entry.state);
        Ok(())
    }

    /// [`FileSource::seek_to`] without installing the restore state: for
    /// a caller that hands the state to its replayer itself.
    pub(crate) fn reposition(
        &mut self,
        entry: &crate::checkpoint::CheckpointEntry,
    ) -> Result<(), DecodeError> {
        self.dec.seek_to(&entry.segment)?;
        self.queues.clear();
        self.commits_seen = entry.segment.start_gcc;
        self.chunks_seen = entry.segment.start_chunks.clone();
        self.queues.committed = entry.state.chunks_done.clone();
        self.window_start = entry.gcc;
        self.trailer = None;
        self.eof = false;
        self.error = None;
        self.phase = Some(entry.rr_cursor);
        Ok(())
    }

    /// Number of log entries currently buffered (a measure of the
    /// decoder's working set).
    pub fn buffered_entries(&self) -> usize {
        self.queues.len()
    }

    fn pump(&mut self) {
        if self.eof {
            return;
        }
        match self.dec.next() {
            Ok(Segment::Events(seg)) => {
                for ev in &seg.events {
                    if let Committer::Proc(p) = ev.committer {
                        self.chunks_seen[p as usize] = ev.chunk_index;
                    }
                    if self.commits_seen >= self.window_start {
                        let slot = self.commits_seen - self.window_start;
                        self.queues.push(ev, slot);
                    }
                    self.commits_seen += 1;
                }
                self.dec.recycle(seg);
            }
            Ok(Segment::Trailer(trailer)) => self.trailer = Some(*trailer),
            Ok(Segment::End) => self.eof = true,
            Err(e) => {
                self.error.get_or_insert_with(|| e.to_string());
                self.eof = true;
            }
        }
    }

    fn pump_until_chunk(&mut self, core: u32, index: u64) {
        while !self.eof && self.chunks_seen[core as usize] < index {
            self.pump();
        }
    }
}

impl<R: Read> LogSource for FileSource<R> {
    fn meta(&self) -> &StreamMeta {
        &self.dec.meta
    }

    fn pi_peek(&mut self) -> Option<Committer> {
        while !self.eof && self.queues.pi.is_empty() {
            self.pump();
        }
        self.queues.pi_peek()
    }

    fn forced_size(&mut self, core: u32, index: u64) -> Option<u32> {
        self.pump_until_chunk(core, index);
        self.queues.forced_size(core, index)
    }

    fn interrupt_at(&mut self, core: u32, index: u64) -> Option<(u16, Word)> {
        self.pump_until_chunk(core, index);
        self.queues.interrupt_at(core, index)
    }

    fn io_value(&mut self, core: u32, index: u64, seq: u32) -> Option<Word> {
        self.pump_until_chunk(core, index);
        self.queues.io_value(core, index, seq)
    }

    fn dma_slot_matches(&mut self, gcc: u64) -> bool {
        while !self.eof
            && self.queues.dma_slots.is_empty()
            && self.commits_seen.saturating_sub(self.window_start) <= gcc
        {
            self.pump();
        }
        self.queues.dma_slot_matches(gcc)
    }

    fn dma_next(&mut self) -> Option<Vec<(Addr, Word)>> {
        while !self.eof && self.queues.dma.is_empty() {
            self.pump();
        }
        self.queues.dma_next()
    }

    fn note_commit(&mut self, committer: Committer) {
        self.queues.note_commit(committer);
    }

    fn finish(&mut self) -> Result<StreamTrailer, String> {
        while !self.eof {
            self.pump();
        }
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.trailer
            .clone()
            .ok_or_else(|| "stream ended without a trailer segment".to_string())
    }

    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn resume_phase(&self) -> Option<u32> {
        self.phase
    }
}

impl<R: Read + Seek> FileSource<R> {
    /// Opens a seek-capable stream: identical to [`FileSource::open`],
    /// but the returned source additionally supports
    /// [`FileSource::seek_to`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the header is corrupt, from an
    /// incompatible version, or references an unknown workload.
    pub fn open_seekable(reader: R) -> Result<Self, DecodeError> {
        Self::from_decoder(SegmentDecoder::open_with(
            reader,
            Some(|r: &mut R, pos| r.seek(SeekFrom::Start(pos))),
            false,
        )?)
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_chunk::TruncationReason;

    fn shape(mode: Mode, n_procs: u32) -> EventShape {
        EventShape {
            mode,
            n_procs,
            footprints: true,
        }
    }

    fn proc_record(p: u32, index: u64) -> CommitRecord {
        CommitRecord {
            shard: None,
            committer: Committer::Proc(p),
            chunk_index: index,
            size: 500,
            truncation: TruncationReason::Overflow,
            global_slot: 0,
            interrupt: Some((1, 0xbeef)),
            io_values: vec![(2, 99)],
            dma_data: Vec::new(),
            access_lines: vec![3, 7],
            write_lines: vec![7],
        }
    }

    #[test]
    fn bridge_matches_recorder_semantics() {
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        let ev = bridge.convert(&proc_record(1, 1));
        assert_eq!(ev.cs_size, Some(500), "overflow truncations are logged");
        assert_eq!(ev.access_lines, vec![3, 7]);
        let mut det = proc_record(1, 2);
        det.truncation = TruncationReason::StandardSize;
        assert_eq!(bridge.convert(&det).cs_size, None);

        let mut pico = CommitBridge::new(Mode::PicoLog, 2);
        let ev = pico.convert(&proc_record(0, 1));
        assert!(ev.access_lines.is_empty(), "PicoLog carries no footprints");
        assert_eq!(pico.rr_cursor, 1, "round-robin cursor follows commits");
    }

    #[test]
    fn event_codec_round_trip() {
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 4);
        let events = vec![
            bridge.convert(&proc_record(2, 1)),
            bridge.convert(&CommitRecord {
                shard: None,
                committer: Committer::Dma,
                chunk_index: 0,
                size: 0,
                truncation: TruncationReason::StandardSize,
                global_slot: 2,
                interrupt: None,
                io_values: Vec::new(),
                dma_data: vec![(10, 20)],
                access_lines: vec![1],
                write_lines: vec![1],
            }),
        ];
        let mut w = Writer::new();
        for ev in &events {
            encode_event(ev, true, &mut w);
        }
        let mut counters = vec![0u64; 4];
        let mut r = Reader::new(&w.buf);
        let a = decode_event(&mut r, shape(Mode::OrderOnly, 4), &mut counters).unwrap();
        let b = decode_event(&mut r, shape(Mode::OrderOnly, 4), &mut counters).unwrap();
        assert!(r.done());
        assert_eq!(a, events[0]);
        assert_eq!(b, events[1]);
        assert_eq!(counters, vec![0, 0, 1, 0]);
    }

    #[test]
    fn meta_codec_round_trip() {
        let meta = test_meta(Mode::PicoLog, 3);
        let back = decode_meta(&encode_meta(&meta)).unwrap();
        assert_eq!(back.mode, Mode::PicoLog);
        assert_eq!(back.n_procs, 3);
        assert_eq!(back.workload.name, "lu");
        assert!(back.interval.is_none());
        assert_eq!(back.arbiter, ArbiterConfig::Global);
    }

    #[test]
    fn meta_topology_round_trips_and_stays_legacy_compatible() {
        // Global writes no topology block: its metadata must decode as
        // Global even through a legacy-shaped (topology-free) buffer.
        let global = test_meta(Mode::OrderOnly, 2);
        let global_bytes = encode_meta(&global);

        let mut sharded = test_meta(Mode::OrderOnly, 2);
        sharded.arbiter = ArbiterConfig::Sharded { shards: 4 };
        let sharded_bytes = encode_meta(&sharded);
        assert_eq!(
            sharded_bytes.len(),
            global_bytes.len() + 5,
            "sharded topology is exactly one tag byte plus the u32 count"
        );
        assert_eq!(
            &sharded_bytes[..global_bytes.len()],
            &global_bytes[..],
            "the topology block rides strictly at the tail"
        );
        let back = decode_meta(&sharded_bytes).unwrap();
        assert_eq!(back.arbiter, ArbiterConfig::Sharded { shards: 4 });
    }

    #[test]
    fn unknown_topology_tag_is_a_typed_error() {
        let mut meta = test_meta(Mode::OrderOnly, 2);
        meta.arbiter = ArbiterConfig::Sharded { shards: 4 };
        let mut bytes = encode_meta(&meta);
        let tag_at = bytes.len() - 5;
        bytes[tag_at] = 9;
        assert!(matches!(
            decode_meta(&bytes),
            Err(DecodeError::UnknownTopology(9))
        ));
    }

    #[test]
    fn shard_counts_are_bounded_on_decode() {
        let mut meta = test_meta(Mode::OrderOnly, 2);
        meta.arbiter = ArbiterConfig::Sharded { shards: 4 };
        let mut bytes = encode_meta(&meta);
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_meta(&bytes).is_err(), "zero shards must be rejected");
    }

    #[test]
    fn event_codec_round_trips_shard_stamps() {
        let ev = LogEvent {
            committer: Committer::Proc(1),
            chunk_index: 1,
            cs_size: Some(500),
            interrupt: None,
            io_values: Vec::new(),
            dma_data: Vec::new(),
            access_lines: vec![3],
            write_lines: vec![3],
            shard: Some(2),
        };
        let dma = LogEvent {
            committer: Committer::Dma,
            chunk_index: 0,
            cs_size: None,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: vec![(10, 20)],
            access_lines: vec![1],
            write_lines: vec![1],
            shard: Some(0),
        };
        let mut w = Writer::new();
        encode_event(&ev, true, &mut w);
        encode_event(&dma, true, &mut w);
        let mut counters = vec![0u64; 4];
        let mut r = Reader::new(&w.buf);
        let a = decode_event(&mut r, shape(Mode::OrderOnly, 4), &mut counters).unwrap();
        let b = decode_event(&mut r, shape(Mode::OrderOnly, 4), &mut counters).unwrap();
        assert!(r.done());
        assert_eq!(a, ev);
        assert_eq!(b, dma);
    }

    #[test]
    fn file_sink_round_trips_through_file_source_queries() {
        let mut sink = FileSink::new(Vec::new());
        let meta = test_meta(Mode::OrderOnly, 2);
        sink.begin(&meta);
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        sink.on_event(&bridge.convert(&proc_record(0, 1)));
        sink.on_event(&bridge.convert(&proc_record(1, 1)));
        let stats = RunStats {
            cycles: 10,
            total_commits: 2,
            squashes: 0,
            squashed_insts: 0,
            overflow_truncations: 2,
            collision_truncations: 0,
            uncached_truncations: 0,
            interrupts: 2,
            dma_commits: 0,
            stall_cycles: vec![0, 0],
            traffic_bytes: 0,
            avg_chunk_size: 500.0,
            parallel: ParallelStats::default(),
            token: None,
            work_units: 1,
            digest: StateDigest {
                mem_hash: 1,
                stream_hashes: vec![2, 3],
                retired: vec![500, 500],
                committed_chunks: vec![1, 1],
            },
        };
        sink.finish(&StreamTrailer { stats });
        let bytes = sink.into_inner().unwrap();

        let mut src = FileSource::open(&bytes[..]).unwrap();
        assert_eq!(src.mode(), Mode::OrderOnly);
        assert_eq!(src.pi_peek(), Some(Committer::Proc(0)));
        assert_eq!(src.forced_size(0, 1), Some(500));
        assert_eq!(src.interrupt_at(1, 1), Some((1, 0xbeef)));
        assert_eq!(src.io_value(0, 1, 0), Some(99));
        src.note_commit(Committer::Proc(0));
        assert_eq!(src.pi_peek(), Some(Committer::Proc(1)));
        src.note_commit(Committer::Proc(1));
        assert_eq!(src.pi_peek(), None);
        let trailer = src.finish().unwrap();
        assert_eq!(trailer.stats.digest.mem_hash, 1);
        assert_eq!(src.buffered_entries(), 0, "consumed entries are evicted");
    }

    #[test]
    fn file_sink_flushes_segments_incrementally() {
        let mut sink = FileSink::with_flush_every(Vec::new(), 2);
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let header_len = sink.bytes_written();
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        sink.on_event(&bridge.convert(&proc_record(0, 1)));
        assert_eq!(
            sink.bytes_written(),
            header_len,
            "below the flush threshold"
        );
        sink.on_event(&bridge.convert(&proc_record(1, 1)));
        assert!(
            sink.bytes_written() > header_len,
            "segment flushed at the threshold"
        );
        assert!(sink.peak_buffered_bytes() > 0);
    }

    /// The writer sees what it saw when segments were compressed in
    /// place: the header frame, then each segment's head and body as
    /// two writes, in stream order, then the trailer's. A torn write
    /// lands on the same byte only if the calls are the same.
    #[test]
    fn file_sink_writes_a_head_then_a_body_per_segment_in_order() {
        #[derive(Default)]
        struct WriteLog(Vec<Vec<u8>>);
        impl io::Write for WriteLog {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let meta = test_meta(Mode::OrderOnly, 2);
        let stats = RunStats {
            digest: StateDigest {
                mem_hash: 1,
                stream_hashes: vec![2, 3],
                retired: vec![500, 500],
                committed_chunks: vec![4, 3],
            },
            ..RunStats::default()
        };
        let mut logged = FileSink::with_flush_every(WriteLog::default(), 2);
        let mut plain = FileSink::with_flush_every(Vec::new(), 2);
        for sink in [&mut logged as &mut dyn LogSink, &mut plain] {
            sink.begin(&meta);
            let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
            for k in 0..7 {
                sink.on_event(&bridge.convert(&proc_record(k % 2, u64::from(k / 2 + 1))));
            }
            sink.finish(&StreamTrailer {
                stats: stats.clone(),
            });
        }
        let writes = logged.into_inner().unwrap().0;
        let bytes = plain.into_inner().unwrap();
        assert_eq!(writes.concat(), bytes);
        assert_eq!(writes[0], frame(MAGIC, VERSION, &encode_meta(&meta)));
        // Three full segments, the partial fourth, the trailer.
        let segments = &writes[1..];
        assert_eq!(segments.len(), 2 * 5);
        for (k, pair) in segments.chunks(2).enumerate() {
            let (head, body) = (&pair[0], &pair[1]);
            assert_eq!(head.len(), SEGMENT_HEAD, "segment {k}");
            let kind = if k < 4 { SEG_EVENTS } else { SEG_TRAILER };
            assert_eq!(
                *head,
                FramedSegment::new(kind, body.clone()).head,
                "segment {k}"
            );
        }
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let mut sink = FileSink::with_flush_every(Vec::new(), 1);
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        sink.on_event(&bridge.convert(&proc_record(0, 1)));
        // No finish(): the stream has an event segment but no trailer.
        let bytes = sink.abandon().unwrap();
        let mut src = FileSource::open(&bytes[..]).unwrap();
        assert_eq!(src.pi_peek(), Some(Committer::Proc(0)));
        let err = src.finish().unwrap_err();
        assert!(err.contains("trailer"), "{err}");
    }

    #[test]
    fn unfinished_sink_is_a_typed_error() {
        let mut sink = FileSink::new(Vec::new());
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        sink.on_event(&bridge.convert(&proc_record(0, 1)));
        let err = sink.into_inner().unwrap_err();
        assert!(matches!(err, SinkError::UnfinishedSink), "{err:?}");
        assert!(err.to_string().contains("finish"), "{err}");
    }

    #[test]
    fn dropped_sink_flushes_buffered_commits() {
        // A sink writing through a shared buffer so the bytes survive
        // the sink being dropped mid-stream.
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Rc::new(RefCell::new(Vec::new()));
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        let before;
        {
            // Large flush granularity: the event stays buffered in the
            // encoder until the drop.
            let mut sink = FileSink::with_flush_every(Shared(Rc::clone(&buf)), 1024);
            sink.begin(&test_meta(Mode::OrderOnly, 2));
            before = buf.borrow().len();
            sink.on_event(&bridge.convert(&proc_record(0, 1)));
            assert_eq!(buf.borrow().len(), before, "event still buffered");
        }
        assert!(
            buf.borrow().len() > before,
            "drop must flush the buffered commit"
        );
        // The flushed bytes decode: the event is there, only the
        // trailer is missing.
        let bytes = buf.borrow().clone();
        let mut src = FileSource::open(&bytes[..]).unwrap();
        assert_eq!(src.pi_peek(), Some(Committer::Proc(0)));
        assert!(src.finish().unwrap_err().contains("trailer"));
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        // Empty input.
        assert!(matches!(
            FileSource::open(&[][..]).unwrap_err(),
            DecodeError::Empty
        ));
        // Mid-magic truncation: fewer bytes than the magic number.
        let magic = MAGIC.to_le_bytes();
        assert!(matches!(
            FileSource::open(&magic[..2]).unwrap_err(),
            DecodeError::Truncated("file magic")
        ));
        // Magic intact but the fixed header cut short.
        let mut head = Vec::from(magic);
        head.extend_from_slice(&VERSION.to_le_bytes());
        assert!(matches!(
            FileSource::open(&head[..]).unwrap_err(),
            DecodeError::Truncated("file header")
        ));
        // Header-only: a valid header and metadata, then nothing.
        let mut sink = FileSink::new(Vec::new());
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let bytes = sink.abandon().unwrap();
        let mut src = FileSource::open(&bytes[..]).unwrap();
        let err = src.finish().unwrap_err();
        assert!(err.contains("header"), "{err}");
    }

    /// Events of `n` commits alternating between two processors,
    /// streamed with a segment every `every` commits and no trailer.
    fn unfinished_stream(n: u32, every: usize) -> Vec<u8> {
        let mut sink = FileSink::with_flush_every(Vec::new(), every);
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        for k in 0..n {
            sink.on_event(&bridge.convert(&proc_record(k % 2, u64::from(k / 2 + 1))));
        }
        sink.abandon().unwrap()
    }

    #[test]
    fn file_source_is_send() {
        fn send<T: Send>() {}
        send::<FileSource<&[u8]>>();
        send::<FileSource<io::Cursor<Vec<u8>>>>();
    }

    /// The decoder thread starts with the first segment read: opening a
    /// stream reads its header alone and starts none.
    #[test]
    fn opening_a_stream_starts_no_thread() {
        let bytes = unfinished_stream(6, 2);
        let mut src = FileSource::open(&bytes[..]).unwrap();
        assert!(src.dec.worker.is_none());
        assert_eq!(src.pi_peek(), Some(Committer::Proc(0)));
        assert!(src.dec.worker.is_some());
        assert!(SegmentDecoder::open(&bytes[..]).unwrap().worker.is_none());
    }

    /// A source dropped with segments in flight joins its decoder thread
    /// without decoding the rest of the stream.
    #[test]
    fn a_source_dropped_mid_stream_ends_promptly() {
        let bytes = unfinished_stream(4_000, 4);
        let mut src = FileSource::open(&bytes[..]).unwrap();
        assert_eq!(src.pi_peek(), Some(Committer::Proc(0)));
        let t = std::time::Instant::now();
        drop(src);
        assert!(
            t.elapsed() < std::time::Duration::from_secs(2),
            "drop took {:?}",
            t.elapsed()
        );
    }

    /// A reader that fails inside a segment body: the error surfaces,
    /// typed and positioned, when that segment is consumed, after every
    /// segment before it.
    #[test]
    fn a_reader_failing_mid_body_is_a_positioned_error() {
        struct Failing<'a> {
            bytes: &'a [u8],
            at: usize,
        }
        impl Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at == 0 {
                    return Err(io::Error::other("disk gone"));
                }
                let n = buf.len().min(self.at).min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes = &self.bytes[n..];
                self.at -= n;
                Ok(n)
            }
        }
        let bytes = unfinished_stream(8, 2);
        let frames = crate::recover::layout(&bytes).unwrap().segments;
        let body = frames[2].start + SEGMENT_HEAD;
        let failing = || Failing {
            bytes: &bytes,
            at: body + 3,
        };
        let want = PositionedDecodeError {
            error: DecodeError::Io("disk gone".to_string()),
            position: StreamPosition {
                byte_offset: body as u64,
                segment: 2,
                commit: 4,
            },
        };

        let mut walker = SegmentWalker::open(failing()).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                walker.next_segment(),
                Ok(WalkedSegment::Events(_))
            ));
        }
        let err = walker.next_segment().unwrap_err();
        assert_eq!(
            (err.error, err.position),
            (want.error.clone(), want.position)
        );
        assert_eq!(walker.position(), want.position);

        let mut src = FileSource::open(failing()).unwrap();
        assert_eq!(src.finish().unwrap_err(), want.to_string());
        assert_eq!(src.error(), Some(want.to_string().as_str()));
        assert_eq!(src.checksums_verified(), 2);
    }

    /// Seeks forward, back and forward again while the decoder holds
    /// segments read ahead: to a commit inside a segment, to one whose
    /// roll-forward crosses segments, to one on a segment boundary and
    /// to a checkpoint on a boundary. Each result equals a fresh walk's
    /// state and a fresh cursor's entry and mark, and re-reading
    /// segments verifies no checksum twice.
    #[test]
    fn seeks_back_and_forth_match_fresh_walks() {
        use crate::checkpoint::{index_stream, ReplayCursor};
        let m = crate::Machine::builder()
            .procs(4)
            .budget(8_000)
            .chunk_size(200)
            .build();
        let rec = m.record(workload::by_name("lu").unwrap(), 17);
        // Segments start at every multiple of 8 commits, checkpoints
        // at every multiple of 20: 22 rolls forward inside [16, 24), 37
        // crosses into [32, 40), 48 ends on a boundary and 40 restores
        // a checkpoint that starts a segment.
        let mut sink = FileSink::with_flush_every(Vec::new(), 8);
        copy_recording(&rec, &mut sink);
        let bytes = sink.into_inner().unwrap();
        let index = index_stream(&bytes, 20).unwrap();
        assert!(index.total_commits > 64, "{}", index.total_commits);
        let open = || ReplayCursor::open(io::Cursor::new(bytes.clone()), index.clone()).unwrap();
        // Every segment's true mark, from one walk over the stream.
        let mut walk = FileSource::open(&bytes[..]).unwrap();
        walk.finish().unwrap();
        let is_mark_of =
            |m: &SegmentMark, gcc: u64| m.start_gcc <= gcc && walk.dec.marks.contains(m);

        let mut cursor = open();
        let mut verified = None;
        for order in [[22, 37, 48, 40], [48, 40, 37, 22], [22, 37, 48, 40]] {
            for gcc in order {
                let entry = cursor.seek(gcc).unwrap();
                // A restore that rolls forward leaves a segment read
                // ahead, for the next seek to abandon.
                assert_eq!(cursor.source.dec.pending.is_empty(), gcc == 40, "at {gcc}");
                assert_eq!(
                    entry.state,
                    rec.checkpoint_at(gcc).unwrap().state,
                    "state at {gcc}"
                );
                let fresh = open().seek(gcc).unwrap();
                assert_eq!(
                    (entry.gcc, entry.rr_cursor, &entry.state),
                    (fresh.gcc, fresh.rr_cursor, &fresh.state),
                    "entry at {gcc}"
                );
                assert!(is_mark_of(&entry.segment, gcc), "entry mark at {gcc}");
                let mark = cursor.source.segment_at(gcc);
                assert!(
                    mark.is_some_and(|m| is_mark_of(m, gcc)),
                    "mark at {gcc}: {mark:?}"
                );
            }
            let n = cursor.source.checksums_verified();
            assert_eq!(
                *verified.get_or_insert(n),
                n,
                "a re-read segment verified again"
            );
        }
        let frames = crate::recover::layout(&bytes).unwrap().segments.len() as u64;
        assert!(verified.is_some_and(|n| n > 0 && n <= frames));
    }

    #[test]
    fn segments_decode_with_a_fresh_decoder() {
        // Compressing each block alone keeps every segment
        // independently decompressible: decode the *second* segment's
        // events with a decoder that never saw the first.
        let mut sink = FileSink::with_flush_every(Vec::new(), 1);
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        // Identical payloads so a window *spanning* segments would
        // reach back into the first block.
        sink.on_event(&bridge.convert(&proc_record(0, 1)));
        sink.on_event(&bridge.convert(&proc_record(0, 2)));
        let bytes = sink.abandon().unwrap();

        let frames = crate::recover::layout(&bytes).unwrap().segments;
        assert_eq!(frames.len(), 2);
        let body = &bytes[frames[1].start + SEGMENT_HEAD..frames[1].end];
        let mut counters = vec![1u64, 0];
        let seg = decode_events(
            body,
            shape(Mode::OrderOnly, 2),
            &mut delorean_compress::lz77::Decoder::new(),
            &mut counters,
            &mut 1,
            Vec::new(),
        )
        .expect("second segment must decode with empty history");
        assert_eq!(seg.events.len(), 1);
        assert_eq!(seg.events[0].committer, Committer::Proc(0));
        assert_eq!(seg.events[0].chunk_index, 2);
    }
}

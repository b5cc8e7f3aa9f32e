//! System checkpoints and seekable replay.
//!
//! The paper assumes an existing checkpointing substrate (ReVive or
//! SafetyNet) and explicitly does not focus on it: a recorded interval
//! starts at a system checkpoint, and replay restores that checkpoint
//! before consuming the logs. A whole-execution recording starts at
//! the canonical initial state of the run (zeroed memory, reset
//! register files, program entry points), identified by
//! [`Recording::checkpoint_id`](crate::Recording::checkpoint_id). A
//! mid-execution checkpoint is the full architectural state at a
//! chunk-commit boundary: an [`IntervalCheckpoint`] starts a new
//! recording interval, and the [`CheckpointEntry`]s of a `.dlrnx`
//! [`CheckpointIndex`] let a [`ReplayCursor`] seek inside a recording.

use crate::error::ReplayError;
use crate::inspect::{fitting, programs, ReplayInspector};
use crate::mode::Mode;
use crate::stream::{decode_start_state, encode_start_state, FileSource, LogSource, SegmentMark};
use crate::wire::{mode_from, mode_tag, Fnv, Reader, Writer, FILE_HEAD};
use delorean_chunk::StartState;
use delorean_isa::workload::WorkloadSpec;
use delorean_isa::Program;
use delorean_mem::Block;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

/// A *mid-execution* system checkpoint: the full architectural state at
/// a Global Commit Count, from which a new recording interval can start
/// (the paper's `I(n,m)` intervals over ReVive/SafetyNet checkpoints).
///
/// Captured with [`Recording::checkpoint_at`](crate::Recording::checkpoint_at)
/// and consumed by [`Machine::record_interval`](crate::Machine::record_interval).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalCheckpoint {
    /// The workload whose execution is checkpointed.
    pub workload: WorkloadSpec,
    /// Program-generation seed.
    pub app_seed: u64,
    /// Processors.
    pub n_procs: u32,
    /// Global Commit Count at the checkpoint.
    pub gcc: u64,
    /// Full architectural state (memory image, register files, chunk
    /// counts).
    pub state: StartState,
}

impl IntervalCheckpoint {
    /// Largest per-processor retired-instruction count at the
    /// checkpoint — the base for the follow-on interval's absolute
    /// budget.
    pub fn max_retired(&self) -> u64 {
        self.state
            .vm_states
            .iter()
            .map(|v| v.retired())
            .max()
            .unwrap_or(0)
    }

    /// Content-derived identifier (covers the memory image and the
    /// per-processor chunk counts).
    pub fn id(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.gcc);
        h.word(self.app_seed);
        h.word(u64::from(self.n_procs));
        for block in self.state.memory.blocks() {
            match block {
                Block::Words(words) => words.iter().for_each(|&w| h.word(w)),
                Block::Zero(n) => h.zero_words(n),
            }
        }
        for &c in &self.state.chunks_done {
            h.word(c);
        }
        h.value()
    }
}

/// Sidecar index magic: "DLRX".
pub(crate) const MAGIC_X: u32 = 0x444c_5258;
/// Sidecar index format version.
pub(crate) const VERSION_X: u16 = 1;

/// The full replay state at a chunk-commit boundary, and where in the
/// `.dlrn` stream a replay resumes from it: the one resumable snapshot
/// type, stored in a [`CheckpointIndex`] and produced by
/// [`ReplayCursor::seek`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Global commit count of the checkpoint (commits done).
    pub gcc: u64,
    /// PicoLog round-robin cursor the window resumes at (0 under PI
    /// modes).
    pub rr_cursor: u32,
    /// The last event segment starting at or before the checkpoint:
    /// a resumed replay decodes from there and skips the commits before
    /// `gcc`.
    pub segment: SegmentMark,
    /// Architectural state: memory image, register files, chunk counts.
    pub state: StartState,
}

/// Why a `.dlrnx` checkpoint index failed to load or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with the "DLRX" magic.
    BadMagic,
    /// The index is from an incompatible format version.
    BadVersion(u16),
    /// A frame checksum does not match its contents — the index was
    /// tampered with or corrupted.
    BadChecksum,
    /// The index ends mid-structure; the payload names what was being
    /// read.
    Truncated(&'static str),
    /// The index was built from a different recording than the one it
    /// is being used against.
    SourceMismatch(String),
    /// The index is structurally invalid.
    Malformed(String),
    /// The `.dlrn` log failed to decode or replay while an index was
    /// built over it or bound to it; the payload says where.
    Log(String),
    /// An I/O error from the underlying reader.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a .dlrnx checkpoint index (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported .dlrnx version {v}"),
            Self::BadChecksum => write!(f, "checkpoint index checksum mismatch"),
            Self::Truncated(what) => write!(f, "checkpoint index truncated at {what}"),
            Self::SourceMismatch(detail) => {
                write!(
                    f,
                    "checkpoint index does not match this recording: {detail}"
                )
            }
            Self::Malformed(detail) => write!(f, "malformed checkpoint index: {detail}"),
            Self::Log(detail) => write!(f, "log cannot be indexed: {detail}"),
            Self::Io(detail) => write!(f, "checkpoint index i/o error: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A schema-versioned, checksummed index of [`CheckpointEntry`]s over
/// one `.dlrn` recording — the `.dlrnx` sidecar.
///
/// The index is fingerprinted against the exact bytes of its source
/// stream; loading it against any other recording is a typed
/// [`CheckpointError::SourceMismatch`], never a silent fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointIndex {
    /// Length in bytes of the source `.dlrn` stream.
    pub source_len: u64,
    /// FNV-1a fingerprint of the entire source stream.
    pub source_fnv: u64,
    /// Recording mode of the source.
    pub mode: Mode,
    /// Processors in the recorded machine.
    pub n_procs: u32,
    /// Commit interval the index was built with.
    pub interval_k: u64,
    /// Total commits in the source recording.
    pub total_commits: u64,
    /// Checkpoints, sorted by ascending commit count.
    pub entries: Vec<CheckpointEntry>,
}

impl CheckpointIndex {
    /// The last checkpoint at or before `gcc`, if any.
    pub fn nearest_at_or_before(&self, gcc: u64) -> Option<&CheckpointEntry> {
        self.entries.iter().rev().find(|e| e.gcc <= gcc)
    }

    /// Validates this index against the bytes of a candidate source
    /// recording.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SourceMismatch`] when the stream is
    /// not the one the index was built over (see [`ReplayCursor::open`]).
    pub fn validate_against(&self, source: &[u8]) -> Result<(), CheckpointError> {
        self.bind(std::io::Cursor::new(source)).map(drop)
    }

    /// Opens `reader` for seeking once it is shown to hold the stream
    /// this index was built over: the same length and fingerprint (one
    /// full sequential read, then a rewind), then the same mode and
    /// processor count in its header.
    fn bind<R: Read + Seek>(&self, mut reader: R) -> Result<FileSource<R>, CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
        reader.seek(SeekFrom::Start(0)).map_err(io)?;
        let mut f = Fnv::default();
        let mut len = 0u64;
        let mut buf = [0u8; 8192];
        loop {
            let n = reader.read(&mut buf).map_err(io)?;
            if n == 0 {
                break;
            }
            f.update(&buf[..n]);
            len += n as u64;
        }
        if len != self.source_len {
            return Err(CheckpointError::SourceMismatch(format!(
                "stream is {len} bytes, index was built over {}",
                self.source_len
            )));
        }
        if f.value() != self.source_fnv {
            return Err(CheckpointError::SourceMismatch(
                "stream fingerprint differs".to_string(),
            ));
        }
        reader.seek(SeekFrom::Start(0)).map_err(io)?;
        let source =
            FileSource::open_seekable(reader).map_err(|e| CheckpointError::Log(e.to_string()))?;
        if source.mode() != self.mode || source.n_procs() != self.n_procs {
            return Err(CheckpointError::SourceMismatch(format!(
                "stream was recorded in {} mode on {} processors, index describes {} mode on {}",
                source.mode(),
                source.n_procs(),
                self.mode,
                self.n_procs
            )));
        }
        Ok(source)
    }

    /// Serializes the index into the framed, checksummed `.dlrnx`
    /// format.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Memory images dominate; the rest of an entry takes well under
        // 400 bytes per processor.
        let cap: usize = self
            .entries
            .iter()
            .map(|e| 64 + 8 * e.state.memory.len() as usize + 400 * e.state.vm_states.len())
            .sum();
        let mut w = Writer {
            buf: Vec::with_capacity(FILE_HEAD + 8 + 64 + cap),
        };
        w.u32(MAGIC_X);
        w.u16(VERSION_X);
        // The frame checksum and body length, patched in below.
        w.u64(0);
        w.u64(0);
        w.u64(self.source_len);
        w.u64(self.source_fnv);
        w.u8(mode_tag(self.mode));
        w.u32(self.n_procs);
        w.u64(self.interval_k);
        w.u64(self.total_commits);
        w.u64(self.entries.len() as u64);
        // Where each entry's `checksum u64 | len u64` head sits.
        let mut heads = Vec::with_capacity(self.entries.len() + 1);
        for e in &self.entries {
            let head = w.buf.len();
            heads.push(head);
            w.u64(0);
            w.u64(0);
            w.u64(e.gcc);
            w.u32(e.rr_cursor);
            w.u64(e.segment.byte_offset);
            w.u64(e.segment.start_gcc);
            for &c in &e.segment.start_chunks {
                w.u64(c);
            }
            encode_start_state(&mut w, &e.state);
            let len = (w.buf.len() - head - 16) as u64;
            w.buf[head + 8..head + 16].copy_from_slice(&len.to_le_bytes());
        }
        let mut buf = w.buf;
        let body_len = (buf.len() - FILE_HEAD - 8) as u64;
        buf[FILE_HEAD..FILE_HEAD + 8].copy_from_slice(&body_len.to_le_bytes());

        // Both checksums in one pass: while the frame hash folds in entry
        // k, whose checksum is already patched in, entry k + 1 hashes
        // beside it.
        heads.push(buf.len());
        let mut frame = Fnv::default();
        let mut from = FILE_HEAD;
        for span in heads.windows(2) {
            let (head, end) = (span[0], span[1]);
            let mut entry = Fnv::default();
            frame.update_pair(&buf[from..head], &mut entry, &buf[head + 16..end]);
            buf[head..head + 8].copy_from_slice(&entry.value().to_le_bytes());
            from = head;
        }
        frame.update(&buf[from..]);
        // The frame checksum is the last field of the file head.
        buf[FILE_HEAD - 8..FILE_HEAD].copy_from_slice(&frame.value().to_le_bytes());
        buf
    }

    /// Parses and integrity-checks a `.dlrnx` index.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for bad magic, version,
    /// checksum, truncation, or structural inconsistencies — among them
    /// a processor count outside `1..=`[`MAX_PROCS`](crate::MAX_PROCS)
    /// and a memory image of the wrong size for the machine. Tampered
    /// bytes never yield a usable index.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        let magic = r
            .u32("magic")
            .map_err(|_| CheckpointError::Truncated("magic"))?;
        if magic != MAGIC_X {
            return Err(CheckpointError::BadMagic);
        }
        let version = r
            .u16("version")
            .map_err(|_| CheckpointError::Truncated("version"))?;
        if version != VERSION_X {
            return Err(CheckpointError::BadVersion(version));
        }
        let checksum = r
            .u64("checksum")
            .map_err(|_| CheckpointError::Truncated("checksum"))?;
        let body = r
            .bytes("index body")
            .map_err(|_| CheckpointError::Truncated("index body"))?;
        if !r.done() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after index body".to_string(),
            ));
        }
        // The frame checksum folds in the body as it is parsed. A parse
        // error counts only if the frame holds; otherwise the damage is
        // reported as `BadChecksum`, as if the frame were checked first.
        let mut frame = Fnv::default();
        frame.update(&(body.len() as u64).to_le_bytes());
        let mut folded = 0;
        let parsed = Self::parse_body(body, &mut frame, &mut folded);
        frame.update(&body[folded..]);
        if frame.value() != checksum {
            return Err(CheckpointError::BadChecksum);
        }
        parsed
    }

    /// Parses a `.dlrnx` body, checking each entry's checksum before it
    /// parses the entry. Every body byte below `folded` has been folded
    /// into `frame`, each entry in the same pass as its own checksum.
    fn parse_body(
        body: &[u8],
        frame: &mut Fnv,
        folded: &mut usize,
    ) -> Result<Self, CheckpointError> {
        let mut b = Reader::new(body);
        let trunc = |_| CheckpointError::Truncated("index field");
        let source_len = b.u64("source length").map_err(trunc)?;
        let source_fnv = b.u64("source fingerprint").map_err(trunc)?;
        let mode = mode_from(b.u8("mode").map_err(trunc)?)
            .map_err(|_| CheckpointError::Malformed("unknown mode tag".to_string()))?;
        let n_procs = b.u32("processor count").map_err(trunc)?;
        if delorean_sim::validate_procs(n_procs).is_err() {
            return Err(CheckpointError::Malformed(format!(
                "processor count {n_procs} is outside 1..={}",
                delorean_sim::MAX_PROCS
            )));
        }
        let interval_k = b.u64("checkpoint interval").map_err(trunc)?;
        let total_commits = b.u64("total commits").map_err(trunc)?;
        let n_entries = b.u64("entry count").map_err(trunc)?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let entry_fnv = b.u64("entry checksum").map_err(trunc)?;
            let eb = b
                .bytes("entry body")
                .map_err(|_| CheckpointError::Truncated("entry body"))?;
            let mut entry = Fnv::default();
            frame.update(&body[*folded..b.pos - eb.len()]);
            frame.update_pair(eb, &mut entry, eb);
            *folded = b.pos;
            if entry.value() != entry_fnv {
                return Err(CheckpointError::BadChecksum);
            }
            let mut er = Reader::new(eb);
            let gcc = er.u64("entry commit").map_err(trunc)?;
            let rr_cursor = er.u32("entry phase").map_err(trunc)?;
            let byte_offset = er.u64("entry segment offset").map_err(trunc)?;
            let start_gcc = er.u64("entry segment commit").map_err(trunc)?;
            let mut start_chunks = Vec::with_capacity(n_procs as usize);
            for _ in 0..n_procs {
                start_chunks.push(er.u64("entry segment chunks").map_err(trunc)?);
            }
            let state = decode_start_state(&mut er, n_procs)
                .map_err(|e| CheckpointError::Malformed(format!("entry state: {e}")))?;
            if !er.done() {
                return Err(CheckpointError::Malformed(
                    "trailing bytes after entry state".to_string(),
                ));
            }
            entries.push(CheckpointEntry {
                gcc,
                rr_cursor,
                segment: SegmentMark {
                    byte_offset,
                    start_gcc,
                    start_chunks,
                },
                state,
            });
        }
        if !b.done() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after entries".to_string(),
            ));
        }
        if entries.windows(2).any(|w| w[0].gcc >= w[1].gcc) {
            return Err(CheckpointError::Malformed(
                "entries are not strictly ascending by commit".to_string(),
            ));
        }
        Ok(Self {
            source_len,
            source_fnv,
            mode,
            n_procs,
            interval_k,
            total_commits,
            entries,
        })
    }
}

/// Builds a [`CheckpointIndex`] over a complete `.dlrn` byte stream by
/// running one software indexing replay, snapshotting at commit 0 and
/// at every multiple of `interval_k`.
///
/// # Errors
///
/// Returns [`CheckpointError::Log`] when the stream itself is corrupt
/// or its replay fails — an index is only ever built over a stream that
/// replays cleanly end to end — and [`CheckpointError::Malformed`] when
/// `interval_k` is 0.
pub fn index_stream(bytes: &[u8], interval_k: u64) -> Result<CheckpointIndex, CheckpointError> {
    if interval_k == 0 {
        return Err(CheckpointError::Malformed(
            "checkpoint interval must be at least 1 commit".to_string(),
        ));
    }
    let mut src = FileSource::open(bytes).map_err(|e| CheckpointError::Log(e.to_string()))?;
    let (mode, n_procs) = (src.mode(), src.n_procs());
    // (commit, PicoLog phase, state) at each checkpoint.
    let mut snaps = Vec::new();
    {
        let mut ins =
            ReplayInspector::from_source(&mut src).map_err(|e| CheckpointError::Log(e.detail))?;
        snaps.push((0, ins.rr_phase(), ins.capture()));
        while let Some(ev) = ins.step().map_err(|e| CheckpointError::Log(e.detail))? {
            if ev.gcc % interval_k == 0 {
                snaps.push((ev.gcc, ins.rr_phase(), ins.capture()));
            }
        }
    }
    let trailer = src.finish().map_err(CheckpointError::Log)?;
    // Segments are looked up only once the whole stream is decoded, so
    // a checkpoint at a segment boundary names the segment starting there.
    let entries = snaps
        .into_iter()
        .filter_map(|(gcc, rr_cursor, state)| {
            Some(CheckpointEntry {
                gcc,
                rr_cursor,
                segment: src.segment_at(gcc)?.clone(),
                state,
            })
        })
        .collect();
    Ok(CheckpointIndex {
        source_len: bytes.len() as u64,
        source_fnv: Fnv::of(bytes),
        mode,
        n_procs,
        interval_k,
        total_commits: trailer.stats.total_commits,
        entries,
    })
}

/// A seekable position in a `.dlrn` stream, backed by a
/// [`CheckpointIndex`]: the cursor owns one long-lived seek-capable
/// [`FileSource`] so segment checksums verified once are never
/// re-verified when later windows re-read them, and it keeps the
/// checkpoint its last seek reached, so a later seek forward starts
/// there rather than at an earlier indexed checkpoint.
pub struct ReplayCursor<R: Read + Seek> {
    pub(crate) source: FileSource<R>,
    pub(crate) index: CheckpointIndex,
    /// The recorded workload's programs, generated once at open and
    /// shared by every seek's inspector.
    pub(crate) programs: Arc<[Program]>,
    /// The entry the last successful seek returned. Its image shares
    /// its blocks with the returned entry's.
    last: Option<CheckpointEntry>,
}

impl<R: Read + Seek> std::fmt::Debug for ReplayCursor<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayCursor")
            .field("entries", &self.index.entries.len())
            .field("total_commits", &self.index.total_commits)
            .finish()
    }
}

impl<R: Read + Seek> ReplayCursor<R> {
    /// Opens a cursor over `reader`, verifying the stream against the
    /// index first.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SourceMismatch`] when the stream is
    /// not the recording the index was built over — a different length,
    /// fingerprint, mode or processor count — and I/O or decode
    /// failures as their typed variants.
    pub fn open(reader: R, index: CheckpointIndex) -> Result<Self, CheckpointError> {
        let source = index.bind(reader)?;
        let programs = programs(source.meta());
        Ok(Self {
            source,
            index,
            programs,
            last: None,
        })
    }

    /// The checkpoint index backing this cursor.
    pub fn index(&self) -> &CheckpointIndex {
        &self.index
    }

    /// The checkpoint at commit `gcc`: restores the later of the
    /// nearest indexed checkpoint at or before it and the entry the
    /// cursor's last seek returned, when that lies at or before `gcc`
    /// too (on a tie the index's), and rolls the stream forward to
    /// `gcc` on the software inspector. A failed seek leaves the kept
    /// entry as it was.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Diverged`] when the recording ends before
    /// `gcc` or its logs are inconsistent, and [`ReplayError::Source`]
    /// when the index holds no checkpoint at or before `gcc` or the
    /// stream cannot be repositioned.
    pub fn seek(&mut self, gcc: u64) -> Result<CheckpointEntry, ReplayError> {
        let indexed = self.index.nearest_at_or_before(gcc);
        let entry = match &self.last {
            Some(last) if last.gcc <= gcc && indexed.is_none_or(|e| e.gcc < last.gcc) => last,
            _ => indexed.ok_or_else(|| ReplayError::Source {
                detail: format!("checkpoint index holds no checkpoint at or before commit {gcc}"),
            })?,
        };
        // The entry's image is copied once, into the inspector's memory,
        // after its shape is checked.
        let start = fitting(&entry.state, self.source.n_procs())?;
        self.source
            .reposition(entry)
            .map_err(|e| ReplayError::Source {
                detail: e.to_string(),
            })?;
        let (from, mark) = (entry.gcc, entry.segment.clone());
        let programs = Arc::clone(&self.programs);
        let mut ins = ReplayInspector::with_start(&mut self.source, start, programs);
        while ins.step_to(from, gcc)?.is_some() {}
        // The roll-forward held: the kept entry goes before the new
        // image is captured, so the cursor never holds both.
        self.last = None;
        let (rr_cursor, state) = (ins.rr_phase(), ins.capture());
        // A restore that stepped no commit may have decoded no segment.
        let segment = self.source.segment_at(gcc).cloned().unwrap_or(mark);
        let entry = CheckpointEntry {
            gcc,
            rr_cursor,
            segment,
            state,
        };
        self.last = Some(entry.clone());
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{Machine, Mode};
    use delorean_isa::workload;
    use delorean_mem::{MemoryImage, BLOCK_WORDS};
    use std::io::Cursor;

    #[test]
    fn ids_distinguish_runs() {
        let id = |app: &str, procs: u32, seed: u64| {
            let m = Machine::builder().procs(procs).budget(500).build();
            m.record(workload::by_name(app).unwrap(), seed)
                .checkpoint_id()
        };
        let a = id("fft", 4, 7);
        assert_eq!(a, id("fft", 4, 7));
        assert_ne!(a, id("lu", 4, 7));
        assert_ne!(a, id("fft", 8, 7));
        assert_ne!(a, id("fft", 4, 8));
    }

    /// A checkpoint's id is FNV-1a over its words one by one: commit,
    /// seed, processor count, every memory word, every chunk counter.
    /// At commit 0 every block is zero, the machine's 4-word last block
    /// included; mid-run some are not.
    #[test]
    fn ids_fold_every_memory_word() {
        let m = machine(Mode::OrderOnly, 8);
        let rec = m.record(workload::by_name("fft").unwrap(), 17);
        for gcc in [0, rec.stats.total_commits / 2] {
            let ck = rec.checkpoint_at(gcc).unwrap();
            let words = ck.state.memory.to_words();
            assert_eq!(words.len() % BLOCK_WORDS, 4);
            let want = [ck.gcc, ck.app_seed, u64::from(ck.n_procs)]
                .into_iter()
                .chain(words)
                .chain(ck.state.chunks_done.iter().copied())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(ck.id(), want, "checkpoint at {gcc}");
        }
    }

    /// A decoded 8-processor fft `.dlrnx` stores only the blocks of its
    /// images that hold a non-zero word, and each decoded image equals
    /// the one captured during indexing and the one built from its words.
    #[test]
    fn decoded_images_store_only_their_non_zero_blocks() {
        let bytes = stream_bytes(&machine(Mode::OrderOnly, 8), "fft");
        let captured = index_stream(&bytes, 8).unwrap();
        let decoded = CheckpointIndex::from_bytes(&captured.to_bytes()).unwrap();
        let (mut stored, mut blocks) = (0, 0);
        for (d, c) in decoded.entries.iter().zip(&captured.entries) {
            let image = &d.state.memory;
            let words = image.to_words();
            let non_zero = words
                .chunks(BLOCK_WORDS)
                .filter(|b| b.iter().any(|&w| w != 0))
                .count();
            assert_eq!(image.stored_blocks(), non_zero, "checkpoint at {}", d.gcc);
            assert_eq!(*image, c.state.memory);
            assert_eq!(*image, MemoryImage::from_words(&words));
            stored += non_zero;
            blocks += words.len().div_ceil(BLOCK_WORDS);
        }
        assert!(decoded.entries.len() > 2);
        assert!(stored * 2 < blocks, "{stored} of {blocks} blocks stored");
    }

    fn machine(mode: Mode, procs: u32) -> Machine {
        Machine::builder()
            .mode(mode)
            .procs(procs)
            .budget(8_000)
            .build()
    }

    fn stream_bytes(m: &Machine, app: &str) -> Vec<u8> {
        let rec = m.record(workload::by_name(app).unwrap(), 17);
        crate::serialize::to_bytes(&rec)
    }

    #[test]
    fn index_round_trips_through_dlrnx_bytes() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 64).unwrap();
        assert!(!index.entries.is_empty());
        assert_eq!(index.entries[0].gcc, 0, "commit 0 is always indexed");
        let encoded = index.to_bytes();
        let decoded = CheckpointIndex::from_bytes(&encoded).unwrap();
        assert_eq!(decoded, index);
        index.validate_against(&bytes).unwrap();
    }

    #[test]
    fn tampered_index_is_a_typed_error_never_a_fallback() {
        let m = machine(Mode::OrderOnly, 2);
        let bytes = stream_bytes(&m, "fft");
        let index = index_stream(&bytes, 32).unwrap();
        let mut encoded = index.to_bytes();

        // Flip one byte deep inside an entry: frame checksum trips.
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x40;
        assert!(matches!(
            CheckpointIndex::from_bytes(&encoded),
            Err(CheckpointError::BadChecksum)
        ));

        // Wrong magic and version are their own variants.
        assert!(matches!(
            CheckpointIndex::from_bytes(b"nope"),
            Err(CheckpointError::BadMagic)
        ));

        // An index built over a different recording is refused at
        // cursor open, with a typed mismatch.
        let other = stream_bytes(&m, "lu");
        assert!(matches!(
            index.validate_against(&other),
            Err(CheckpointError::SourceMismatch(_))
        ));
        assert!(matches!(
            ReplayCursor::open(Cursor::new(other), index),
            Err(CheckpointError::SourceMismatch(_))
        ));
    }

    #[test]
    fn window_replay_matches_full_replay_all_modes() {
        for (mode, app) in [
            (Mode::OrderOnly, "barnes"),
            (Mode::OrderSize, "radix"),
            (Mode::PicoLog, "fft"),
        ] {
            let m = machine(mode, 4);
            let bytes = stream_bytes(&m, app);
            let full = m
                .replay_from(crate::FileSource::open(&bytes[..]).unwrap())
                .unwrap();
            let index = index_stream(&bytes, 50).unwrap();
            let total = index.total_commits;
            let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
            for from in [0, 1, total / 2, total.saturating_sub(1), total] {
                let win = m.replay_window(&mut cursor, from, None).unwrap();
                assert_eq!(
                    win.stats.digest, full.stats.digest,
                    "{mode} window from {from} digest differs"
                );
                assert_eq!(
                    win.deterministic, full.deterministic,
                    "{mode} window from {from} verdict differs"
                );
            }
        }
    }

    #[test]
    fn bounded_window_digest_matches_checkpoint_state() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 40).unwrap();
        let total = total_of(&index);
        let probe = index.entries.iter().map(|e| e.gcc).collect::<Vec<_>>();
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        for gcc in probe {
            // Stop a window exactly at an indexed commit: the report
            // must be deterministic (state matches the index).
            let win = m.replay_window(&mut cursor, 0, Some(gcc)).unwrap();
            assert!(win.deterministic, "window [0, {gcc}): {:?}", win.divergence);
        }
        assert!(m.replay_window(&mut cursor, 3, Some(2)).is_err());
        assert!(m.replay_window(&mut cursor, total + 1, None).is_err());
    }

    fn total_of(index: &CheckpointIndex) -> u64 {
        index.total_commits
    }

    #[test]
    fn state_at_matches_slot_zero_checkpoint() {
        let m = machine(Mode::PicoLog, 4);
        let app = workload::by_name("fft").unwrap();
        let rec = m.record(app, 17);
        let bytes = crate::serialize::to_bytes(&rec);
        let index = index_stream(&bytes, 30).unwrap();
        let total = index.total_commits;
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        for gcc in [1, total / 3, total / 2 + 1, total] {
            let fast = m.state_at(&mut cursor, gcc).unwrap();
            let slow = rec.checkpoint_at(gcc).unwrap();
            assert_eq!(fast.state, slow.state, "state at {gcc} differs");
            assert_eq!(fast.gcc, slow.gcc);
        }
        assert!(m.state_at(&mut cursor, total + 1).is_err());
        assert!(matches!(
            machine(Mode::OrderOnly, 4).state_at(&mut cursor, 1),
            Err(ReplayError::ModeMismatch { .. })
        ));
        assert!(matches!(
            machine(Mode::PicoLog, 2).state_at(&mut cursor, 1),
            Err(ReplayError::MachineMismatch { .. })
        ));
    }

    #[test]
    fn cursor_reuses_verified_segment_checksums() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 25).unwrap();
        let total = index.total_commits;
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        m.replay_window(&mut cursor, 0, None).unwrap();
        let after_first = cursor.source.checksums_verified();
        m.replay_window(&mut cursor, total / 2, None).unwrap();
        m.replay_window(&mut cursor, 0, None).unwrap();
        let after_rereads = cursor.source.checksums_verified();
        assert_eq!(
            after_first, after_rereads,
            "re-reading seeked windows must not re-verify checksums"
        );
    }

    /// Sessions of seeks ascending, descending and repeated, then
    /// interleaved with bounded and run-to-end windows, over logs of
    /// eight-segment frames: OrderOnly on a 4-shard arbiter, OrderSize,
    /// and PicoLog with interrupts and DMA, where the resume phase and
    /// the DMA slots counted from a window start matter. Every entry
    /// equals a fresh cursor's and a roll-forward from commit 0, every
    /// window a fresh cursor's, and no segment checksum is verified
    /// twice. A failed seek keeps the entry the last one reached.
    #[test]
    fn seek_sessions_match_fresh_cursors() {
        let devices = delorean_chunk::DeviceConfig {
            irq_period: 6_000,
            dma_period: 9_000,
            dma_words: 16,
        };
        let sharded = crate::ArbiterConfig::Sharded { shards: 4 };
        for (mode, app, procs) in [
            (Mode::OrderOnly, "fft", 8),
            (Mode::OrderSize, "radix", 4),
            (Mode::PicoLog, "sweb2005", 4),
        ] {
            let mut b = Machine::builder();
            b.mode(mode).procs(procs).budget(12_000).chunk_size(200);
            if mode == Mode::OrderOnly {
                b.arbiter(sharded);
            } else {
                b.devices(devices);
            }
            let m = b.build();
            let rec = m.record(workload::by_name(app).unwrap(), 17);
            if mode == Mode::PicoLog {
                assert!(rec.stats.interrupts > 0 && rec.stats.dma_commits > 0);
            }
            let mut sink = crate::FileSink::with_flush_every(Vec::new(), 8);
            crate::stream::copy_recording(&rec, &mut sink);
            let bytes = sink.into_inner().unwrap();
            let index = index_stream(&bytes, 25).unwrap();
            let total = index.total_commits;
            let open = || ReplayCursor::open(Cursor::new(bytes.clone()), index.clone()).unwrap();
            let full = m
                .replay_from(crate::FileSource::open(&bytes[..]).unwrap())
                .unwrap();
            assert!(full.deterministic, "{mode}: {:?}", full.divergence);

            // Between and on checkpoints, on segment boundaries and at
            // both ends.
            let mut points = vec![0, 3, 24, 25, 26, 40, total / 2, total - 1, total];
            points.sort_unstable();
            points.dedup();
            let descending: Vec<u64> = points.iter().rev().copied().collect();
            let repeated: Vec<u64> = points.iter().flat_map(|&g| [g, g]).collect();
            let mut cursor = open();
            let check = |cursor: &mut ReplayCursor<Cursor<Vec<u8>>>, gcc: u64| {
                let entry = cursor.seek(gcc).unwrap();
                let fresh = open().seek(gcc).unwrap();
                assert_eq!(
                    (entry.gcc, entry.rr_cursor, &entry.state),
                    (fresh.gcc, fresh.rr_cursor, &fresh.state),
                    "{mode}: entry at {gcc}"
                );
                assert_eq!(
                    entry.state,
                    rec.checkpoint_at(gcc).unwrap().state,
                    "{mode}: state at {gcc}"
                );
                assert!(entry.segment.start_gcc <= gcc, "{mode}: mark at {gcc}");
                assert_eq!(cursor.last.as_ref(), Some(&entry), "{mode}: kept at {gcc}");
            };
            for &gcc in points.iter().chain(&descending).chain(&repeated) {
                check(&mut cursor, gcc);
            }
            for &from in &points {
                check(&mut cursor, from);
                let to = (from + 7).min(total);
                let win = m.replay_window(&mut cursor, from, Some(to)).unwrap();
                let fresh = m.replay_window(&mut open(), from, Some(to)).unwrap();
                assert_eq!(
                    (win.stats.total_commits, &win.stats.digest, &win.divergence),
                    (
                        fresh.stats.total_commits,
                        &fresh.stats.digest,
                        &fresh.divergence
                    ),
                    "{mode}: window [{from}, {to})"
                );
                assert!(win.deterministic, "{mode}: window [{from}, {to})");
                check(&mut cursor, to);
                let win = m.replay_window(&mut cursor, from, None).unwrap();
                assert_eq!(win.stats.digest, full.stats.digest, "{mode}: from {from}");
                assert!(win.deterministic, "{mode}: from {from}");
            }
            check(&mut cursor, total / 2);
            assert!(cursor.seek(total + 1).is_err());
            assert_eq!(cursor.last.as_ref().map(|e| e.gcc), Some(total / 2));
            check(&mut cursor, total / 2 + 1);

            let frames = crate::recover::layout(&bytes).unwrap().segments.len() as u64;
            let verified = cursor.source.checksums_verified();
            assert!(frames > 8, "{mode}: {frames} frames");
            assert!(
                verified > 0 && verified <= frames,
                "{mode}: {verified} of {frames}"
            );
        }
    }

    // The `.dlrnx` checksums catch accidents, not forgery: the three
    // indexes below are re-encoded with valid checksums.

    #[test]
    fn forged_processor_counts_are_malformed() {
        let bytes = stream_bytes(&machine(Mode::OrderOnly, 3), "lu");
        let mut index = index_stream(&bytes, 16).unwrap();
        for n_procs in [u32::MAX, delorean_sim::MAX_PROCS + 1, 0] {
            index.n_procs = n_procs;
            assert!(
                matches!(
                    CheckpointIndex::from_bytes(&index.to_bytes()),
                    Err(CheckpointError::Malformed(_))
                ),
                "{n_procs} processors"
            );
        }
    }

    #[test]
    fn cursor_rejects_an_index_of_another_shape() {
        let lu3 = stream_bytes(&machine(Mode::OrderOnly, 3), "lu");
        let lu4 = stream_bytes(&machine(Mode::OrderOnly, 4), "lu");
        let pico4 = stream_bytes(&machine(Mode::PicoLog, 4), "lu");
        for (indexed, other) in [(&lu3, &lu4), (&lu4, &pico4)] {
            let mut index = index_stream(indexed, 16).unwrap();
            index.source_len = other.len() as u64;
            index.source_fnv = Fnv::of(other);
            let index = CheckpointIndex::from_bytes(&index.to_bytes()).unwrap();
            assert!(matches!(
                index.validate_against(other),
                Err(CheckpointError::SourceMismatch(_))
            ));
            assert!(matches!(
                ReplayCursor::open(Cursor::new(other.clone()), index),
                Err(CheckpointError::SourceMismatch(_))
            ));
        }
    }

    #[test]
    fn cut_memory_images_are_malformed() {
        let bytes = stream_bytes(&machine(Mode::OrderOnly, 4), "lu");
        let mut index = index_stream(&bytes, 16).unwrap();
        for e in &mut index.entries {
            e.state.memory = MemoryImage::from_words(&e.state.memory.to_words()[..10]);
        }
        assert!(matches!(
            CheckpointIndex::from_bytes(&index.to_bytes()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}

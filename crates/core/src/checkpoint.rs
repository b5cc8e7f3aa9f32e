//! System checkpointing.
//!
//! The paper assumes an existing checkpointing substrate (ReVive or
//! SafetyNet) and explicitly does not focus on it: a recorded interval
//! starts at a system checkpoint, and replay restores that checkpoint
//! before consuming the logs. In this reproduction every recording
//! interval starts at the canonical initial state of the run (zeroed
//! memory, reset register files, program entry points), so a checkpoint
//! is the *description* of that state: the workload, its seed and the
//! machine shape. The replayer restores it by reconstructing the same
//! initial state, and [`SystemCheckpoint::id`] gives a content hash for
//! integrity checks.

use crate::inspect::ReplayInspector;
use crate::mode::Mode;
use crate::stream::{decode_start_state, encode_start_state, FileSource, LogSource};
use crate::wire::{frame, frame_checksum, mode_from, mode_tag, Fnv, Reader, Writer};
use delorean_chunk::StartState;
use delorean_isa::layout::AddressMap;
use delorean_isa::workload::WorkloadSpec;
use delorean_mem::Memory;
use std::io::{Read, Seek, SeekFrom};

/// The state description a recording interval starts from.
///
/// # Examples
///
/// ```
/// use delorean::checkpoint::SystemCheckpoint;
/// use delorean_isa::workload;
/// let a = SystemCheckpoint::initial(workload::by_name("fft").unwrap(), 4, 7);
/// let b = SystemCheckpoint::initial(workload::by_name("fft").unwrap(), 4, 7);
/// assert_eq!(a.id(), b.id());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemCheckpoint {
    /// Name of the workload whose programs define the initial PCs.
    pub workload_name: String,
    /// Processors in the machine.
    pub n_procs: u32,
    /// Program-generation seed.
    pub app_seed: u64,
    /// Content hash of the initial memory image.
    pub initial_mem_hash: u64,
}

impl SystemCheckpoint {
    /// Captures the initial state of a run.
    pub fn initial(workload: &WorkloadSpec, n_procs: u32, app_seed: u64) -> Self {
        let map = AddressMap::new(n_procs);
        let mem = Memory::new(map.total_words());
        Self {
            workload_name: workload.name.to_string(),
            n_procs,
            app_seed,
            initial_mem_hash: mem.content_hash(),
        }
    }

    /// Content-derived identifier.
    pub fn id(&self) -> u64 {
        let mut h = Fnv::default();
        h.update(self.workload_name.as_bytes());
        h.word(u64::from(self.n_procs));
        h.word(self.app_seed);
        h.word(self.initial_mem_hash);
        h.value()
    }

    /// Whether a replaying machine can restore this checkpoint.
    pub fn compatible_with(&self, workload: &WorkloadSpec, n_procs: u32, app_seed: u64) -> bool {
        self.workload_name == workload.name && self.n_procs == n_procs && self.app_seed == app_seed
    }
}

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
        for &w in &self.state.memory {
            h.word(w);
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

/// Full replay state at a chunk-commit boundary: the architectural
/// [`StartState`] plus the replay-control state (PicoLog round-robin
/// phase) a mid-stream window needs to resume deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Global commit count the snapshot was taken at (commits done).
    pub gcc: u64,
    /// PicoLog round-robin cursor at this point (0 under PI modes).
    pub rr_cursor: u32,
    /// Architectural state: memory image, register files, chunk counts.
    pub state: StartState,
}

/// One checkpoint in a [`CheckpointIndex`]: a [`Snapshot`] plus the
/// stream coordinates needed to seek a [`FileSource`] to the segment
/// containing the first commit after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Global commit count of the checkpoint (commits done).
    pub gcc: u64,
    /// PicoLog round-robin cursor the window resumes at.
    pub rr_cursor: u32,
    /// Byte offset of the containing event segment's frame.
    pub seg_byte_offset: u64,
    /// Global commit count at the start of that segment.
    pub seg_start_gcc: u64,
    /// Per-processor chunk counters at the start of that segment.
    pub seg_start_chunks: Vec<u64>,
    /// Architectural state at the checkpoint.
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
    /// Returns [`CheckpointError::SourceMismatch`] when the stream's
    /// length or fingerprint differs from the one the index was built
    /// over.
    pub fn validate_against(&self, source: &[u8]) -> Result<(), CheckpointError> {
        if source.len() as u64 != self.source_len {
            return Err(CheckpointError::SourceMismatch(format!(
                "stream is {} bytes, index was built over {}",
                source.len(),
                self.source_len
            )));
        }
        if Fnv::of(source) != self.source_fnv {
            return Err(CheckpointError::SourceMismatch(
                "stream fingerprint differs".to_string(),
            ));
        }
        Ok(())
    }

    /// Serializes the index into the framed, checksummed `.dlrnx`
    /// format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(self.source_len);
        body.u64(self.source_fnv);
        body.u8(mode_tag(self.mode));
        body.u32(self.n_procs);
        body.u64(self.interval_k);
        body.u64(self.total_commits);
        body.u64(self.entries.len() as u64);
        for e in &self.entries {
            let mut ew = Writer::new();
            ew.u64(e.gcc);
            ew.u32(e.rr_cursor);
            ew.u64(e.seg_byte_offset);
            ew.u64(e.seg_start_gcc);
            for &c in &e.seg_start_chunks {
                ew.u64(c);
            }
            encode_start_state(&mut ew, &e.state);
            body.u64(Fnv::of(&ew.buf));
            body.bytes(&ew.buf);
        }
        frame(MAGIC_X, VERSION_X, &body.buf)
    }

    /// Parses and integrity-checks a `.dlrnx` index.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for bad magic, version,
    /// checksum, truncation, or structural inconsistencies. Tampered
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
        if frame_checksum(body) != checksum {
            return Err(CheckpointError::BadChecksum);
        }
        let mut b = Reader::new(body);
        let trunc = |_| CheckpointError::Truncated("index field");
        let source_len = b.u64("source length").map_err(trunc)?;
        let source_fnv = b.u64("source fingerprint").map_err(trunc)?;
        let mode = mode_from(b.u8("mode").map_err(trunc)?)
            .map_err(|_| CheckpointError::Malformed("unknown mode tag".to_string()))?;
        let n_procs = b.u32("processor count").map_err(trunc)?;
        let interval_k = b.u64("checkpoint interval").map_err(trunc)?;
        let total_commits = b.u64("total commits").map_err(trunc)?;
        let n_entries = b.u64("entry count").map_err(trunc)?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let entry_fnv = b.u64("entry checksum").map_err(trunc)?;
            let eb = b
                .bytes("entry body")
                .map_err(|_| CheckpointError::Truncated("entry body"))?;
            if Fnv::of(eb) != entry_fnv {
                return Err(CheckpointError::BadChecksum);
            }
            let mut er = Reader::new(eb);
            let gcc = er.u64("entry commit").map_err(trunc)?;
            let rr_cursor = er.u32("entry phase").map_err(trunc)?;
            let seg_byte_offset = er.u64("entry segment offset").map_err(trunc)?;
            let seg_start_gcc = er.u64("entry segment commit").map_err(trunc)?;
            let mut seg_start_chunks = Vec::with_capacity(n_procs as usize);
            for _ in 0..n_procs {
                seg_start_chunks.push(er.u64("entry segment chunks").map_err(trunc)?);
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
                seg_byte_offset,
                seg_start_gcc,
                seg_start_chunks,
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
/// Returns [`CheckpointError::Malformed`] when the stream itself is
/// corrupt or its replay fails — an index is only ever built over a
/// stream that replays cleanly end to end.
pub fn index_stream(bytes: &[u8], interval_k: u64) -> Result<CheckpointIndex, CheckpointError> {
    if interval_k == 0 {
        return Err(CheckpointError::Malformed(
            "checkpoint interval must be at least 1 commit".to_string(),
        ));
    }
    let mut src = FileSource::open(bytes).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    let (mode, n_procs) = (src.mode(), src.n_procs());
    let mut snaps = Vec::new();
    {
        let mut ins = ReplayInspector::from_source(&mut src)
            .map_err(|e| CheckpointError::Malformed(e.detail))?;
        snaps.push(Snapshot {
            gcc: 0,
            rr_cursor: ins.rr_phase(),
            state: ins.capture(),
        });
        loop {
            match ins.step() {
                Ok(Some(ev)) => {
                    if ev.gcc % interval_k == 0 {
                        snaps.push(Snapshot {
                            gcc: ev.gcc,
                            rr_cursor: ins.rr_phase(),
                            state: ins.capture(),
                        });
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(CheckpointError::Malformed(e.detail)),
            }
        }
    }
    let trailer = src.finish().map_err(CheckpointError::Malformed)?;
    let marks = src.segment_marks();
    let mut entries = Vec::new();
    for snap in snaps {
        let Some(mark) = marks.iter().rev().find(|m| m.start_gcc <= snap.gcc) else {
            continue;
        };
        entries.push(CheckpointEntry {
            gcc: snap.gcc,
            rr_cursor: snap.rr_cursor,
            seg_byte_offset: mark.byte_offset,
            seg_start_gcc: mark.start_gcc,
            seg_start_chunks: mark.start_chunks.clone(),
            state: snap.state,
        });
    }
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
/// re-verified when later windows re-read them.
pub struct ReplayCursor<R: Read + Seek> {
    source: FileSource<R>,
    index: CheckpointIndex,
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
    /// index fingerprint first (one full sequential read, then a
    /// rewind).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SourceMismatch`] when the stream is
    /// not the recording the index was built over, and I/O or decode
    /// failures as their typed variants.
    pub fn open(mut reader: R, index: CheckpointIndex) -> Result<Self, CheckpointError> {
        reader
            .seek(SeekFrom::Start(0))
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut f = Fnv::default();
        let mut len = 0u64;
        let mut buf = [0u8; 8192];
        loop {
            let n = reader
                .read(&mut buf)
                .map_err(|e| CheckpointError::Io(e.to_string()))?;
            if n == 0 {
                break;
            }
            f.update(&buf[..n]);
            len += n as u64;
        }
        if len != index.source_len {
            return Err(CheckpointError::SourceMismatch(format!(
                "stream is {len} bytes, index was built over {}",
                index.source_len
            )));
        }
        if f.value() != index.source_fnv {
            return Err(CheckpointError::SourceMismatch(
                "stream fingerprint differs".to_string(),
            ));
        }
        reader
            .seek(SeekFrom::Start(0))
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let source = FileSource::open_seekable(reader)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        Ok(Self { source, index })
    }

    /// The checkpoint index backing this cursor.
    pub fn index(&self) -> &CheckpointIndex {
        &self.index
    }

    /// Seeks the underlying source to the nearest checkpoint at or
    /// before `gcc` and returns it along with the commit count the
    /// window actually starts at (the checkpoint's, not `gcc`).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when repositioning fails. With
    /// no usable checkpoint (an index over an event-free stream) the
    /// cursor rewinds to the start of the log — the log head is by
    /// definition a checkpoint at commit 0.
    pub fn source_at(&mut self, gcc: u64) -> Result<(&mut FileSource<R>, u64), CheckpointError> {
        let start = match self.index.entries.iter().rev().find(|e| e.gcc <= gcc) {
            Some(entry) => {
                self.source
                    .seek_to_checkpoint(entry)
                    .map_err(|e| CheckpointError::Io(e.to_string()))?;
                entry.gcc
            }
            None => {
                self.source
                    .seek_to_segment(0)
                    .map_err(CheckpointError::Io)?;
                0
            }
        };
        Ok((&mut self.source, start))
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_isa::workload;

    #[test]
    fn ids_distinguish_runs() {
        let fft = workload::by_name("fft").unwrap();
        let lu = workload::by_name("lu").unwrap();
        let a = SystemCheckpoint::initial(fft, 4, 7);
        assert_ne!(a.id(), SystemCheckpoint::initial(lu, 4, 7).id());
        assert_ne!(a.id(), SystemCheckpoint::initial(fft, 8, 7).id());
        assert_ne!(a.id(), SystemCheckpoint::initial(fft, 4, 8).id());
    }

    #[test]
    fn compatibility_checks_shape() {
        let fft = workload::by_name("fft").unwrap();
        let ck = SystemCheckpoint::initial(fft, 4, 7);
        assert!(ck.compatible_with(fft, 4, 7));
        assert!(!ck.compatible_with(fft, 8, 7));
        assert!(!ck.compatible_with(workload::by_name("lu").unwrap(), 4, 7));
    }

    use crate::{Machine, Mode};
    use std::io::Cursor;

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
    }

    #[test]
    fn cursor_reuses_verified_segment_checksums() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 25).unwrap();
        let total = index.total_commits;
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        m.replay_window(&mut cursor, 0, None).unwrap();
        let after_first = cursor.source_at(0).unwrap().0.checksums_verified();
        m.replay_window(&mut cursor, total / 2, None).unwrap();
        m.replay_window(&mut cursor, 0, None).unwrap();
        let after_rereads = cursor.source_at(0).unwrap().0.checksums_verified();
        assert_eq!(
            after_first, after_rereads,
            "re-reading seeked windows must not re-verify checksums"
        );
    }
}

//! Crash-consistent salvage of corrupt `.dlrn` streams.
//!
//! A DeLorean log is a single point of failure: the paper's whole value
//! proposition is that a tiny PI/CS log *suffices* to replay an
//! execution, which means a torn write or a flipped bit silently
//! destroys replayability. This module makes the log format crash
//! consistent instead of assuming a perfect substrate:
//!
//! * [`salvage`] scans a damaged byte stream, re-synchronizes on
//!   segment framing after a corrupt region (every frame carries a
//!   64-bit FNV checksum, so a false re-sync is a ~2⁻⁶⁴ event),
//!   quarantines checksum-failing or inconsistent segments, and
//!   reconstructs every decodable run of commits as a
//!   [`RecoveredRegion`]. Because the [`FileSink`](crate::FileSink)
//!   resets its LZ77 window at segment boundaries, every surviving
//!   segment is independently decompressible; the declared commit and
//!   chunk watermarks in each segment header let the scanner rebuild
//!   absolute commit indices and per-processor chunk counters even
//!   *after* a gap.
//! * [`SalvageReport`] is the typed account of what happened: commit
//!   ranges recovered, commit ranges lost, and the byte ranges
//!   quarantined — deterministic and serializable, so identical inputs
//!   produce byte-identical reports.
//! * [`RecoveringSource`] replays events held in memory as a
//!   [`LogSource`]: a whole [`Recording`](crate::Recording), the
//!   salvaged prefix directly, or any later region resumed from an
//!   [`IntervalCheckpoint`] at the commit just before the region
//!   (checkpoint-resumable replay — the caller learns the exact
//!   commit-index gap instead of aborting).
//! * [`RetryWriter`] adds bounded retry-with-backoff over transient
//!   sink write errors, with a caller-supplied [`BackoffClock`] so
//!   tests stay deterministic.

use crate::checkpoint::{CheckpointIndex, IntervalCheckpoint};
use crate::serialize::DecodeError;
use crate::stream::{
    decode_events, decode_trailer, EventShape, LogEvent, LogSource, ReplayQueues, SegmentDecoder,
    StreamMeta, StreamTrailer,
};
use crate::wire::{segment_checksum, SEGMENT_HEAD, SEG_EVENTS, SEG_TRAILER};
use delorean_chunk::Committer;
use delorean_compress::lz77;
use delorean_isa::{Addr, Word};

// ---------------------------------------------------------------------------
// Frame scanning
// ---------------------------------------------------------------------------

/// Byte span of one segment frame inside a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpan {
    /// Segment kind byte (`1` events, `2` trailer).
    pub kind: u8,
    /// Byte offset of the frame's first byte (the kind byte).
    pub start: usize,
    /// Byte offset one past the frame's last body byte.
    pub end: usize,
}

/// Byte-range map of a structurally valid stream — lets fault-injection
/// tooling aim corruption at precise structures (a segment body, the
/// frame of the trailer, the metadata header).
#[derive(Debug, Clone)]
pub struct StreamLayout {
    /// Offset one past the metadata header (the first segment starts
    /// here).
    pub header_end: usize,
    /// Every segment frame, in stream order (the trailer last).
    pub segments: Vec<SegmentSpan>,
}

/// A parsed-and-verified segment frame.
struct Frame {
    kind: u8,
    body_start: usize,
    body_len: usize,
    total: usize,
}

/// Checks whether `bytes[pos..]` starts a checksum-valid segment frame.
fn parse_frame(bytes: &[u8], pos: usize) -> Option<Frame> {
    if pos + SEGMENT_HEAD > bytes.len() {
        return None;
    }
    let kind = bytes[pos];
    if kind != SEG_EVENTS && kind != SEG_TRAILER {
        return None;
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[pos + 1..pos + 9]);
    let body_len = u64::from_le_bytes(len8);
    let remaining = (bytes.len() - pos - SEGMENT_HEAD) as u64;
    if body_len > remaining {
        return None;
    }
    let body_len = body_len as usize;
    let mut sum8 = [0u8; 8];
    sum8.copy_from_slice(&bytes[pos + 9..pos + SEGMENT_HEAD]);
    let declared = u64::from_le_bytes(sum8);
    let body_start = pos + SEGMENT_HEAD;
    if segment_checksum(kind, &bytes[body_start..body_start + body_len]) != declared {
        return None;
    }
    Some(Frame {
        kind,
        body_start,
        body_len,
        total: SEGMENT_HEAD + body_len,
    })
}

/// Maps the frame structure of a structurally valid stream.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the header is damaged or any frame
/// fails its checksum — this helper is for aiming faults at *valid*
/// streams; use [`salvage`] for damaged ones.
pub fn layout(bytes: &[u8]) -> Result<StreamLayout, DecodeError> {
    let header_end = SegmentDecoder::open(bytes)?.first_offset as usize;
    let mut segments = Vec::new();
    let mut pos = header_end;
    while pos < bytes.len() {
        let Some(fr) = parse_frame(bytes, pos) else {
            return Err(DecodeError::Truncated("segment frame"));
        };
        segments.push(SegmentSpan {
            kind: fr.kind,
            start: pos,
            end: pos + fr.total,
        });
        pos += fr.total;
    }
    Ok(StreamLayout {
        header_end,
        segments,
    })
}

// ---------------------------------------------------------------------------
// Salvage
// ---------------------------------------------------------------------------

/// An inclusive, 1-based range of global commit indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRange {
    /// First commit in the range.
    pub first: u64,
    /// Last commit in the range.
    pub last: u64,
}

impl CommitRange {
    /// Number of commits covered.
    pub fn len(&self) -> u64 {
        self.last.saturating_sub(self.first) + 1
    }

    /// Whether the range covers no commits (never true for a
    /// constructed range; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.last < self.first
    }
}

impl core::fmt::Display for CommitRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}..={}", self.first, self.last)
    }
}

/// A commit range known (or suspected) to be lost to corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostRange {
    /// First lost commit.
    pub first: u64,
    /// Last lost commit, when bounded by a later recovered region or
    /// the trailer's total; `None` when the tail length is unknowable
    /// (the stream was truncated before any later anchor).
    pub last: Option<u64>,
}

impl core::fmt::Display for LostRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.last {
            Some(last) => write!(f, "{}..={}", self.first, last),
            None => write!(f, "{}.. (unbounded)", self.first),
        }
    }
}

/// A byte range the salvage pass refused to trust, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRange {
    /// First quarantined byte offset.
    pub byte_start: u64,
    /// One past the last quarantined byte offset.
    pub byte_end: u64,
    /// Why the range was quarantined (static description — identical
    /// inputs produce identical reports).
    pub reason: &'static str,
}

/// The typed account of a salvage pass: what survived, what did not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Input length in bytes.
    pub total_bytes: u64,
    /// Commit ranges reconstructed, in ascending order.
    pub recovered: Vec<CommitRange>,
    /// Commit ranges lost, in ascending order.
    pub lost: Vec<LostRange>,
    /// Byte ranges quarantined, in ascending order.
    pub quarantined: Vec<QuarantinedRange>,
    /// Whether the trailer (determinism digest) survived.
    pub trailer_recovered: bool,
    /// Total commits recovered across all regions.
    pub recovered_commits: u64,
    /// Total commits the recording held, when the trailer survived.
    pub total_commits: Option<u64>,
}

impl SalvageReport {
    /// Whether the stream salvaged without any loss: every commit
    /// recovered, trailer present, nothing quarantined.
    pub fn is_intact(&self) -> bool {
        self.quarantined.is_empty() && self.lost.is_empty() && self.trailer_recovered
    }

    /// Renders the report as a single deterministic JSON object.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"total_bytes\":{},\"recovered_commits\":{},\"total_commits\":{},\
             \"trailer_recovered\":{},\"recovered\":[",
            self.total_bytes,
            self.recovered_commits,
            self.total_commits
                .map_or_else(|| "null".to_string(), |t| t.to_string()),
            self.trailer_recovered,
        );
        for (i, r) in self.recovered.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(s, "{comma}{{\"first\":{},\"last\":{}}}", r.first, r.last);
        }
        s.push_str("],\"lost\":[");
        for (i, l) in self.lost.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let last = l.last.map_or_else(|| "null".to_string(), |x| x.to_string());
            let _ = write!(s, "{comma}{{\"first\":{},\"last\":{last}}}", l.first);
        }
        s.push_str("],\"quarantined\":[");
        for (i, q) in self.quarantined.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{comma}{{\"byte_start\":{},\"byte_end\":{},\"reason\":\"{}\"}}",
                q.byte_start, q.byte_end, q.reason
            );
        }
        s.push_str("]}");
        s
    }
}

impl core::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "salvage: {} commits recovered{}, trailer {}",
            self.recovered_commits,
            match self.total_commits {
                Some(t) => format!(" of {t}"),
                None => String::new(),
            },
            if self.trailer_recovered {
                "recovered"
            } else {
                "lost"
            }
        )?;
        for r in &self.recovered {
            writeln!(f, "  recovered commits {r}")?;
        }
        for l in &self.lost {
            writeln!(f, "  LOST commits {l}")?;
        }
        for q in &self.quarantined {
            writeln!(
                f,
                "  quarantined bytes {}..{}: {}",
                q.byte_start, q.byte_end, q.reason
            )?;
        }
        Ok(())
    }
}

/// One maximal decodable run of commits.
#[derive(Debug, Clone)]
pub struct RecoveredRegion {
    /// Global commit indices covered (1-based, inclusive).
    pub range: CommitRange,
    /// Per-processor committed-chunk counters *before* the region's
    /// first event — the state a resuming checkpoint must match.
    pub start_counters: Vec<u64>,
    /// The region's events, in global commit order, with absolute
    /// chunk indices.
    pub events: Vec<LogEvent>,
}

/// Everything a salvage pass reconstructed from a damaged stream.
#[derive(Debug, Clone)]
pub struct Salvage {
    /// The stream metadata (always intact — salvage refuses to guess
    /// the machine shape).
    pub meta: StreamMeta,
    /// Recovered regions, in ascending commit order.
    pub regions: Vec<RecoveredRegion>,
    /// The trailer, when it survived.
    pub trailer: Option<StreamTrailer>,
    /// The typed loss/recovery account.
    pub report: SalvageReport,
}

impl Salvage {
    /// The lost range immediately before `region` (the gap a resuming
    /// checkpoint bridges), if any.
    pub fn gap_before(&self, region: usize) -> Option<LostRange> {
        let first = self.regions.get(region)?.range.first;
        self.report
            .lost
            .iter()
            .find(|l| l.last == Some(first - 1))
            .copied()
    }

    /// Whether the salvage covers the entire recording: one region per
    /// the trailer's commit count with nothing lost.
    fn covers_all(&self) -> bool {
        self.report.lost.is_empty() && self.report.trailer_recovered
    }
}

/// Scans a possibly damaged `.dlrn` byte stream and reconstructs every
/// decodable region of commits.
///
/// # Errors
///
/// Returns a [`DecodeError`] only when the *header* is unusable (empty
/// input, bad magic/version, or corrupt metadata): without the
/// metadata there is no machine shape to decode events against, so
/// nothing can be salvaged. All damage past the header is reported
/// through the returned [`SalvageReport`] instead.
pub fn salvage(bytes: &[u8]) -> Result<Salvage, DecodeError> {
    let dec = SegmentDecoder::open(bytes)?;
    let (meta, header_end) = (dec.meta, dec.first_offset as usize);
    let n = meta.n_procs as usize;

    struct RegionBuilder {
        first: u64,
        start_counters: Vec<u64>,
        events: Vec<LogEvent>,
    }

    let mut regions: Vec<RecoveredRegion> = Vec::new();
    let mut quarantined: Vec<QuarantinedRange> = Vec::new();
    let mut trailer: Option<StreamTrailer> = None;
    // (commits decoded, per-processor counters) — `None` after a gap,
    // until a segment's declared watermarks re-anchor us.
    let mut sync: Option<(u64, Vec<u64>)> = Some((0, meta.start_chunks()));
    let mut cur: Option<RegionBuilder> = None;
    let mut pos = header_end;

    let close_region = |cur: &mut Option<RegionBuilder>, regions: &mut Vec<RecoveredRegion>| {
        if let Some(rb) = cur.take() {
            if !rb.events.is_empty() {
                let last = rb.first + rb.events.len() as u64 - 1;
                regions.push(RecoveredRegion {
                    range: CommitRange {
                        first: rb.first,
                        last,
                    },
                    start_counters: rb.start_counters,
                    events: rb.events,
                });
            }
        }
    };

    while pos < bytes.len() {
        if trailer.is_some() {
            quarantined.push(QuarantinedRange {
                byte_start: pos as u64,
                byte_end: bytes.len() as u64,
                reason: "data after trailer segment",
            });
            break;
        }
        let Some(fr) = parse_frame(bytes, pos) else {
            // Framing lost: close the current region and scan forward
            // byte-by-byte for the next checksum-valid frame.
            close_region(&mut cur, &mut regions);
            sync = None;
            let gap_start = pos;
            let mut p = pos + 1;
            while p < bytes.len() && parse_frame(bytes, p).is_none() {
                p += 1;
            }
            quarantined.push(QuarantinedRange {
                byte_start: gap_start as u64,
                byte_end: p as u64,
                reason: "unreadable bytes: segment framing lost",
            });
            pos = p;
            continue;
        };
        let body = &bytes[fr.body_start..fr.body_start + fr.body_len];
        let span = (pos as u64, (pos + fr.total) as u64);
        pos += fr.total;
        if fr.kind == SEG_TRAILER {
            match decode_trailer(body, meta.n_procs) {
                Ok(t) => trailer = Some(t),
                Err(_) => quarantined.push(QuarantinedRange {
                    byte_start: span.0,
                    byte_end: span.1,
                    reason: "trailer body undecodable",
                }),
            }
            continue;
        }
        // In sync, decode with the carried counters; after a gap, from
        // zero, which yields per-processor event counts instead.
        let (mut counters, mut end) = match &sync {
            Some((gcc, counters)) => (counters.clone(), *gcc),
            None => (vec![0u64; n], 0),
        };
        // Segments decode with a fresh LZ77 decoder: the window barrier.
        let Ok(seg) = decode_events(
            body,
            EventShape::of(&meta),
            &mut lz77::Decoder::new(),
            &mut counters,
            &mut end,
            Vec::new(),
        ) else {
            // The frame checksum passed but the body is not a
            // well-formed events segment: quarantine it and drop the
            // counter anchor (the next segment's watermarks re-anchor).
            close_region(&mut cur, &mut regions);
            sync = None;
            quarantined.push(QuarantinedRange {
                byte_start: span.0,
                byte_end: span.1,
                reason: "event segment body undecodable",
            });
            continue;
        };
        let (watermark, marks) = (seg.commit_watermark, seg.chunk_watermarks);
        match sync.take() {
            Some((gcc, start_counters)) => {
                // In sync: check the declared watermarks. A duplicated
                // (replayed-frame) segment declares a watermark at or
                // behind our count.
                if watermark <= gcc {
                    quarantined.push(QuarantinedRange {
                        byte_start: span.0,
                        byte_end: span.1,
                        reason: "stale segment: commit watermark does not advance",
                    });
                    sync = Some((gcc, start_counters));
                } else if end == watermark && counters == marks {
                    let rb = cur.get_or_insert_with(|| RegionBuilder {
                        first: gcc + 1,
                        start_counters,
                        events: Vec::new(),
                    });
                    rb.events.extend(seg.events);
                    sync = Some((watermark, marks));
                } else {
                    // Internally inconsistent: drop the segment and
                    // the anchor; the next segment re-anchors.
                    close_region(&mut cur, &mut regions);
                    quarantined.push(QuarantinedRange {
                        byte_start: span.0,
                        byte_end: span.1,
                        reason: "event segment inconsistent with declared watermarks",
                    });
                }
            }
            None => {
                // Post-gap: reconstruct absolute counters from the
                // declared watermarks. Subtracting the per-processor
                // event counts from the end-of-segment watermarks gives
                // the counters *before* the segment.
                let count = end;
                let anchorable = watermark >= count
                    && marks.iter().zip(&counters).all(|(m, z)| m >= z)
                    && regions
                        .last()
                        .is_none_or(|r| watermark - count >= r.range.last);
                if !anchorable {
                    quarantined.push(QuarantinedRange {
                        byte_start: span.0,
                        byte_end: span.1,
                        reason: "post-gap segment cannot anchor commit counters",
                    });
                    continue;
                }
                let start_counters: Vec<u64> =
                    marks.iter().zip(&counters).map(|(m, z)| m - z).collect();
                let mut events = seg.events;
                for ev in &mut events {
                    if let Committer::Proc(p) = ev.committer {
                        ev.chunk_index += start_counters[p as usize];
                    }
                }
                cur = Some(RegionBuilder {
                    first: watermark - count + 1,
                    start_counters,
                    events,
                });
                sync = Some((watermark, marks));
            }
        }
    }
    close_region(&mut cur, &mut regions);

    // Attribute commit losses from the gaps between recovered regions.
    let total_commits = trailer.as_ref().map(|t| t.stats.total_commits);
    let mut lost = Vec::new();
    let mut prev_end = 0u64;
    for r in &regions {
        if r.range.first > prev_end + 1 {
            lost.push(LostRange {
                first: prev_end + 1,
                last: Some(r.range.first - 1),
            });
        }
        prev_end = r.range.last;
    }
    match total_commits {
        Some(total) if prev_end < total => lost.push(LostRange {
            first: prev_end + 1,
            last: Some(total),
        }),
        Some(_) => {}
        None => lost.push(LostRange {
            first: prev_end + 1,
            last: None,
        }),
    }
    let recovered_commits = regions.iter().map(|r| r.range.len()).sum();
    let report = SalvageReport {
        total_bytes: bytes.len() as u64,
        recovered: regions.iter().map(|r| r.range).collect(),
        lost,
        quarantined,
        trailer_recovered: trailer.is_some(),
        recovered_commits,
        total_commits,
    };
    Ok(Salvage {
        meta,
        regions,
        trailer,
        report,
    })
}

// ---------------------------------------------------------------------------
// RecoveringSource
// ---------------------------------------------------------------------------

/// A [`LogSource`] over events held in memory: a whole
/// [`Recording`](crate::Recording) (see
/// [`Recording::source`](crate::Recording::source)) or one salvaged
/// region of a damaged stream.
///
/// The source ends *cleanly* at its last event (its
/// [`LogSource::error`] stays `None`), so a stepping replayer can
/// distinguish "recovered range exhausted" from "stream died" — the
/// invariant the crashtest harness verifies salvage against ground
/// truth with. A salvaged region carries the trailer only when the
/// salvage provably covers the recording to its end (the digest
/// describes the *final* state, which a partial replay must not be
/// checked against).
#[derive(Debug)]
pub struct RecoveringSource {
    meta: StreamMeta,
    queues: ReplayQueues,
    trailer: Option<StreamTrailer>,
    commits: u64,
    phase: Option<u32>,
}

impl RecoveringSource {
    /// A source replaying `events` from the start state `meta`
    /// describes, ending with `trailer` when it is known.
    pub(crate) fn over(
        meta: StreamMeta,
        events: &[LogEvent],
        trailer: Option<StreamTrailer>,
    ) -> Self {
        let mut queues = ReplayQueues::new(&meta);
        // Slots are relative to the replay's start, as in an interval
        // recording.
        for (slot, ev) in (0u64..).zip(events) {
            queues.push(ev, slot);
        }
        Self {
            meta,
            queues,
            trailer,
            commits: events.len() as u64,
            phase: None,
        }
    }

    /// A source over the salvaged prefix — the first recovered region,
    /// when it starts at the stream's first commit. Replayable from
    /// the recording's ordinary start state.
    pub fn prefix(s: &Salvage) -> Option<Self> {
        let region = s.regions.first()?;
        if region.range.first != 1 {
            return None;
        }
        let trailer = (s.covers_all()).then(|| s.trailer.clone()).flatten();
        Some(Self::over(s.meta.clone(), &region.events, trailer))
    }

    /// A source over recovered region `region`, resumed from a
    /// checkpoint taken at the commit just before the region's first —
    /// checkpoint-resumable replay across the corrupt gap.
    ///
    /// # Errors
    ///
    /// Returns a description when the checkpoint does not line up with
    /// the region (wrong commit index or chunk counters) — resuming
    /// from a mismatched state would silently diverge.
    pub fn resume(s: &Salvage, region: usize, ck: &IntervalCheckpoint) -> Result<Self, String> {
        let r = s
            .regions
            .get(region)
            .ok_or_else(|| format!("salvage has no region {region}"))?;
        if ck.gcc + 1 != r.range.first {
            return Err(format!(
                "checkpoint at commit {} cannot resume region starting at commit {}",
                ck.gcc, r.range.first
            ));
        }
        if ck.state.chunks_done != r.start_counters {
            return Err("checkpoint chunk counters disagree with the salvaged region".to_string());
        }
        let mut meta = s.meta.clone();
        meta.interval = Some(ck.state.clone());
        let is_last = region + 1 == s.regions.len();
        let reaches_end = s
            .report
            .total_commits
            .is_some_and(|total| r.range.last == total);
        let trailer = (is_last && reaches_end)
            .then(|| s.trailer.clone())
            .flatten();
        Ok(Self::over(meta, &r.events, trailer))
    }

    /// Resumes recovered region `region` from the nearest surviving
    /// checkpoint in a `.dlrnx` index at or before the damage.
    ///
    /// The sidecar outlives the damaged log: its snapshots were taken
    /// from the intact stream, so the entry at the commit just before
    /// the region's first seeds a resumed replay without re-decoding —
    /// or even possessing — the destroyed prefix.
    ///
    /// # Errors
    ///
    /// Returns a description when the index describes a different
    /// machine shape, or when the nearest checkpoint at or before the
    /// region boundary sits strictly before it — the commits between
    /// the checkpoint and the region include a lost range, and lost
    /// state cannot be rolled forward into existence.
    pub fn resume_from_index(
        s: &Salvage,
        region: usize,
        index: &CheckpointIndex,
    ) -> Result<Self, String> {
        let r = s
            .regions
            .get(region)
            .ok_or_else(|| format!("salvage has no region {region}"))?;
        if index.mode != s.meta.mode || index.n_procs != s.meta.n_procs {
            return Err(format!(
                "checkpoint index describes a {:?}/{}-proc stream, salvage is {:?}/{}",
                index.mode, index.n_procs, s.meta.mode, s.meta.n_procs
            ));
        }
        let boundary = r.range.first - 1;
        let entry = index
            .nearest_at_or_before(boundary)
            .ok_or_else(|| format!("index has no checkpoint at or before commit {boundary}"))?;
        if entry.gcc != boundary {
            return Err(format!(
                "nearest surviving checkpoint (commit {}) does not reach commit {boundary}, \
                 the boundary of region {region}: the intervening commits include a lost \
                 range and cannot be rolled forward",
                entry.gcc
            ));
        }
        let ck = IntervalCheckpoint {
            workload: s.meta.workload,
            app_seed: s.meta.app_seed,
            n_procs: s.meta.n_procs,
            gcc: entry.gcc,
            state: entry.state.clone(),
        };
        let mut src = Self::resume(s, region, &ck)?;
        // The entry carries the exact PicoLog round-robin cursor, which
        // beats the replayer's first-at-minimum derivation.
        src.phase = Some(entry.rr_cursor);
        Ok(src)
    }

    /// Number of commits this source replays.
    pub fn commits(&self) -> u64 {
        self.commits
    }
}

impl LogSource for RecoveringSource {
    fn meta(&self) -> &StreamMeta {
        &self.meta
    }

    fn pi_peek(&mut self) -> Option<Committer> {
        self.queues.pi_peek()
    }

    fn forced_size(&mut self, core: u32, index: u64) -> Option<u32> {
        self.queues.forced_size(core, index)
    }

    fn interrupt_at(&mut self, core: u32, index: u64) -> Option<(u16, Word)> {
        self.queues.interrupt_at(core, index)
    }

    fn io_value(&mut self, core: u32, index: u64, seq: u32) -> Option<Word> {
        self.queues.io_value(core, index, seq)
    }

    fn dma_slot_matches(&mut self, gcc: u64) -> bool {
        self.queues.dma_slot_matches(gcc)
    }

    fn dma_next(&mut self) -> Option<Vec<(Addr, Word)>> {
        self.queues.dma_next()
    }

    fn note_commit(&mut self, committer: Committer) {
        self.queues.note_commit(committer);
    }

    fn finish(&mut self) -> Result<StreamTrailer, String> {
        self.trailer
            .clone()
            .ok_or_else(|| "salvaged region does not reach the stream trailer".to_string())
    }

    fn error(&self) -> Option<&str> {
        None
    }

    fn resume_phase(&self) -> Option<u32> {
        self.phase
    }
}

// ---------------------------------------------------------------------------
// Bounded retry-with-backoff for transient sink errors
// ---------------------------------------------------------------------------

/// Pluggable pause between write retries. A writer over real storage
/// supplies one that sleeps; tests inject a recording clock so retry
/// behaviour stays deterministic.
pub trait BackoffClock {
    /// Called before retry number `attempt` (1-based).
    fn pause(&mut self, attempt: u32);
}

/// A [`BackoffClock`] that records the retry attempts instead of
/// sleeping — the deterministic test clock.
#[derive(Debug, Default)]
pub struct CountingClock {
    /// Every retry attempt, in order.
    pub pauses: Vec<u32>,
}

impl BackoffClock for CountingClock {
    fn pause(&mut self, attempt: u32) {
        self.pauses.push(attempt);
    }
}

/// Whether an I/O error is worth retrying.
fn is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// An [`std::io::Write`] adapter that retries transient errors
/// (`Interrupted`, `WouldBlock`, `TimedOut`) a bounded number of
/// times, pausing through a [`BackoffClock`] between attempts. Wrap a
/// [`FileSink`](crate::FileSink)'s writer in this to survive flaky
/// storage during recording.
#[derive(Debug)]
pub struct RetryWriter<W, C> {
    inner: W,
    clock: C,
    max_retries: u32,
    retries: u64,
}

impl<W: std::io::Write, C: BackoffClock> RetryWriter<W, C> {
    /// Wraps `inner`, retrying each transient failure up to
    /// `max_retries` times.
    pub fn new(inner: W, clock: C, max_retries: u32) -> Self {
        Self {
            inner,
            clock,
            max_retries,
            retries: 0,
        }
    }

    /// Total retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Recovers the wrapped writer and clock.
    pub fn into_parts(self) -> (W, C) {
        (self.inner, self.clock)
    }

    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut W) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Err(e) if is_transient(e.kind()) && attempt < self.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    self.clock.pause(attempt);
                }
                other => return other,
            }
        }
    }
}

impl<W: std::io::Write, C: BackoffClock> std::io::Write for RetryWriter<W, C> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.with_retry(|w| w.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.with_retry(std::io::Write::flush)
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::mode::Mode;
    use crate::stream::{test_meta, CommitBridge, FileSink, LogSink, StreamTrailer};
    use delorean_chunk::{CommitRecord, ParallelStats, RunStats, StateDigest, TruncationReason};

    fn proc_record(p: u32, index: u64) -> CommitRecord {
        CommitRecord {
            shard: None,
            committer: Committer::Proc(p),
            chunk_index: index,
            size: 500,
            truncation: TruncationReason::Overflow,
            global_slot: 0,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: Vec::new(),
            access_lines: vec![3, 7],
            write_lines: vec![7],
        }
    }

    fn stats(n_procs: u32, commits: u64) -> RunStats {
        RunStats {
            cycles: 10,
            total_commits: commits,
            squashes: 0,
            squashed_insts: 0,
            overflow_truncations: commits,
            collision_truncations: 0,
            uncached_truncations: 0,
            interrupts: 0,
            dma_commits: 0,
            stall_cycles: vec![0; n_procs as usize],
            traffic_bytes: 0,
            avg_chunk_size: 500.0,
            parallel: ParallelStats::default(),
            token: None,
            work_units: 1,
            digest: StateDigest {
                mem_hash: 1,
                stream_hashes: vec![2; n_procs as usize],
                retired: vec![500; n_procs as usize],
                committed_chunks: vec![commits / u64::from(n_procs); n_procs as usize],
            },
        }
    }

    /// A 6-commit, 2-processor stream flushed every 2 events: three
    /// event segments plus a trailer.
    fn small_stream() -> Vec<u8> {
        let mut sink = FileSink::with_flush_every(Vec::new(), 2);
        sink.begin(&test_meta(Mode::OrderOnly, 2));
        let mut bridge = CommitBridge::new(Mode::OrderOnly, 2);
        for i in 0..6u64 {
            let p = (i % 2) as u32;
            sink.on_event(&bridge.convert(&proc_record(p, i / 2 + 1)));
        }
        sink.finish(&StreamTrailer { stats: stats(2, 6) });
        sink.into_inner().unwrap()
    }

    #[test]
    fn intact_stream_salvages_completely() {
        let bytes = small_stream();
        let s = salvage(&bytes).unwrap();
        assert!(s.report.is_intact(), "{}", s.report);
        assert_eq!(s.regions.len(), 1);
        assert_eq!(s.regions[0].range, CommitRange { first: 1, last: 6 });
        assert_eq!(s.report.total_commits, Some(6));
        let src = RecoveringSource::prefix(&s).unwrap();
        assert_eq!(src.commits(), 6);
    }

    #[test]
    fn corrupt_middle_segment_is_quarantined_with_exact_ranges() {
        let bytes = small_stream();
        let lay = layout(&bytes).unwrap();
        assert_eq!(lay.segments.len(), 4, "3 event segments + trailer");
        // Flip a byte inside the second event segment's body.
        let seg = lay.segments[1];
        let mut damaged = bytes.clone();
        damaged[seg.start + SEGMENT_HEAD + 2] ^= 0xff;
        let s = salvage(&damaged).unwrap();
        assert_eq!(
            s.report.recovered,
            vec![
                CommitRange { first: 1, last: 2 },
                CommitRange { first: 5, last: 6 }
            ]
        );
        assert_eq!(
            s.report.lost,
            vec![LostRange {
                first: 3,
                last: Some(4)
            }]
        );
        assert!(s.report.trailer_recovered);
        assert!(!s.report.quarantined.is_empty());
        // The post-gap region carries absolute chunk counters.
        assert_eq!(s.regions[1].start_counters, vec![2, 2]);
        assert_eq!(s.regions[1].events[0].chunk_index, 3);
    }

    #[test]
    fn truncated_tail_loses_open_ended_range() {
        let bytes = small_stream();
        let lay = layout(&bytes).unwrap();
        let cut = lay.segments[1].end - 3;
        let s = salvage(&bytes[..cut]).unwrap();
        assert_eq!(s.report.recovered, vec![CommitRange { first: 1, last: 2 }]);
        assert!(!s.report.trailer_recovered);
        assert_eq!(
            s.report.lost,
            vec![LostRange {
                first: 3,
                last: None
            }]
        );
    }

    #[test]
    fn duplicated_segment_is_stale_not_fatal() {
        let bytes = small_stream();
        let lay = layout(&bytes).unwrap();
        let seg = lay.segments[1];
        let mut dup = Vec::new();
        dup.extend_from_slice(&bytes[..seg.end]);
        dup.extend_from_slice(&bytes[seg.start..seg.end]); // duplicate
        dup.extend_from_slice(&bytes[seg.end..]);
        let s = salvage(&dup).unwrap();
        assert_eq!(s.report.recovered, vec![CommitRange { first: 1, last: 6 }]);
        assert!(s.report.lost.is_empty());
        assert_eq!(s.report.quarantined.len(), 1);
        assert_eq!(
            s.report.quarantined[0].reason,
            "stale segment: commit watermark does not advance"
        );
    }

    #[test]
    fn header_corruption_is_a_typed_failure() {
        let mut bytes = small_stream();
        // Salvage reads the header with `FileSource`'s decoder, so every
        // cut inside it fails the same way in both.
        for cut in 0..layout(&bytes).unwrap().header_end {
            let expected = crate::FileSource::open(&bytes[..cut]).unwrap_err();
            assert_eq!(salvage(&bytes[..cut]).unwrap_err(), expected, "cut {cut}");
        }
        assert_eq!(
            salvage(&bytes[..18]).unwrap_err(),
            DecodeError::Truncated("metadata length")
        );
        bytes[16] ^= 0x01; // inside meta length / metadata checksum region
        assert!(salvage(&bytes).is_err());
        assert!(matches!(salvage(&[]).unwrap_err(), DecodeError::Empty));
    }

    #[test]
    fn report_json_is_deterministic() {
        let bytes = small_stream();
        let mut damaged = bytes.clone();
        let lay = layout(&bytes).unwrap();
        damaged[lay.segments[0].start + SEGMENT_HEAD + 1] ^= 0x10;
        let a = salvage(&damaged).unwrap().report.to_json();
        let b = salvage(&damaged).unwrap().report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"recovered\""), "{a}");
        assert!(a.contains("\"quarantined\""), "{a}");
    }

    #[test]
    fn retry_writer_retries_transient_errors_deterministically() {
        use std::io::Write as _;
        /// Fails with `TimedOut` on the first `fail` write calls.
        struct Flaky {
            fail: u32,
            out: Vec<u8>,
        }
        impl std::io::Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.fail > 0 {
                    self.fail -= 1;
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let flaky = Flaky {
            fail: 3,
            out: Vec::new(),
        };
        let mut w = RetryWriter::new(flaky, CountingClock::default(), 5);
        w.write_all(b"payload").unwrap();
        assert_eq!(w.retries(), 3);
        let (inner, clock) = w.into_parts();
        assert_eq!(inner.out, b"payload");
        assert_eq!(clock.pauses, vec![1, 2, 3]);

        // Exhausted retries surface the error.
        let flaky = Flaky {
            fail: 10,
            out: Vec::new(),
        };
        let mut w = RetryWriter::new(flaky, CountingClock::default(), 2);
        assert!(w.write_all(b"x").is_err());
        assert_eq!(w.retries(), 2);
    }
}

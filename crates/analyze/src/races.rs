//! Chunk-granularity race detection (pass 2).
//!
//! Replays a recording through
//! [`delorean::inspect::ReplayInspector`] with
//! per-chunk footprint collection enabled and builds the chunk
//! happens-before relation online with vector clocks. The columns of
//! the clock are the processors plus one extra column for the DMA
//! engine (which "acts like another processor" at the arbiter).
//!
//! Happens-before at chunk granularity is the union of *program order*
//! (successive chunks of one processor) and *conflict order* (a chunk
//! that touches a line after another chunk wrote it, or writes a line
//! another chunk read). When two chunks conflict and neither one's
//! vector clock already dominates the other's, nothing but the recorded
//! commit log fixes their order — DeLorean's arbiter serialized them
//! one way, and a different legal interleaving could have serialized
//! them the other way. Those pairs are reported as chunk races,
//! classified by what the recorded mode pins down (the PI log for
//! OrderSize/OrderOnly; the predefined round-robin order for PicoLog).
//!
//! Per-line state is held only for lines actually touched, and each
//! line keeps one last-writer plus the readers since that write, so
//! memory stays proportional to the working set, not the log length.
//! A cumulative write [`Signature`] screens chunks that cannot
//! possibly conflict before any per-line work happens.

use crate::report::{diagnostics_json, Diagnostic};
use delorean::inspect::{CommitEvent, InspectError, ReplayInspector};
use delorean::json;
use delorean::{LogSource, Mode};
use delorean_chunk::Committer;
use delorean_mem::Signature;
use std::collections::HashMap;
use std::rc::Rc;

/// A committed chunk that per-line state points back at.
#[derive(Debug)]
struct CommitInfo {
    /// Global chunk commit count at which this chunk committed.
    gcc: u64,
    /// Clock column (processor ID, or `n_procs` for DMA).
    col: usize,
    /// Per-committer chunk index.
    chunk: u64,
    /// The chunk's vector clock at commit time.
    vc: Vec<u64>,
}

#[derive(Debug, Default)]
struct LineState {
    last_writer: Option<Rc<CommitInfo>>,
    /// Readers since the last write; at most one entry per column.
    readers: Vec<Rc<CommitInfo>>,
}

/// Access pattern of a racing chunk pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Earlier chunk wrote, later chunk wrote.
    WriteWrite,
    /// Earlier chunk wrote, later chunk read.
    WriteRead,
    /// Earlier chunk read, later chunk wrote.
    ReadWrite,
}

impl ConflictKind {
    /// Short label (`W-W`, `W-R`, `R-W`).
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "W-W",
            ConflictKind::WriteRead => "W-R",
            ConflictKind::ReadWrite => "R-W",
        }
    }
}

/// One endpoint of a racing chunk pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceEndpoint {
    /// Committer label (`P3` or `DMA`).
    pub who: String,
    /// Global commit count of the chunk.
    pub gcc: u64,
    /// Per-committer chunk index.
    pub chunk: u64,
}

/// Two conflicting chunks whose order only the commit log fixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRace {
    /// First (earlier-committed) chunk.
    pub earlier: RaceEndpoint,
    /// Second chunk.
    pub later: RaceEndpoint,
    /// Cache line the conflict was detected on.
    pub line: u64,
    /// Access pattern.
    pub kind: ConflictKind,
}

/// Options for the chunk race pass.
#[derive(Debug, Clone)]
pub struct RaceOptions {
    /// Maximum example races carried in the report.
    pub max_examples: usize,
}

impl Default for RaceOptions {
    fn default() -> Self {
        Self { max_examples: 16 }
    }
}

/// Output of the chunk race pass.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Chunks replayed.
    pub chunks: u64,
    /// Conflict edges observed (including already-ordered ones).
    pub conflicts: u64,
    /// Chunk pairs ordered only by the recorded commit log.
    pub races_total: u64,
    /// Chunks the cumulative write signature screened out entirely.
    pub screened: u64,
    /// Example races (capped).
    pub examples: Vec<ChunkRace>,
    /// What the recorded mode pins the racy orders with.
    pub ordered_by: String,
    /// Findings (one warning per example race, plus summaries).
    pub diagnostics: Vec<Diagnostic>,
}

impl RaceReport {
    /// A report for a replay that failed before completing — the
    /// [`InspectError`] (which names the commit index the stream went
    /// bad at) becomes the pass's single error finding.
    pub fn failed(err: &InspectError) -> Self {
        Self {
            chunks: 0,
            conflicts: 0,
            races_total: 0,
            screened: 0,
            examples: Vec::new(),
            ordered_by: String::new(),
            diagnostics: vec![Diagnostic::error("replay-failed", err.to_string())],
        }
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"chunks\":{},\"conflicts\":{},\"races_total\":{},\"screened\":{},\"ordered_by\":\"{}\",\"examples\":[",
            self.chunks,
            self.conflicts,
            self.races_total,
            self.screened,
            json::escape(&self.ordered_by)
        ));
        for (i, r) in self.examples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"line\":{},\"earlier\":{{\"who\":\"{}\",\"gcc\":{},\"chunk\":{}}},\"later\":{{\"who\":\"{}\",\"gcc\":{},\"chunk\":{}}}}}",
                r.kind.label(),
                r.line,
                json::escape(&r.earlier.who),
                r.earlier.gcc,
                r.earlier.chunk,
                json::escape(&r.later.who),
                r.later.gcc,
                r.later.chunk
            ));
        }
        out.push_str("],\"diagnostics\":");
        diagnostics_json(&self.diagnostics, out);
        out.push('}');
    }
}

impl core::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.ordered_by.is_empty() {
            writeln!(f, "chunk race detection: replay did not complete")?;
        } else {
            writeln!(
                f,
                "chunk race detection: {} chunks, {} conflict edge(s), {} race(s); order fixed by {}",
                self.chunks, self.conflicts, self.races_total, self.ordered_by
            )?;
        }
        for r in &self.examples {
            writeln!(
                f,
                "  race ({}) on line {}: {} chunk {} (commit {}) vs {} chunk {} (commit {})",
                r.kind.label(),
                r.line,
                r.earlier.who,
                r.earlier.chunk,
                r.earlier.gcc,
                r.later.who,
                r.later.chunk,
                r.later.gcc
            )?;
        }
        // Non-race findings (replay failures, summaries) are not in
        // `examples`; print them so the human rendering loses nothing.
        for d in self.diagnostics.iter().filter(|d| d.code != "chunk-race") {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

fn vc_le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

fn vc_join(into: &mut [u64], from: &[u64]) {
    for (x, y) in into.iter_mut().zip(from.iter()) {
        *x = (*x).max(*y);
    }
}

fn who_label(col: usize, n_procs: u32) -> String {
    if col == n_procs as usize {
        "DMA".to_string()
    } else {
        format!("P{col}")
    }
}

/// Online chunk-granularity race detector.
///
/// Feed it [`CommitEvent`]s (with footprints collected) in commit
/// order; call [`Detector::finish`] for the report.
#[derive(Debug)]
pub struct Detector {
    n_procs: u32,
    clocks: Vec<Vec<u64>>,
    lines: HashMap<u64, LineState>,
    cum_writes: Signature,
    chunks: u64,
    conflicts: u64,
    races_total: u64,
    screened: u64,
    examples: Vec<ChunkRace>,
    ordered_by: String,
    max_examples: usize,
}

impl Detector {
    /// A detector for a recording in `mode` with `n_procs` processors.
    pub fn new(mode: Mode, n_procs: u32, opts: &RaceOptions) -> Self {
        let n_cols = n_procs as usize + 1;
        let ordered_by = if mode.has_pi_log() {
            format!("the recorded PI commit log ({mode})")
        } else {
            format!("the predefined round-robin commit order ({mode})")
        };
        Self {
            n_procs,
            clocks: vec![vec![0; n_cols]; n_cols],
            lines: HashMap::new(),
            cum_writes: Signature::new(),
            chunks: 0,
            conflicts: 0,
            races_total: 0,
            screened: 0,
            examples: Vec::new(),
            ordered_by,
            max_examples: opts.max_examples,
        }
    }

    /// Observes one committed chunk.
    pub fn observe(&mut self, ev: &CommitEvent) {
        let col = match ev.committer {
            Committer::Proc(p) => p as usize,
            Committer::Dma => self.n_procs as usize,
        };
        self.chunks += 1;
        self.clocks[col][col] += 1;

        // Conflict edges against current per-line state. The committer
        // clock already carries program order and previously absorbed
        // edges; a conflicting predecessor it does not dominate is
        // ordered only by the commit log. The cumulative write
        // signature screens read lines that were never written (no
        // writer to conflict with); a read-only chunk with no
        // signature hit does no conflict checking at all — its reads
        // still get recorded below, because a later remote write to
        // one of them is an R-W race.
        let any_read_hit = ev
            .read_lines
            .iter()
            .any(|&l| self.cum_writes.may_contain(l));
        if ev.write_lines.is_empty() && !any_read_hit {
            self.screened += 1;
        } else {
            let mut edges: Vec<(Rc<CommitInfo>, u64, ConflictKind)> = Vec::new();
            for &line in &ev.read_lines {
                if !self.cum_writes.may_contain(line) {
                    continue;
                }
                if let Some(w) = self.lines.get(&line).and_then(|s| s.last_writer.as_ref()) {
                    if w.col != col {
                        edges.push((Rc::clone(w), line, ConflictKind::WriteRead));
                    }
                }
            }
            for &line in &ev.write_lines {
                if let Some(state) = self.lines.get(&line) {
                    if let Some(w) = &state.last_writer {
                        if w.col != col {
                            edges.push((Rc::clone(w), line, ConflictKind::WriteWrite));
                        }
                    }
                    for r in &state.readers {
                        if r.col != col {
                            edges.push((Rc::clone(r), line, ConflictKind::ReadWrite));
                        }
                    }
                }
            }
            // Process newest predecessor first, absorbing each edge
            // into the clock before checking the next: a predecessor
            // that happens-before another predecessor of this same
            // chunk is then seen as transitively ordered rather than
            // flagged as a second race.
            edges.sort_by_key(|e| std::cmp::Reverse(e.0.gcc));
            for (prev, line, kind) in &edges {
                self.edge(prev, col, *line, *kind, ev);
                vc_join(&mut self.clocks[col], &prev.vc);
            }
        }

        // Record this chunk in the per-line state.
        let info = Rc::new(CommitInfo {
            gcc: ev.gcc,
            col,
            chunk: ev.chunk_index,
            vc: self.clocks[col].clone(),
        });
        for &line in &ev.write_lines {
            let state = self.lines.entry(line).or_default();
            state.last_writer = Some(Rc::clone(&info));
            state.readers.clear();
            self.cum_writes.insert(line);
        }
        for &line in &ev.read_lines {
            // A later remote write to this line is an R-W conflict, so
            // readers are recorded for every touched line.
            let state = self.lines.entry(line).or_default();
            state.readers.retain(|r| r.col != col);
            state.readers.push(Rc::clone(&info));
        }
    }

    fn edge(
        &mut self,
        prev: &Rc<CommitInfo>,
        col: usize,
        line: u64,
        kind: ConflictKind,
        ev: &CommitEvent,
    ) {
        self.conflicts += 1;
        if !vc_le(&prev.vc, &self.clocks[col]) {
            self.races_total += 1;
            if self.examples.len() < self.max_examples {
                self.examples.push(ChunkRace {
                    earlier: RaceEndpoint {
                        who: who_label(prev.col, self.n_procs),
                        gcc: prev.gcc,
                        chunk: prev.chunk,
                    },
                    later: RaceEndpoint {
                        who: who_label(col, self.n_procs),
                        gcc: ev.gcc,
                        chunk: ev.chunk_index,
                    },
                    line,
                    kind,
                });
            }
        }
    }

    /// Finalizes the pass into a [`RaceReport`].
    ///
    /// Example races (and the warnings derived from them) are sorted by
    /// (later commit slot, earlier commit slot, line, kind) so the
    /// report — and the CLI's `--json` rendering of it — is
    /// byte-stable regardless of per-line discovery order.
    pub fn finish(mut self) -> RaceReport {
        self.examples.sort_by_key(|r| {
            (
                r.later.gcc,
                r.earlier.gcc,
                r.line,
                match r.kind {
                    ConflictKind::WriteWrite => 0u8,
                    ConflictKind::WriteRead => 1,
                    ConflictKind::ReadWrite => 2,
                },
            )
        });
        let mut diagnostics = Vec::new();
        for r in &self.examples {
            diagnostics.push(Diagnostic::warning(
                "chunk-race",
                format!(
                    "{} race on line {}: {} chunk {} (commit {}) and {} chunk {} (commit {}) are ordered only by {}",
                    r.kind.label(),
                    r.line,
                    r.earlier.who,
                    r.earlier.chunk,
                    r.earlier.gcc,
                    r.later.who,
                    r.later.chunk,
                    r.later.gcc,
                    self.ordered_by
                ),
            ));
        }
        if self.races_total > self.examples.len() as u64 {
            diagnostics.push(Diagnostic::info(
                "chunk-race-summary",
                format!(
                    "{} further chunk race(s) not listed",
                    self.races_total - self.examples.len() as u64
                ),
            ));
        }
        RaceReport {
            chunks: self.chunks,
            conflicts: self.conflicts,
            races_total: self.races_total,
            screened: self.screened,
            examples: self.examples,
            ordered_by: self.ordered_by,
            diagnostics,
        }
    }
}

/// Replays `source` to the end, detecting chunk races.
///
/// # Errors
///
/// Returns the [`InspectError`] (with the commit index it surfaced at)
/// if the stream is malformed or the replay diverges.
pub fn detect_races<S: LogSource>(
    source: S,
    opts: &RaceOptions,
) -> Result<RaceReport, InspectError> {
    let (mode, n_procs) = (source.mode(), source.n_procs());
    let mut inspector = ReplayInspector::from_source(source)?;
    inspector.collect_footprints(true);
    let mut detector = Detector::new(mode, n_procs, opts);
    while let Some(ev) = inspector.step()? {
        detector.observe(&ev);
    }
    Ok(detector.finish())
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn ev(
        gcc: u64,
        committer: Committer,
        chunk_index: u64,
        read_lines: Vec<u64>,
        write_lines: Vec<u64>,
    ) -> CommitEvent {
        CommitEvent {
            gcc,
            committer,
            chunk_index,
            size: 1,
            interrupt: false,
            truncation: delorean_chunk::TruncationReason::StandardSize,
            io_loads: 0,
            dma_words: 0,
            watch_hits: Vec::new(),
            read_lines,
            write_lines,
        }
    }

    #[test]
    fn disjoint_chunks_do_not_race() {
        let mut d = Detector::new(Mode::OrderOnly, 2, &RaceOptions::default());
        d.observe(&ev(1, Committer::Proc(0), 0, vec![1], vec![2]));
        d.observe(&ev(2, Committer::Proc(1), 0, vec![3], vec![4]));
        let r = d.finish();
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.races_total, 0);
    }

    #[test]
    fn conflicting_unordered_chunks_race() {
        let mut d = Detector::new(Mode::OrderOnly, 2, &RaceOptions::default());
        d.observe(&ev(1, Committer::Proc(0), 0, vec![], vec![7]));
        d.observe(&ev(2, Committer::Proc(1), 0, vec![7], vec![]));
        let r = d.finish();
        assert_eq!(r.conflicts, 1);
        assert_eq!(r.races_total, 1);
        assert_eq!(r.examples[0].kind, ConflictKind::WriteRead);
        assert_eq!(r.examples[0].earlier.who, "P0");
        assert_eq!(r.examples[0].later.who, "P1");
    }

    #[test]
    fn transitively_ordered_conflict_is_not_a_race() {
        let mut d = Detector::new(Mode::OrderOnly, 3, &RaceOptions::default());
        // P0 writes line 7; P1 reads it (race 1, and edge P0→P1);
        // P1 writes line 9; P2 reads 9 (race 2, edge P1→P2);
        // P2 then reads 7 — ordered after P0 transitively: no race.
        d.observe(&ev(1, Committer::Proc(0), 0, vec![], vec![7]));
        d.observe(&ev(2, Committer::Proc(1), 0, vec![7], vec![9]));
        d.observe(&ev(3, Committer::Proc(2), 0, vec![9, 7], vec![]));
        let r = d.finish();
        assert_eq!(r.conflicts, 3, "{:?}", r.examples);
        assert_eq!(r.races_total, 2, "{:?}", r.examples);
    }

    #[test]
    fn program_order_is_not_a_race() {
        let mut d = Detector::new(Mode::OrderOnly, 2, &RaceOptions::default());
        d.observe(&ev(1, Committer::Proc(0), 0, vec![], vec![5]));
        d.observe(&ev(2, Committer::Proc(0), 1, vec![5], vec![5]));
        let r = d.finish();
        assert_eq!(r.races_total, 0);
    }

    #[test]
    fn read_then_remote_write_is_rw_race() {
        let mut d = Detector::new(Mode::OrderSize, 2, &RaceOptions::default());
        d.observe(&ev(1, Committer::Proc(0), 0, vec![], vec![3]));
        d.observe(&ev(2, Committer::Proc(1), 0, vec![3], vec![]));
        d.observe(&ev(3, Committer::Proc(0), 1, vec![], vec![3]));
        let r = d.finish();
        // P1's read races with both P0 writes; the second P0 write
        // also W-W conflicts with the first but is program-ordered.
        let kinds: Vec<_> = r.examples.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ConflictKind::WriteRead));
        assert!(kinds.contains(&ConflictKind::ReadWrite));
    }

    #[test]
    fn dma_column_participates() {
        let mut d = Detector::new(Mode::OrderOnly, 2, &RaceOptions::default());
        d.observe(&ev(1, Committer::Dma, 0, vec![], vec![11]));
        d.observe(&ev(2, Committer::Proc(1), 0, vec![11], vec![]));
        let r = d.finish();
        assert_eq!(r.races_total, 1);
        assert_eq!(r.examples[0].earlier.who, "DMA");
    }

    #[test]
    fn examples_are_sorted_deterministically() {
        // P2's chunk races with both earlier writers. The detector
        // discovers the edges newest-predecessor-first, so without the
        // finish-time sort the examples would come out in descending
        // earlier-slot order.
        let mut d = Detector::new(Mode::OrderOnly, 3, &RaceOptions::default());
        d.observe(&ev(1, Committer::Proc(0), 0, vec![], vec![7]));
        d.observe(&ev(2, Committer::Proc(1), 0, vec![], vec![8]));
        d.observe(&ev(3, Committer::Proc(2), 0, vec![7, 8], vec![]));
        let r = d.finish();
        assert_eq!(r.races_total, 2);
        let keys: Vec<_> = r
            .examples
            .iter()
            .map(|e| (e.later.gcc, e.earlier.gcc, e.line))
            .collect();
        assert_eq!(keys, vec![(3, 1, 7), (3, 2, 8)]);
        // The derived warnings follow the same order.
        let warnings: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "chunk-race")
            .collect();
        assert!(warnings[0].message.contains("commit 1"), "{warnings:?}");
        assert!(warnings[1].message.contains("commit 2"), "{warnings:?}");
    }

    #[test]
    fn picolog_reports_round_robin_ordering() {
        let d = Detector::new(Mode::PicoLog, 2, &RaceOptions::default());
        assert!(d.finish().ordered_by.contains("round-robin"));
        let d = Detector::new(Mode::OrderOnly, 2, &RaceOptions::default());
        assert!(d.finish().ordered_by.contains("PI"));
    }
}

//! `.dlrn` log lint (pass 3).
//!
//! Walks a stream through [`SegmentWalker`] — which checksum-verifies
//! and decodes every frame — and layers structural invariant checks on
//! top: per-event field sanity (CS sizes, footprint shape, DMA payload
//! ranges), cross-segment counter monotonicity, and trailer totals
//! against the counted events. Every violation becomes a typed
//! [`Diagnostic`] carrying the [`StreamPosition`] it was detected at;
//! a malformed stream never panics the pass.
//!
//! The walk holds a few segments in memory at a time (the one checked
//! and at most two its decoder reads ahead), so the pass runs in
//! O(segment) space regardless of log length.

use crate::report::{diagnostics_json, Diagnostic};
use delorean::recover::SalvageReport;
use delorean::stratify::StratifiedPiLog;
use delorean::stream::{EventSegment, LogEvent, StreamMeta, StreamTrailer};
use delorean::{SegmentWalker, StreamPosition, WalkedSegment};
use delorean_chunk::{ArbiterConfig, Committer};
use delorean_isa::layout::{AddressMap, DMA_WORDS};
use std::io::Read;

/// Output of the log lint pass.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Event segments decoded.
    pub segments: u64,
    /// Commit events decoded.
    pub events: u64,
    /// Of those, DMA commits.
    pub dma_events: u64,
    /// Whether a trailer was reached.
    pub trailer_seen: bool,
    /// Findings.
    pub diagnostics: Vec<Diagnostic>,
    /// What a salvage pass would preserve, when the structural walk
    /// aborted early and a byte image was available (see
    /// [`lint_bytes`]).
    pub salvage: Option<SalvageReport>,
}

impl LintReport {
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"segments\":{},\"events\":{},\"dma_events\":{},\"trailer_seen\":{},\"diagnostics\":",
            self.segments, self.events, self.dma_events, self.trailer_seen
        ));
        diagnostics_json(&self.diagnostics, out);
        if let Some(s) = &self.salvage {
            out.push_str(",\"salvage\":");
            out.push_str(&s.to_json());
        }
        out.push('}');
    }
}

impl core::fmt::Display for LintReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "log lint: {} segment(s), {} event(s) ({} DMA), trailer {}",
            self.segments,
            self.events,
            self.dma_events,
            if self.trailer_seen {
                "present"
            } else {
                "missing"
            }
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        if let Some(s) = &self.salvage {
            for line in s.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// Running state the per-event checks accumulate.
struct LintState {
    meta: StreamMeta,
    map: AddressMap,
    events: u64,
    dma_events: u64,
    interrupts: u64,
    chunk_counts: Vec<u64>,
    diagnostics: Vec<Diagnostic>,
}

impl LintState {
    fn new(meta: StreamMeta) -> Self {
        let map = AddressMap::new(meta.n_procs);
        let chunk_counts = match &meta.interval {
            Some(s) => s.chunks_done.clone(),
            None => vec![0; meta.n_procs as usize],
        };
        Self {
            meta,
            map,
            events: 0,
            dma_events: 0,
            interrupts: 0,
            chunk_counts,
            diagnostics: Vec::new(),
        }
    }

    fn check_segment(&mut self, seg: &EventSegment, pos: StreamPosition) {
        if seg.events.is_empty() {
            self.diagnostics.push(
                Diagnostic::warning("empty-segment", "event segment carries no events").at(pos),
            );
        }
        for (i, ev) in seg.events.iter().enumerate() {
            let gcc = self.events + 1;
            let at = StreamPosition {
                byte_offset: pos.byte_offset,
                segment: pos.segment,
                commit: gcc,
            };
            self.check_event(ev, i, at);
            self.events += 1;
        }
        // The decoder regenerates per-processor counters and verifies
        // them against the segment watermarks, so a mismatch here means
        // the lint's own model drifted — still worth surfacing.
        if seg.chunk_watermarks != self.chunk_counts {
            self.diagnostics.push(
                Diagnostic::error(
                    "chunk-watermark-drift",
                    format!(
                        "segment declares chunk watermarks {:?} but counted commits give {:?}",
                        seg.chunk_watermarks, self.chunk_counts
                    ),
                )
                .at(pos),
            );
        }
        if seg.commit_watermark != self.events {
            self.diagnostics.push(
                Diagnostic::error(
                    "commit-watermark-drift",
                    format!(
                        "segment declares commit watermark {} but {} event(s) were counted",
                        seg.commit_watermark, self.events
                    ),
                )
                .at(pos),
            );
        }
    }

    fn check_event(&mut self, ev: &LogEvent, index: usize, at: StreamPosition) {
        let pi = self.meta.mode.has_pi_log();
        match ev.committer {
            Committer::Proc(p) => {
                // Proc bounds are decoder-enforced; count for trailer
                // cross-checks.
                if let Some(c) = self.chunk_counts.get_mut(p as usize) {
                    *c += 1;
                }
                if !ev.dma_data.is_empty() {
                    self.diagnostics.push(
                        Diagnostic::error(
                            "dma-data-on-proc",
                            format!("processor {p} commit (event {index}) carries a DMA payload"),
                        )
                        .at(at),
                    );
                }
            }
            Committer::Dma => {
                self.dma_events += 1;
                if ev.dma_data.is_empty() {
                    self.diagnostics.push(
                        Diagnostic::warning(
                            "dma-empty",
                            format!("DMA commit (event {index}) carries no payload"),
                        )
                        .at(at),
                    );
                }
                let lo = self.map.dma_base();
                let hi = lo + DMA_WORDS;
                for &(addr, _) in &ev.dma_data {
                    if addr < lo || addr >= hi {
                        self.diagnostics.push(
                            Diagnostic::error(
                                "dma-range",
                                format!(
                                    "DMA payload address {addr:#x} outside the DMA window [{lo:#x}, {hi:#x})"
                                ),
                            )
                            .at(at),
                        );
                        break;
                    }
                }
                if ev.cs_size.is_some() {
                    self.diagnostics.push(
                        Diagnostic::error(
                            "cs-on-dma",
                            "DMA commit carries a CS log entry".to_string(),
                        )
                        .at(at),
                    );
                }
            }
        }
        if ev.interrupt.is_some() {
            self.interrupts += 1;
        }
        // Shard stamps must agree with the header's arbiter topology.
        // A sharded recording stamps every event, but a *missing* stamp
        // is left alone: replay never reads the stamps, and the `.dlrn`
        // files older `serialize::to_bytes` rebuilt from in-memory
        // recordings carry none.
        match (self.meta.arbiter, ev.shard) {
            (ArbiterConfig::Global, Some(shard)) => {
                self.diagnostics.push(
                    Diagnostic::warning(
                        "arbiter-shard",
                        format!(
                            "event {index} in segment {} carries shard stamp {shard} but the header declares a global arbiter",
                            at.segment
                        ),
                    )
                    .at(at),
                );
            }
            (ArbiterConfig::Sharded { shards }, Some(shard)) if shard >= shards => {
                self.diagnostics.push(
                    Diagnostic::warning(
                        "arbiter-shard",
                        format!(
                            "event {index} in segment {} carries shard stamp {shard} outside the header's {shards}-shard topology",
                            at.segment
                        ),
                    )
                    .at(at),
                );
            }
            _ => {}
        }
        if let Some(size) = ev.cs_size {
            if size == 0 {
                self.diagnostics.push(
                    Diagnostic::error(
                        "cs-zero",
                        format!("CS log entry of size 0 (event {index}): a chunk cannot retire zero instructions"),
                    )
                    .at(at),
                );
            } else if size > self.meta.chunk_size {
                self.diagnostics.push(
                    Diagnostic::warning(
                        "cs-oversize",
                        format!(
                            "CS log entry of size {size} exceeds the standard chunk size {}: truncation only shrinks chunks",
                            self.meta.chunk_size
                        ),
                    )
                    .at(at),
                );
            }
        }
        if pi {
            if !ev.access_lines.windows(2).all(|w| w[0] < w[1]) {
                self.diagnostics.push(
                    Diagnostic::error(
                        "footprint-unsorted",
                        format!("accessed-line footprint of event {index} is not strictly sorted"),
                    )
                    .at(at),
                );
            }
            if !ev.write_lines.windows(2).all(|w| w[0] < w[1]) {
                self.diagnostics.push(
                    Diagnostic::error(
                        "footprint-unsorted",
                        format!("written-line footprint of event {index} is not strictly sorted"),
                    )
                    .at(at),
                );
            }
            for w in &ev.write_lines {
                if ev.access_lines.binary_search(w).is_err() {
                    self.diagnostics.push(
                        Diagnostic::warning(
                            "footprint-write-not-accessed",
                            format!(
                                "event {index} writes line {w} that its accessed-line footprint does not contain"
                            ),
                        )
                        .at(at),
                    );
                    break;
                }
            }
        } else if !ev.access_lines.is_empty() || !ev.write_lines.is_empty() {
            self.diagnostics.push(
                Diagnostic::error(
                    "footprint-without-pi",
                    format!(
                        "event {index} carries a footprint but mode {} logs none",
                        self.meta.mode
                    ),
                )
                .at(at),
            );
        }
    }

    fn check_trailer(&mut self, trailer: &StreamTrailer, at: StreamPosition) {
        let stats = &trailer.stats;
        if stats.total_commits != self.events {
            self.diagnostics.push(
                Diagnostic::error(
                    "trailer-commit-count",
                    format!(
                        "trailer reports {} total commits but the stream carries {} event(s)",
                        stats.total_commits, self.events
                    ),
                )
                .at(at),
            );
        }
        if stats.dma_commits != self.dma_events {
            self.diagnostics.push(
                Diagnostic::error(
                    "trailer-dma-count",
                    format!(
                        "trailer reports {} DMA commits but the stream carries {}",
                        stats.dma_commits, self.dma_events
                    ),
                )
                .at(at),
            );
        }
        if stats.interrupts != self.interrupts {
            self.diagnostics.push(
                Diagnostic::warning(
                    "trailer-interrupt-count",
                    format!(
                        "trailer reports {} interrupts but the stream logs {} interrupt deliveries",
                        stats.interrupts, self.interrupts
                    ),
                )
                .at(at),
            );
        }
        if stats.digest.committed_chunks != self.chunk_counts {
            self.diagnostics.push(
                Diagnostic::error(
                    "trailer-chunk-count",
                    format!(
                        "trailer digest reports per-processor chunks {:?} but counted commits give {:?}",
                        stats.digest.committed_chunks, self.chunk_counts
                    ),
                )
                .at(at),
            );
        }
    }
}

/// Lints a `.dlrn` byte stream.
///
/// Decode failures are reported as `stream-decode` [`Diagnostic`]s at
/// the position they surfaced, never as panics; the walk stops at the
/// first one (nothing after a framing error is trustworthy).
pub fn lint_stream<R: Read>(reader: R) -> LintReport {
    let mut walker = match SegmentWalker::open(reader) {
        Ok(w) => w,
        Err(e) => {
            return LintReport {
                segments: 0,
                events: 0,
                dma_events: 0,
                trailer_seen: false,
                diagnostics: vec![Diagnostic::error(
                    "stream-decode",
                    format!("stream header rejected: {e}"),
                )],
                salvage: None,
            };
        }
    };
    let mut state = LintState::new(walker.meta().clone());
    let mut segments = 0u64;
    let mut trailer_seen = false;
    loop {
        let pos = walker.position();
        match walker.next_segment() {
            Ok(WalkedSegment::Events(seg)) => {
                segments += 1;
                state.check_segment(&seg, pos);
            }
            Ok(WalkedSegment::Trailer(t)) => {
                trailer_seen = true;
                state.check_trailer(&t, pos);
            }
            Ok(WalkedSegment::End) => break,
            Err(e) => {
                state.diagnostics.push(
                    Diagnostic::error("stream-decode", format!("{}", e.error)).at(e.position),
                );
                break;
            }
        }
    }
    crate::report::sort_diagnostics(&mut state.diagnostics);
    LintReport {
        segments,
        events: state.events,
        dma_events: state.dma_events,
        trailer_seen,
        diagnostics: state.diagnostics,
        salvage: None,
    }
}

/// Lints a fully-buffered `.dlrn` image and, when the structural walk
/// aborted early or never reached the trailer, runs the salvage pass
/// of [`delorean::recover`] to report what a recovery would preserve.
///
/// Salvage findings are *warnings*, not errors: a quarantined range is
/// damage the recovery has already contained, and a lost commit range
/// is named so the operator knows exactly what replay cannot
/// reproduce. The structural diagnostic that triggered the salvage
/// (truncation, framing loss, missing trailer) keeps its severity, so
/// a damaged stream still fails `delorean analyze`.
pub fn lint_bytes(bytes: &[u8]) -> LintReport {
    let mut report = lint_stream(bytes);
    let broken =
        !report.trailer_seen || report.diagnostics.iter().any(|d| d.code == "stream-decode");
    if !broken {
        return report;
    }
    // Err means the header itself is unusable — the stream-decode
    // error already says so and there is nothing to salvage.
    if let Ok(s) = delorean::recover::salvage(bytes) {
        for q in &s.report.quarantined {
            report.diagnostics.push(
                Diagnostic::warning(
                    "salvage-quarantine",
                    format!(
                        "bytes {}..{} quarantined ({}); salvage resynchronizes after them",
                        q.byte_start, q.byte_end, q.reason
                    ),
                )
                .at(StreamPosition {
                    byte_offset: q.byte_start,
                    segment: 0,
                    commit: 0,
                }),
            );
        }
        for l in &s.report.lost {
            report.diagnostics.push(Diagnostic::warning(
                "salvage-lost",
                format!("commits {l} are unrecoverable; later regions resume from a checkpoint"),
            ));
        }
        report.salvage = Some(s.report);
        crate::report::sort_diagnostics(&mut report.diagnostics);
    }
    report
}

/// Lints a stratified PI log against the expected per-column chunk
/// totals (processors first, DMA last — the shape
/// [`Stratifier`](delorean::stratify::Stratifier) produces).
///
/// The strata are per-stratum *delta* counter vectors, so monotonicity
/// of the reconstructed absolute counters is structural; what can go
/// wrong is a delta that does not fit the declared counter width, an
/// empty stratum (wasted space), or column totals that disagree with
/// the log the strata claim to summarize.
pub fn lint_strata(log: &StratifiedPiLog, expected_totals: &[u64]) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let bits = log.counter_bits();
    let limit = if bits >= 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << bits) - 1
    };
    let mut totals = vec![0u64; expected_totals.len()];
    for (i, stratum) in log.strata().iter().enumerate() {
        if stratum.len() != expected_totals.len() {
            diagnostics.push(Diagnostic::error(
                "stratum-shape",
                format!(
                    "stratum {i} has {} column(s) but the machine has {}",
                    stratum.len(),
                    expected_totals.len()
                ),
            ));
            continue;
        }
        if stratum.iter().all(|&c| c == 0) {
            diagnostics.push(Diagnostic::warning(
                "stratum-empty",
                format!("stratum {i} is all-zero (wasted log space)"),
            ));
        }
        for (col, &delta) in stratum.iter().enumerate() {
            if u64::from(delta) > limit {
                diagnostics.push(Diagnostic::error(
                    "stratum-counter-overflow",
                    format!(
                        "stratum {i} column {col} delta {delta} does not fit the declared {bits}-bit counter"
                    ),
                ));
            }
            totals[col] += u64::from(delta);
        }
    }
    if totals != expected_totals {
        diagnostics.push(Diagnostic::error(
            "stratum-total-mismatch",
            format!(
                "stratified counters sum to {totals:?} but the log commits {expected_totals:?} chunks per column"
            ),
        ));
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::report::Severity;
    use delorean::stratify::Stratifier;
    use std::num::NonZeroU32;

    #[test]
    fn garbage_header_is_flagged_not_panicked() {
        let report = lint_stream(&b"not a dlrn stream at all"[..]);
        assert!(!report.trailer_seen);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, "stream-decode");
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn empty_input_is_flagged() {
        let report = lint_stream(&b""[..]);
        assert_eq!(report.diagnostics[0].code, "stream-decode");
    }

    #[test]
    fn truncated_stream_reports_salvage_as_warnings() {
        let machine = delorean::Machine::builder()
            .mode(delorean::Mode::OrderOnly)
            .procs(2)
            .budget(1_000)
            .chunk_size(100)
            .build();
        let w = delorean_isa::workload::by_name("fft").unwrap();
        let mut sink = delorean::FileSink::with_flush_every(Vec::new(), 4);
        machine.record_to(w, 7, &mut sink);
        let pristine = sink.into_inner().unwrap();

        // An intact stream carries no salvage section.
        let clean = lint_bytes(&pristine);
        assert!(clean.salvage.is_none());
        assert!(clean
            .diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error));

        // Truncated at half: the structural failure keeps its error
        // severity, the salvage account rides along as warnings.
        let report = lint_bytes(&pristine[..pristine.len() / 2]);
        assert!(!report.trailer_seen);
        let salvage = report.salvage.as_ref().expect("salvage section");
        assert!(salvage.recovered_commits > 0);
        assert!(!salvage.trailer_recovered);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "salvage-lost" && d.severity == Severity::Warning));
        assert!(report
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with("salvage-"))
            .all(|d| d.severity == Severity::Warning));
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error),
            "a damaged stream must still fail the lint"
        );
        let mut json = String::new();
        report.write_json(&mut json);
        assert!(json.contains("\"salvage\":{\"total_bytes\":"));
    }

    fn stamped_stream(arbiter: ArbiterConfig, stamp: Option<u32>) -> Vec<u8> {
        use delorean::stream::{LogSink, StreamMeta, StreamTrailer};
        use delorean_chunk::{ParallelStats, RunStats, StateDigest};
        let meta = StreamMeta {
            mode: delorean::Mode::OrderOnly,
            n_procs: 2,
            chunk_size: 100,
            budget: 1_000,
            workload: *delorean_isa::workload::by_name("fft").unwrap(),
            app_seed: 1,
            devices: delorean_chunk::DeviceConfig::none(),
            initial_mem_hash: 0,
            interval: None,
            arbiter,
        };
        let mut sink = delorean::FileSink::new(Vec::new());
        sink.begin(&meta);
        sink.on_event(&LogEvent {
            committer: Committer::Proc(0),
            chunk_index: 1,
            cs_size: None,
            interrupt: None,
            io_values: Vec::new(),
            dma_data: Vec::new(),
            access_lines: Vec::new(),
            write_lines: Vec::new(),
            shard: stamp,
        });
        sink.finish(&StreamTrailer {
            stats: RunStats {
                cycles: 10,
                total_commits: 1,
                squashes: 0,
                squashed_insts: 0,
                overflow_truncations: 0,
                collision_truncations: 0,
                uncached_truncations: 0,
                interrupts: 0,
                dma_commits: 0,
                stall_cycles: vec![0, 0],
                traffic_bytes: 0,
                avg_chunk_size: 100.0,
                parallel: ParallelStats::default(),
                token: None,
                work_units: 1,
                digest: StateDigest {
                    mem_hash: 0,
                    stream_hashes: vec![0, 0],
                    retired: vec![100, 0],
                    committed_chunks: vec![1, 0],
                },
            },
        });
        sink.into_inner().unwrap()
    }

    #[test]
    fn shard_stamp_outside_topology_is_flagged() {
        let bytes = stamped_stream(ArbiterConfig::Sharded { shards: 2 }, Some(5));
        let report = lint_stream(&bytes[..]);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "arbiter-shard")
            .expect("out-of-range shard stamp must be flagged");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("segment"), "{}", d.message);
        assert!(d.message.contains("shard stamp 5"), "{}", d.message);
        assert!(d.message.contains("2-shard"), "{}", d.message);
    }

    #[test]
    fn shard_stamp_under_global_header_is_flagged() {
        let bytes = stamped_stream(ArbiterConfig::Global, Some(0));
        let report = lint_stream(&bytes[..]);
        assert!(report.diagnostics.iter().any(|d| d.code == "arbiter-shard"));
    }

    #[test]
    fn unstamped_events_under_sharded_header_are_clean() {
        // `.dlrn` files older `serialize::to_bytes` wrote carry no
        // stamps; that must not warn.
        let bytes = stamped_stream(ArbiterConfig::Sharded { shards: 2 }, None);
        let report = lint_stream(&bytes[..]);
        assert!(
            report.diagnostics.iter().all(|d| d.code != "arbiter-shard"),
            "{:?}",
            report.diagnostics
        );
        let in_range = stamped_stream(ArbiterConfig::Sharded { shards: 2 }, Some(1));
        let report = lint_stream(&in_range[..]);
        assert!(report.diagnostics.iter().all(|d| d.code != "arbiter-shard"));
    }

    #[test]
    fn sharded_recording_lints_clean_end_to_end() {
        let machine = delorean::Machine::builder()
            .mode(delorean::Mode::OrderOnly)
            .procs(4)
            .budget(2_000)
            .arbiter(ArbiterConfig::Sharded { shards: 2 })
            .build();
        let w = delorean_isa::workload::by_name("fft").unwrap();
        let mut sink = delorean::FileSink::new(Vec::new());
        machine.record_to(w, 7, &mut sink);
        let report = lint_bytes(&sink.into_inner().unwrap());
        assert!(report.trailer_seen);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.severity != Severity::Error && d.code != "arbiter-shard"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn strata_totals_cross_check() {
        let mut s = Stratifier::new(NonZeroU32::new(3).unwrap(), NonZeroU32::new(4).unwrap());
        s.observe(0, &[1, 2], &[1]);
        s.observe(1, &[3], &[]);
        s.observe(0, &[1], &[1]);
        let log = s.finish();
        let mut totals = vec![0u64; 3];
        for stratum in log.strata() {
            for (c, &d) in stratum.iter().enumerate() {
                totals[c] += u64::from(d);
            }
        }
        assert!(lint_strata(&log, &totals)
            .iter()
            .all(|d| d.severity != Severity::Error));
        totals[1] += 5;
        assert!(lint_strata(&log, &totals)
            .iter()
            .any(|d| d.code == "stratum-total-mismatch"));
    }
}

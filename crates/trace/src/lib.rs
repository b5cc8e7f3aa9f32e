//! # delorean-trace: structured JSONL tracing for DeLorean sessions
//!
//! A [`JsonlTracer`] is a [`HookStage`] that serializes the typed
//! [`SubstrateEvent`] stream of a [`Session`](delorean::Session) into
//! newline-delimited JSON: one `begin` line with the stream metadata,
//! one line per substrate event (`commit` lines are the per-commit
//! spans: committer, size, truncation reason, global slot), and one
//! `end` line with the final statistics. Stages are observation-only by
//! construction, so attaching a tracer never perturbs the execution,
//! its logs, or its determinism digest; when tracing is disabled no
//! stage is stacked at all and the pipeline runs the exact pre-trace
//! fast path.
//!
//! [`validate`] is the matching reader: it checks a trace line-by-line
//! against the schema (`delorean analyze --trace` drives it) and
//! returns a [`TraceSummary`].
//!
//! ```
//! use delorean::{Machine, Mode};
//! use delorean_isa::workload;
//! use delorean_trace::{validate, JsonlTracer};
//!
//! let m = Machine::builder().mode(Mode::OrderOnly).procs(2).budget(4_000).build();
//! let mut tracer = JsonlTracer::new(Vec::new());
//! let rec = m
//!     .session()
//!     .with_stage(&mut tracer)
//!     .record(workload::by_name("fft").unwrap(), 7);
//! let (bytes, err) = tracer.finish();
//! assert!(err.is_none());
//! let summary = validate(&bytes[..]).expect("tracer output validates");
//! assert_eq!(summary.commits, rec.stats.total_commits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use delorean::json::{self, Json};
use delorean::stream::StreamMeta;
use delorean::{HookStage, Mode, SubstrateEvent};
use delorean_chunk::{Committer, RunStats, TruncationReason};
use std::io::{self, BufRead, Write};

// ---------------------------------------------------------------------------
// Tag vocabularies (shared by the emitter and the validator)
// ---------------------------------------------------------------------------

/// The stable lowercase tag a mode carries in trace lines.
pub fn mode_tag(mode: Mode) -> &'static str {
    match mode {
        Mode::OrderSize => "order_size",
        Mode::OrderOnly => "order_only",
        Mode::PicoLog => "pico_log",
    }
}

/// The stable lowercase tag a truncation reason carries in trace lines.
pub fn truncation_tag(t: TruncationReason) -> &'static str {
    match t {
        TruncationReason::StandardSize => "standard_size",
        TruncationReason::Uncached => "uncached",
        TruncationReason::BudgetEnd => "budget_end",
        TruncationReason::Overflow => "overflow",
        TruncationReason::Collision => "collision",
    }
}

const TRUNCATION_TAGS: [&str; 5] = [
    "standard_size",
    "uncached",
    "budget_end",
    "overflow",
    "collision",
];

fn committer_tag(c: Committer) -> String {
    match c {
        Committer::Proc(p) => format!("p{p}"),
        Committer::Dma => "dma".to_string(),
    }
}

// ---------------------------------------------------------------------------
// The tracer stage
// ---------------------------------------------------------------------------

/// A [`HookStage`] that writes the substrate event stream as JSONL.
///
/// Every line is one self-contained JSON object with an `"event"`
/// discriminator; the first line is always `begin`, the last (for a run
/// that completed) `end`. I/O errors are latched on first occurrence —
/// the stage goes quiet rather than panicking inside the engine — and
/// surface from [`finish`](JsonlTracer::finish).
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    out: W,
    mode: Option<Mode>,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// A tracer writing JSONL to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            mode: None,
            lines: 0,
            error: None,
        }
    }

    /// Lines emitted so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consumes the tracer, returning the writer and the first latched
    /// I/O error, if any.
    pub fn finish(mut self) -> (W, Option<io::Error>) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        (self.out, self.error)
    }

    fn line(&mut self, s: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(s.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }

    fn mode_str(&self) -> &'static str {
        self.mode.map_or("unknown", mode_tag)
    }
}

impl<W: Write> HookStage for JsonlTracer<W> {
    fn on_begin(&mut self, meta: &StreamMeta) {
        self.mode = Some(meta.mode);
        let line = format!(
            "{{\"event\":\"begin\",\"mode\":\"{}\",\"procs\":{},\"chunk_size\":{},\"budget\":{},\"workload\":\"{}\",\"app_seed\":{},\"initial_mem_hash\":\"{:#018x}\",\"interval\":{}}}",
            mode_tag(meta.mode),
            meta.n_procs,
            meta.chunk_size,
            meta.budget,
            json::escape(meta.workload.name),
            meta.app_seed,
            meta.initial_mem_hash,
            meta.interval.is_some(),
        );
        self.line(&line);
    }

    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        let line = event_line(time, self.mode_str(), ev);
        self.line(&line);
    }

    fn on_end(&mut self, stats: &RunStats) {
        let line = format!(
            "{{\"event\":\"end\",\"cycles\":{},\"commits\":{},\"squashes\":{},\"interrupts\":{},\"dma_commits\":{},\"mem_hash\":\"{:#018x}\"}}",
            stats.cycles,
            stats.total_commits,
            stats.squashes,
            stats.interrupts,
            stats.dma_commits,
            stats.digest.mem_hash,
        );
        self.line(&line);
    }
}

/// Serializes one [`SubstrateEvent`] as a trace line (no trailing
/// newline). This is the single emitter behind both [`JsonlTracer`]
/// and `delorean inspect --json`, so every consumer of the schema
/// shares one source of truth. `mode` is the [`mode_tag`] of the run.
pub fn event_line(time: u64, mode: &str, ev: &SubstrateEvent) -> String {
    match *ev {
        SubstrateEvent::ChunkStart { core, index, target } => format!(
            "{{\"event\":\"chunk_start\",\"t\":{time},\"core\":{core},\"chunk\":{index},\"target\":{target}}}"
        ),
        SubstrateEvent::Commit {
            committer,
            chunk_index,
            size,
            truncation,
            global_slot,
            interrupt,
            io_loads,
            dma_words,
        } => format!(
            "{{\"event\":\"commit\",\"t\":{time},\"mode\":\"{}\",\"committer\":\"{}\",\"chunk\":{chunk_index},\"size\":{size},\"truncation\":\"{}\",\"slot\":{global_slot},\"interrupt\":{interrupt},\"io_loads\":{io_loads},\"dma_words\":{dma_words}}}",
            json::escape(mode),
            committer_tag(committer),
            truncation_tag(truncation),
        ),
        SubstrateEvent::Interrupt { core, vector } => format!(
            "{{\"event\":\"irq\",\"t\":{time},\"core\":{core},\"vector\":{vector}}}"
        ),
        SubstrateEvent::Dma { words } => {
            format!("{{\"event\":\"dma\",\"t\":{time},\"words\":{words}}}")
        }
        SubstrateEvent::Squash { core, chunks, insts } => format!(
            "{{\"event\":\"squash\",\"t\":{time},\"core\":{core},\"chunks\":{chunks},\"insts\":{insts}}}"
        ),
        SubstrateEvent::SegmentFlush {
            segments,
            bytes,
            commits,
        } => format!(
            "{{\"event\":\"segment_flush\",\"t\":{time},\"segments\":{segments},\"bytes\":{bytes},\"commits\":{commits}}}"
        ),
    }
}

// ---------------------------------------------------------------------------
// Trace validation
// ---------------------------------------------------------------------------

/// What a validated trace contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total JSONL lines.
    pub lines: u64,
    /// The mode tag from the `begin` line.
    pub mode: String,
    /// The workload name from the `begin` line.
    pub workload: String,
    /// Processor count from the `begin` line.
    pub procs: u64,
    /// `commit` lines seen (must match the `end` line's count).
    pub commits: u64,
    /// `chunk_start` lines seen.
    pub chunk_starts: u64,
    /// `squash` lines seen.
    pub squashes: u64,
    /// `irq` lines seen.
    pub interrupts: u64,
    /// `segment_flush` lines seen.
    pub segment_flushes: u64,
    /// Simulated cycles from the `end` line.
    pub cycles: u64,
}

/// A schema violation at a specific trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: u64,
    /// What was wrong.
    pub detail: String,
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for TraceError {}

fn err(line: u64, detail: impl Into<String>) -> TraceError {
    TraceError {
        line,
        detail: detail.into(),
    }
}

fn get_u64(obj: &Json, key: &str, line: u64) -> Result<u64, TraceError> {
    obj.get(key)
        .and_then(Json::as_num)
        // Not `Json::as_u64`, which stops at 2^53: seeds and budgets
        // span the whole u64 range.
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| err(line, format!("missing or non-integer field \"{key}\"")))
}

fn get_str<'j>(obj: &'j Json, key: &str, line: u64) -> Result<&'j str, TraceError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err(line, format!("missing or non-string field \"{key}\"")))
}

/// Validates a JSONL trace read from `input` against the
/// [`JsonlTracer`] schema: a `begin` first line, an `end` last line, a
/// well-formed object per line, known tags, non-decreasing event
/// times, strictly increasing commit slots, and an `end` commit count
/// that matches the `commit` lines.
///
/// # Errors
///
/// Returns the first [`TraceError`] encountered.
pub fn validate<R: io::Read>(input: R) -> Result<TraceSummary, TraceError> {
    let reader = io::BufReader::new(input);
    let mut lineno: u64 = 0;
    let mut begin: Option<(String, String, u64)> = None;
    let mut end: Option<(u64, u64)> = None;
    let mut commits = 0u64;
    let mut chunk_starts = 0u64;
    let mut squashes = 0u64;
    let mut interrupts = 0u64;
    let mut segment_flushes = 0u64;
    let mut last_time = 0u64;
    let mut last_slot = 0u64;
    for raw in reader.lines() {
        lineno += 1;
        let raw = raw.map_err(|e| err(lineno, format!("I/O error: {e}")))?;
        if raw.trim().is_empty() {
            return Err(err(lineno, "blank line in trace"));
        }
        let obj = Json::parse(&raw).map_err(|e| err(lineno, e))?;
        if obj.as_obj().is_none() {
            return Err(err(lineno, "line is not a JSON object"));
        }
        if end.is_some() {
            return Err(err(lineno, "content after the \"end\" line"));
        }
        let kind = get_str(&obj, "event", lineno)?.to_string();
        if lineno == 1 && kind != "begin" {
            return Err(err(lineno, "trace must start with a \"begin\" line"));
        }
        if lineno > 1 && kind == "begin" {
            return Err(err(lineno, "duplicate \"begin\" line"));
        }
        if kind != "begin" && kind != "end" {
            let t = get_u64(&obj, "t", lineno)?;
            if t < last_time {
                return Err(err(
                    lineno,
                    format!("event time went backwards: {t} after {last_time}"),
                ));
            }
            last_time = t;
        }
        match kind.as_str() {
            "begin" => {
                let mode = get_str(&obj, "mode", lineno)?;
                if !["order_size", "order_only", "pico_log"].contains(&mode) {
                    return Err(err(lineno, format!("unknown mode tag \"{mode}\"")));
                }
                let workload = get_str(&obj, "workload", lineno)?.to_string();
                let procs = get_u64(&obj, "procs", lineno)?;
                get_u64(&obj, "chunk_size", lineno)?;
                get_u64(&obj, "budget", lineno)?;
                get_u64(&obj, "app_seed", lineno)?;
                begin = Some((mode.to_string(), workload, procs));
            }
            "commit" => {
                commits += 1;
                let committer = get_str(&obj, "committer", lineno)?;
                let is_proc = committer
                    .strip_prefix('p')
                    .is_some_and(|rest| rest.parse::<u32>().is_ok());
                if !is_proc && committer != "dma" {
                    return Err(err(
                        lineno,
                        format!("bad committer \"{committer}\" (want \"pN\" or \"dma\")"),
                    ));
                }
                let truncation = get_str(&obj, "truncation", lineno)?;
                if !TRUNCATION_TAGS.contains(&truncation) {
                    return Err(err(
                        lineno,
                        format!("unknown truncation tag \"{truncation}\""),
                    ));
                }
                get_u64(&obj, "chunk", lineno)?;
                get_u64(&obj, "size", lineno)?;
                let slot = get_u64(&obj, "slot", lineno)?;
                if slot <= last_slot {
                    return Err(err(
                        lineno,
                        format!("commit slot not increasing: {slot} after {last_slot}"),
                    ));
                }
                last_slot = slot;
            }
            "chunk_start" => {
                chunk_starts += 1;
                get_u64(&obj, "core", lineno)?;
                get_u64(&obj, "chunk", lineno)?;
                get_u64(&obj, "target", lineno)?;
            }
            "squash" => {
                squashes += 1;
                get_u64(&obj, "core", lineno)?;
                get_u64(&obj, "chunks", lineno)?;
                get_u64(&obj, "insts", lineno)?;
            }
            "irq" => {
                interrupts += 1;
                get_u64(&obj, "core", lineno)?;
                get_u64(&obj, "vector", lineno)?;
            }
            "dma" => {
                get_u64(&obj, "words", lineno)?;
            }
            "segment_flush" => {
                segment_flushes += 1;
                get_u64(&obj, "segments", lineno)?;
                get_u64(&obj, "bytes", lineno)?;
                get_u64(&obj, "commits", lineno)?;
            }
            "end" => {
                let c = get_u64(&obj, "commits", lineno)?;
                let cycles = get_u64(&obj, "cycles", lineno)?;
                get_str(&obj, "mem_hash", lineno)?;
                if c != commits {
                    return Err(err(
                        lineno,
                        format!("\"end\" reports {c} commits but the trace has {commits}"),
                    ));
                }
                end = Some((c, cycles));
            }
            other => return Err(err(lineno, format!("unknown event \"{other}\""))),
        }
    }
    let Some((mode, workload, procs)) = begin else {
        return Err(err(lineno.max(1), "empty trace (no \"begin\" line)"));
    };
    let Some((_, cycles)) = end else {
        return Err(err(lineno, "trace has no \"end\" line (truncated run?)"));
    };
    Ok(TraceSummary {
        lines: lineno,
        mode,
        workload,
        procs,
        commits,
        chunk_starts,
        squashes,
        interrupts,
        segment_flushes,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean::Machine;
    use delorean_isa::workload;

    fn traced_bytes(mode: Mode) -> (Vec<u8>, delorean::Recording) {
        let m = Machine::builder().mode(mode).procs(2).budget(4_000).build();
        let mut tracer = JsonlTracer::new(Vec::new());
        let rec = m
            .session()
            .with_stage(&mut tracer)
            .record(workload::by_name("fft").unwrap(), 7);
        let (bytes, e) = tracer.finish();
        assert!(e.is_none());
        (bytes, rec)
    }

    #[test]
    fn traces_validate_for_every_mode() {
        for mode in Mode::all() {
            let (bytes, rec) = traced_bytes(mode);
            let summary = validate(&bytes[..]).unwrap();
            assert_eq!(summary.mode, mode_tag(mode));
            assert_eq!(summary.workload, "fft");
            assert_eq!(summary.commits, rec.stats.total_commits);
            assert_eq!(summary.cycles, rec.stats.cycles);
            assert!(summary.chunk_starts >= summary.commits - rec.stats.dma_commits);
        }
    }

    #[test]
    fn commit_lines_carry_the_span_fields() {
        let (bytes, _) = traced_bytes(Mode::OrderOnly);
        let text = String::from_utf8(bytes).unwrap();
        let commit = text
            .lines()
            .find(|l| l.contains("\"event\":\"commit\""))
            .expect("at least one commit line");
        for field in [
            "\"mode\":",
            "\"committer\":",
            "\"size\":",
            "\"truncation\":",
            "\"slot\":",
        ] {
            assert!(commit.contains(field), "{field} missing from {commit}");
        }
    }

    #[test]
    fn truncated_traces_are_rejected() {
        let (bytes, _) = traced_bytes(Mode::OrderOnly);
        let text = String::from_utf8(bytes).unwrap();
        let without_end: String = text
            .lines()
            .filter(|l| !l.contains("\"event\":\"end\""))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
        let e = validate(without_end.as_bytes()).unwrap_err();
        assert!(e.detail.contains("no \"end\""), "{e}");
    }

    #[test]
    fn tampered_commit_counts_are_rejected() {
        let (bytes, _) = traced_bytes(Mode::OrderOnly);
        let text = String::from_utf8(bytes).unwrap();
        let mut dropped = false;
        let tampered: String = text
            .lines()
            .filter(|l| {
                if !dropped && l.contains("\"event\":\"commit\"") {
                    dropped = true;
                    false
                } else {
                    true
                }
            })
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
        let e = validate(tampered.as_bytes()).unwrap_err();
        assert!(e.detail.contains("commits"), "{e}");
    }

    #[test]
    fn garbage_is_rejected_with_a_line_number() {
        let e = validate(&b"{\"event\":\"begin\",\"mode\":\"order_only\",\"workload\":\"fft\",\"procs\":2,\"chunk_size\":2000,\"budget\":1,\"app_seed\":0}\nnot json\n"[..])
            .unwrap_err();
        assert_eq!(e.line, 2);
    }
}

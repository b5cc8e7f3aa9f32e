//! Typed diagnostics and the combined analysis report.
//!
//! Every analysis pass reports through [`Diagnostic`]s — a severity, a
//! stable machine-readable code, a human message and (for stream-level
//! findings) the [`StreamPosition`] the problem was detected at. The
//! CLI aggregates the passes into one [`AnalysisReport`] with both a
//! human rendering ([`core::fmt::Display`]) and a hand-rolled JSON
//! encoding (the build environment is offline, so no serde).

use delorean::json;
use delorean::StreamPosition;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context worth surfacing; never affects the exit code.
    Info,
    /// Suspicious but not provably broken (e.g. a potential race).
    Warning,
    /// A violated invariant: the stream is corrupt or inconsistent.
    Error,
}

impl Severity {
    /// Lower-case label used in both report renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Stream position, for findings tied to a `.dlrn` byte stream.
    pub position: Option<StreamPosition>,
}

impl Diagnostic {
    /// An [`Severity::Info`] diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(Severity::Info, code, message)
    }

    /// A [`Severity::Warning`] diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(Severity::Warning, code, message)
    }

    /// An [`Severity::Error`] diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(Severity::Error, code, message)
    }

    fn new(severity: Severity, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity,
            code,
            message: message.into(),
            position: None,
        }
    }

    /// Attaches the stream position the finding was detected at.
    pub fn at(mut self, position: StreamPosition) -> Self {
        self.position = Some(position);
        self
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.severity.label(),
            self.code,
            self.message
        )?;
        if let Some(p) = &self.position {
            write!(f, " (at {p})")?;
        }
        Ok(())
    }
}

pub(crate) fn diagnostic_json(d: &Diagnostic, out: &mut String) {
    out.push_str(&format!(
        "{{\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\"",
        d.severity.label(),
        json::escape(d.code),
        json::escape(&d.message)
    ));
    if let Some(p) = &d.position {
        out.push_str(&format!(
            ",\"position\":{{\"segment\":{},\"commit\":{},\"byte_offset\":{}}}",
            p.segment, p.commit, p.byte_offset
        ));
    }
    out.push('}');
}

/// Stable deterministic ordering for a diagnostic list: positioned
/// findings first in (segment, commit, byte offset) order, then by
/// code; positionless findings keep their relative emission order at
/// the end. Makes `analyze --json` byte-stable regardless of the order
/// checks happened to fire in.
pub(crate) fn sort_diagnostics(ds: &mut [Diagnostic]) {
    ds.sort_by_key(|d| match &d.position {
        Some(p) => (0u8, p.segment, p.commit, p.byte_offset, d.code),
        None => (1, 0, 0, 0, ""),
    });
}

pub(crate) fn diagnostics_json(ds: &[Diagnostic], out: &mut String) {
    out.push('[');
    for (i, d) in ds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        diagnostic_json(d, out);
    }
    out.push(']');
}

/// The combined output of a `delorean analyze` invocation.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Workload name from the stream metadata.
    pub workload: String,
    /// Execution mode of the stream.
    pub mode: String,
    /// Processors in the recorded machine.
    pub n_procs: u32,
    /// Static footprint / race pass output, when run.
    pub static_pass: Option<crate::footprint::FootprintReport>,
    /// Chunk-granularity race detection output, when run.
    pub races: Option<crate::races::RaceReport>,
    /// Log lint output, when run.
    pub lint: Option<crate::lint::LintReport>,
    /// Chunk dependence-graph pass output, when run.
    pub deps: Option<crate::deps::DepsReport>,
}

impl AnalysisReport {
    /// Iterates all diagnostics across the executed passes.
    pub fn diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        let s = self.static_pass.iter().flat_map(|p| p.diagnostics.iter());
        let r = self.races.iter().flat_map(|p| p.diagnostics.iter());
        let l = self.lint.iter().flat_map(|p| p.diagnostics.iter());
        let d = self.deps.iter().flat_map(|p| p.diagnostics.iter());
        s.chain(r).chain(l).chain(d)
    }

    /// Number of [`Severity::Error`] diagnostics (drives the exit code).
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of [`Severity::Warning`] diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics().filter(|d| d.severity == sev).count()
    }

    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"procs\":{}",
            json::escape(&self.workload),
            json::escape(&self.mode),
            self.n_procs
        ));
        if let Some(p) = &self.static_pass {
            out.push_str(",\"static\":");
            p.write_json(&mut out);
        }
        if let Some(p) = &self.races {
            out.push_str(",\"chunk_races\":");
            p.write_json(&mut out);
        }
        if let Some(p) = &self.lint {
            out.push_str(",\"lint\":");
            p.write_json(&mut out);
        }
        if let Some(p) = &self.deps {
            out.push_str(",\"deps\":");
            p.write_json(&mut out);
        }
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{}}}",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl core::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "analysis of {} ({}, {} procs)",
            self.workload, self.mode, self.n_procs
        )?;
        if let Some(p) = &self.static_pass {
            write!(f, "{p}")?;
        }
        if let Some(p) = &self.races {
            write!(f, "{p}")?;
        }
        if let Some(p) = &self.lint {
            write!(f, "{p}")?;
        }
        if let Some(p) = &self.deps {
            write!(f, "{p}")?;
        }
        writeln!(
            f,
            "summary: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn diagnostics_sort_positioned_first_then_stable() {
        let pos = |seg, commit, byte| StreamPosition {
            byte_offset: byte,
            segment: seg,
            commit,
        };
        let mut ds = vec![
            Diagnostic::warning("later", "x").at(pos(2, 5, 9)),
            Diagnostic::info("free-first", "x"),
            Diagnostic::error("early", "x").at(pos(1, 2, 1)),
            Diagnostic::info("free-second", "x"),
        ];
        sort_diagnostics(&mut ds);
        let codes: Vec<_> = ds.iter().map(|d| d.code).collect();
        // Positioned findings in stream order; positionless keep their
        // emission order at the end (stable sort).
        assert_eq!(codes, vec!["early", "later", "free-first", "free-second"]);
    }

    #[test]
    fn diagnostic_display_carries_position() {
        let d = Diagnostic::error("bad-checksum", "segment checksum mismatch").at(StreamPosition {
            byte_offset: 99,
            segment: 2,
            commit: 128,
        });
        let s = d.to_string();
        assert!(s.contains("error [bad-checksum]"), "{s}");
        assert!(s.contains("segment 2"), "{s}");
        let mut j = String::new();
        diagnostic_json(&d, &mut j);
        assert!(j.contains("\"byte_offset\":99"), "{j}");
    }
}

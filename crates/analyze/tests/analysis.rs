//! End-to-end tests over the three analysis passes: a racy catalog
//! workload must produce confirmed chunk races, a data-race-free
//! workload must produce none, lint-accepted streams must replay
//! without divergence, and corrupted streams must be flagged — never
//! panicked on.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{serialize, FileSource, Machine, Mode, Recording};
use delorean_analyze::{
    analyze_workload, detect_races, lint_stream, RaceOptions, Severity, StaticOptions,
};
use delorean_isa::workload::{self, WorkloadSpec};
use proptest::prelude::*;
use std::io::Cursor;

fn record(spec: WorkloadSpec, mode: Mode, procs: u32, seed: u64) -> (Machine, Recording) {
    let machine = Machine::builder()
        .mode(mode)
        .procs(procs)
        .budget(4_000)
        .build();
    let recording = machine.record(&spec, seed);
    (machine, recording)
}

/// A workload with genuinely unsynchronized shared accesses: no locks,
/// no barriers, cross-thread shared traffic.
fn racy_spec() -> WorkloadSpec {
    *workload::by_name("radix").expect("radix is in the catalog")
}

/// A data-race-free workload: every access stays in the thread's
/// private region (no shared traffic at all, no locks needed).
fn drf_spec() -> WorkloadSpec {
    WorkloadSpec {
        shared_frac: 0.0,
        lock_every: 0,
        barrier_every_iters: 0,
        ..WorkloadSpec::test_spec()
    }
}

#[test]
fn racy_catalog_workload_yields_confirmed_chunk_races() {
    let (_, recording) = record(racy_spec(), Mode::OrderOnly, 4, 11);
    let report = detect_races(recording.source(), &RaceOptions::default())
        .expect("intact recording replays");
    assert!(
        report.races_total >= 1,
        "radix shares unsynchronized lines across threads; expected at least one \
         chunk pair ordered only by the commit log, got {report:?}"
    );
    assert!(!report.examples.is_empty());
    // The static pass agrees: it flags unsynchronized conflicting pairs.
    let footprints = analyze_workload(
        &recording.meta.workload,
        recording.meta.n_procs,
        recording.meta.app_seed,
        &StaticOptions::default(),
    );
    assert!(
        footprints.racy_sites > 0,
        "static pass should flag radix's unlocked shared stores"
    );
}

#[test]
fn drf_workload_yields_zero_races() {
    let (_, recording) = record(drf_spec(), Mode::OrderOnly, 4, 11);
    let report = detect_races(recording.source(), &RaceOptions::default())
        .expect("intact recording replays");
    assert_eq!(
        report.races_total, 0,
        "a private-only workload cannot race: {:?}",
        report.examples
    );
    let footprints = analyze_workload(
        &recording.meta.workload,
        recording.meta.n_procs,
        recording.meta.app_seed,
        &StaticOptions::default(),
    );
    assert_eq!(
        footprints.racy_sites, 0,
        "static pass must not flag private-only accesses: {:?}",
        footprints.examples
    );
}

#[test]
fn race_detection_works_across_all_modes() {
    for mode in Mode::all() {
        let (_, recording) = record(racy_spec(), mode, 4, 7);
        let report = detect_races(recording.source(), &RaceOptions::default())
            .expect("intact recording replays");
        assert!(
            report.races_total >= 1,
            "{mode}: expected chunk races in radix"
        );
        assert!(
            !report.ordered_by.is_empty(),
            "{mode}: report names the ordering authority"
        );
    }
}

fn error_count(diags: &[delorean_analyze::Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A stream the lint pass accepts (no error findings) replays to
    /// the end without divergence.
    #[test]
    fn lint_accepted_streams_replay_without_divergence(
        seed in 0u64..1000,
        mode_tag in 0u8..3,
        procs in 2u32..5,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_tag as usize];
        let (machine, recording) = record(racy_spec(), mode, procs, seed);
        let bytes = serialize::to_bytes(&recording);
        let lint = lint_stream(Cursor::new(&bytes[..]));
        prop_assert_eq!(
            error_count(&lint.diagnostics), 0,
            "an intact recording must lint clean: {:?}", lint.diagnostics
        );
        prop_assert!(lint.trailer_seen);
        let source = FileSource::open(Cursor::new(&bytes[..])).unwrap();
        let report = detect_races(source, &RaceOptions::default()).unwrap();
        prop_assert_eq!(report.chunks, recording.stats.total_commits);
        let replay = machine.replay(&recording).unwrap();
        prop_assert!(replay.deterministic, "{:?}", replay.divergence);
    }

    /// Any single byte flip is flagged with an error finding — and
    /// never a panic — by both the lint pass and the replay pass.
    #[test]
    fn corrupted_streams_are_flagged_not_panicked(
        seed in 0u64..1000,
        frac in 0.0f64..1.0,
    ) {
        let (_, recording) = record(drf_spec(), Mode::OrderOnly, 2, seed);
        let mut bytes = serialize::to_bytes(&recording);
        // Skip the 4-byte magic: flipping it is the trivially-detected
        // case already covered by unit tests.
        let idx = 4 + ((bytes.len() - 5) as f64 * frac) as usize;
        bytes[idx] ^= 0x40;
        let lint = lint_stream(Cursor::new(&bytes[..]));
        prop_assert!(
            error_count(&lint.diagnostics) >= 1,
            "flip at byte {idx} of {} must be flagged: {:?}",
            bytes.len(), lint.diagnostics
        );
        // The replay pass surfaces the corruption as an error, not a
        // panic: either the header fails to open or replay fails
        // mid-stream with a commit index.
        match FileSource::open(Cursor::new(&bytes[..])) {
            Err(_) => {}
            Ok(source) => {
                prop_assert!(detect_races(source, &RaceOptions::default()).is_err());
            }
        }
    }

    /// Truncating a stream anywhere is flagged, never panicked on.
    #[test]
    fn truncated_streams_are_flagged_not_panicked(
        seed in 0u64..1000,
        frac in 0.0f64..1.0,
    ) {
        let (_, recording) = record(drf_spec(), Mode::OrderOnly, 2, seed);
        let bytes = serialize::to_bytes(&recording);
        let cut = 1 + ((bytes.len() - 2) as f64 * frac) as usize;
        let lint = lint_stream(Cursor::new(&bytes[..cut]));
        prop_assert!(
            error_count(&lint.diagnostics) >= 1,
            "cut at byte {cut} of {} must be flagged: {:?}",
            bytes.len(), lint.diagnostics
        );
    }
}

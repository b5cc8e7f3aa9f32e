//! End-to-end tests of the sweep engine's headline guarantees:
//!
//! * `--jobs 1` and `--jobs 8` produce byte-identical documents
//!   (modulo wall-time fields, i.e. in canonical form);
//! * a `--figure` subset reproduces the full sweep's records exactly;
//! * `BenchRecord` round-trips through the JSON codec for arbitrary
//!   field values;
//! * failure paths are typed errors, never partial output.

use delorean::json::Json;
use delorean_bench::{
    diff_against, parse_document, run_sweep, BenchError, BenchRecord, Figure, StageTimings,
    SweepConfig, SCHEMA_VERSION,
};
use proptest::prelude::*;

/// A cheap but representative sweep: fig10 exercises substrate
/// baselines, chunked execution and all three recording modes; tab06
/// adds the token-statistics extras.
fn small_config(jobs: usize) -> SweepConfig {
    SweepConfig {
        figures: vec![Figure::Fig10, Figure::Tab06],
        jobs,
        // Workloads retire work units only every ~1k instructions, so
        // keep budgets at 2k (20k / 10).
        budget_div: 10,
        ..SweepConfig::default()
    }
}

#[test]
fn results_are_byte_identical_at_any_parallelism() {
    let serial = run_sweep(&small_config(1)).expect("serial sweep");
    let parallel = run_sweep(&small_config(8)).expect("parallel sweep");
    assert_eq!(serial.workers, 1);
    assert_eq!(parallel.workers, 8);

    let a = serial.canonical_json().pretty();
    let b = parallel.canonical_json().pretty();
    assert_eq!(a, b, "--jobs 1 and --jobs 8 diverged");

    // The full (non-canonical) documents differ only in volatile
    // fields; their records agree on every deterministic field.
    for (s, p) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(s.canonical(), p.canonical(), "{}", s.id);
    }
}

#[test]
fn figure_subset_reproduces_full_sweep_records() {
    let both = run_sweep(&small_config(2)).expect("two-figure sweep");
    let only = run_sweep(&SweepConfig {
        figures: vec![Figure::Tab06],
        ..small_config(2)
    })
    .expect("subset sweep");
    for r in &only.records {
        let twin = both
            .records
            .iter()
            .find(|b| b.id == r.id)
            .unwrap_or_else(|| panic!("{} missing from full sweep", r.id));
        assert_eq!(r.canonical(), twin.canonical(), "{}", r.id);
    }
    // The shared figure's summary metrics agree too.
    let pick = |res: &delorean_bench::SweepResults| {
        res.summaries
            .iter()
            .find(|s| s.figure == "tab06")
            .expect("tab06 summary")
            .clone()
    };
    assert_eq!(pick(&only), pick(&both));
}

#[test]
fn document_survives_disk_round_trip_and_diffs_clean() {
    let res = run_sweep(&SweepConfig {
        figures: vec![Figure::Tab06],
        jobs: 2,
        budget_div: 10,
        ..SweepConfig::default()
    })
    .expect("sweep");
    let text = res.to_json().pretty();
    let doc = Json::parse(&text).expect("document parses");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    let baseline = parse_document(&text).expect("records parse");
    let report = diff_against(&res, &baseline, 25.0);
    assert!(report.passed(), "{}", report.render());
}

#[test]
fn zero_budget_is_a_typed_error_not_partial_output() {
    let err = run_sweep(&SweepConfig {
        figures: vec![Figure::Fig10],
        budget_div: u64::MAX,
        ..SweepConfig::default()
    })
    .expect_err("zero budget must not run");
    match err {
        BenchError::ZeroBudget { job } => assert!(job.starts_with("fig10/"), "{job}"),
        other => panic!("expected ZeroBudget, got {other}"),
    }
}

/// JSON numbers are f64, exact for integers up to 2^53 — counters are
/// serialized as numbers and must stay below that; only the seed
/// (hex string) spans the full u64 range.
const MAX_EXACT: u64 = 1 << 53;

/// Strategy for a `BenchRecord` with arbitrary (finite) field values.
fn record_strategy() -> impl Strategy<Value = BenchRecord> {
    (
        (
            0u64..MAX_EXACT,
            0u64..u64::MAX,
            0u64..MAX_EXACT,
            0u64..MAX_EXACT,
        ),
        (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX),
        (0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9),
        (0u64..1_000_000, proptest::bool::ANY, 0u64..MAX_EXACT),
        proptest::collection::vec((0u32..5, 0.0f64..1e6), 0..4),
    )
        .prop_map(|(u, n, f, (rss, det, arb), extras)| BenchRecord {
            id: format!("fig{:02}/w{}/m{}/c{}/p{}", n.0 % 13, n.1, n.2, u.0, u.1),
            figure: format!("fig{:02}", n.0 % 13),
            workload: format!("w{}", n.1),
            mode: format!("m{}", n.2),
            chunk_size: n.0,
            procs: n.1,
            budget: u.0,
            seed: u.1,
            cycles: u.2,
            work_units: u.3,
            commits: u.0 ^ u.2,
            traffic_bytes: u.0 ^ u.3,
            raw_bits_pp_pki: f.0,
            comp_bits_pp_pki: f.1,
            replays: n.2 % 8,
            replay_cycles: u.2 ^ u.3,
            replay_deterministic: det,
            extra: extras
                .into_iter()
                .enumerate()
                .map(|(i, (k, v))| (format!("k{}_{}", i, k), v))
                .collect(),
            wall_ms: f.2,
            peak_rss_kb: rss,
            timings: StageTimings {
                record_ms: f.3,
                replay_ms: f.0 / 2.0,
                compress_ms: f.1 / 2.0,
                arb_cycles: arb,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Serialization is lossless: struct -> JSON -> text -> JSON ->
    /// struct is the identity for arbitrary field values, including
    /// full-range u64 seeds (which do not fit in an f64 JSON number)
    /// and shortest-round-trip floats.
    #[test]
    fn bench_record_round_trips_through_json(record in record_strategy()) {
        let text = record.to_json().pretty();
        let parsed = Json::parse(&text).expect("emitted JSON parses");
        let back = BenchRecord::from_json(&parsed).expect("record deserializes");
        prop_assert_eq!(&back, &record);
        // And the emission is a fixed point: re-serializing the parsed
        // record yields the same bytes.
        prop_assert_eq!(back.to_json().pretty(), text);
    }
}

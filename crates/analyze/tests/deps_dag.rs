//! End-to-end tests over the dependence-graph pass: every catalog
//! workload × mode must verify the recorded commit order as a linear
//! extension of the exact chunk dependence DAG, and its `analyze --deps
//! --json` document must be byte-deterministic; a synthetically
//! reordered log must be rejected with an error finding; a truncated
//! stream must degrade to a `partial` graph naming the lost ranges; and
//! the race pass must agree with the reduced DAG.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::json::Json;
use delorean::{serialize, ArbiterConfig, FileSink, Machine, Mode, Recording};
use delorean_analyze::{
    deps_from_bytes, races_and_deps, AnalysisReport, DepsOptions, DepsReport, RaceOptions, Severity,
};
use delorean_chunk::Committer;
use delorean_isa::workload::{self, WorkloadSpec};
use proptest::prelude::*;

fn record(
    spec: &WorkloadSpec,
    mode: Mode,
    procs: u32,
    seed: u64,
    budget: u64,
    arbiter: ArbiterConfig,
) -> Recording {
    let mut b = Machine::builder();
    b.mode(mode).procs(procs).budget(budget).arbiter(arbiter);
    b.build().record(spec, seed)
}

fn error_count(report: &DepsReport) -> usize {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// The `analyze --deps --json` document of `report`, every other pass
/// skipped.
fn deps_json(report: DepsReport) -> String {
    AnalysisReport {
        workload: report.workload.clone(),
        mode: report.mode.clone(),
        n_procs: report.n_procs,
        static_pass: None,
        races: None,
        lint: None,
        deps: Some(report),
    }
    .to_json()
}

/// Every catalog workload, in every mode, on 4 and 8 processors under
/// the global arbiter and on 16 under a 4-shard one: the recorded commit
/// order is a linear extension of the exact dependence DAG (no error
/// findings, info verdict present) over a complete, non-partial graph.
/// The race pass, fed from the same replay, computes the same relation:
/// a chunk race is a conflict edge that nothing but the commit log
/// orders, which is exactly an edge of the DAG's transitive reduction
/// between different committers.
#[test]
fn catalog_commit_orders_are_linear_extensions() {
    let topologies = [
        (4, ArbiterConfig::Global),
        (8, ArbiterConfig::Global),
        (16, ArbiterConfig::Sharded { shards: 4 }),
    ];
    let (mut recordings, mut racy) = (0, 0);
    for spec in workload::catalog() {
        for mode in Mode::all() {
            for (procs, arbiter) in topologies {
                let bytes = serialize::to_bytes(&record(spec, mode, procs, 11, 2_000, arbiter));
                let opts = RaceOptions::default();
                let (races, report) = races_and_deps(&bytes, Some(&opts), &DepsOptions::default());
                let tag = format!("{}/{mode}/{procs} procs", spec.name);
                assert!(report.replay_complete, "{tag}: replay failed");
                assert_eq!(error_count(&report), 0, "{tag}: {:?}", report.diagnostics);
                assert!(
                    report
                        .diagnostics
                        .iter()
                        .any(|d| d.code == "linear-extension" && d.severity == Severity::Info),
                    "{tag}: missing linear-extension verdict"
                );
                assert!(!report.partial, "{tag}");
                assert!(!report.nodes.is_empty(), "{tag}");
                let who = |slot: u64| &report.nodes[slot as usize - 1].who;
                let reduced = report.reduced_edges.iter();
                let cross = reduced.filter(|&&(a, b)| who(a) != who(b)).count();
                assert_eq!(races.map(|r| r.races_total), Some(cross as u64), "{tag}");
                recordings += 1;
                racy += usize::from(cross > 0);
            }
        }
    }
    assert!(racy > recordings / 2, "{racy} of {recordings} race");
}

/// Swapping two adjacent, exactly-conflicting commit events of different
/// processors produces a log whose commit order is *not* a linear
/// extension of the dependence DAG — the pass must flag it with a
/// [`Severity::Error`] finding (either the linear-extension verdict or
/// a replay failure), never accept it.
#[test]
fn reordered_conflicting_commits_are_rejected() {
    let spec = workload::by_name("radix").expect("radix is in the catalog");
    let rec = record(spec, Mode::OrderOnly, 4, 11, 4_000, ArbiterConfig::Global);
    let events = &rec.events;
    let conflicts = |i: usize, j: usize| {
        let hit = |w: &[u64], a: &[u64]| w.iter().any(|l| a.binary_search(l).is_ok());
        hit(&events[i].write_lines, &events[j].access_lines)
            || hit(&events[j].write_lines, &events[i].access_lines)
    };
    let mut rejected = false;
    let mut tried = 0;
    for i in 0..events.len().saturating_sub(1) {
        // Only cross-processor swaps keep each per-processor stream
        // well-formed (chunk indices are assigned in per-proc order).
        let (Committer::Proc(a), Committer::Proc(b)) =
            (events[i].committer, events[i + 1].committer)
        else {
            continue;
        };
        if a == b || !conflicts(i, i + 1) || tried >= 8 {
            continue;
        }
        tried += 1;
        let mut reordered = rec.clone();
        reordered.events.swap(i, i + 1);
        let bytes = serialize::to_bytes(&reordered);
        let report = deps_from_bytes(&bytes, &DepsOptions::default());
        if error_count(&report) >= 1 {
            rejected = true;
            break;
        }
    }
    assert!(tried > 0, "radix must have adjacent conflicting commits");
    assert!(
        rejected,
        "no swapped conflicting pair was flagged in {tried} attempt(s)"
    );
}

/// A truncated multi-segment stream degrades gracefully: the pass
/// builds the graph over the salvaged prefix, and the JSON document
/// marks it `"partial":true` with the lost ranges.
#[test]
fn truncated_streams_yield_partial_graphs() {
    let spec = workload::by_name("radix").expect("radix is in the catalog");
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(4)
        .budget(4_000)
        .chunk_size(500)
        .build();
    let mut sink = FileSink::with_flush_every(Vec::new(), 8);
    machine.record_to(spec, 11, &mut sink);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
    let cut = bytes.len() * 3 / 4;
    let report = deps_from_bytes(&bytes[..cut], &DepsOptions::default());
    assert!(report.partial, "{:?}", report.diagnostics);
    assert!(!report.lost_ranges.is_empty());
    assert!(!report.nodes.is_empty(), "prefix contributes a graph");
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == "deps-partial" && d.severity == Severity::Warning));
    let lost = report.lost_ranges.clone();
    let text = deps_json(report);
    assert!(text.contains("\"partial\":true"), "{text}");
    let doc = Json::parse(&text).expect("the report is JSON");
    let ranges: Vec<&str> = doc
        .get("deps")
        .and_then(|d| d.get("lost_ranges"))
        .and_then(Json::as_arr)
        .expect("deps.lost_ranges is an array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(ranges, lost);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Across sampled workload/mode/seed/topology points: the pass
    /// accepts the recording (linear extension holds) and its
    /// `analyze --deps --json` document is byte-identical across two
    /// independent runs.
    #[test]
    fn deps_json_is_byte_deterministic(
        workload_idx in 0usize..workload::catalog().len(),
        mode_tag in 0u8..3,
        seed in 0u64..1000,
        procs in 2u32..5,
        sharded in proptest::bool::ANY,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_tag as usize];
        let arbiter = if sharded {
            ArbiterConfig::Sharded { shards: 4 }
        } else {
            ArbiterConfig::Global
        };
        let spec = &workload::catalog()[workload_idx];
        let rec = record(spec, mode, procs, seed, 2_000, arbiter);
        let bytes = serialize::to_bytes(&rec);
        let a = deps_from_bytes(&bytes, &DepsOptions::default());
        let b = deps_from_bytes(&bytes, &DepsOptions::default());
        prop_assert_eq!(error_count(&a), 0, "{:?}", a.diagnostics);
        prop_assert_eq!(deps_json(a), deps_json(b), "the deps JSON must be byte-deterministic");
    }
}

//! Property tests for crash-consistent log recovery: *any* byte-level
//! corruption of a valid `.dlrn` stream either salvages to regions
//! that replay bit-identically to ground truth, or reports a
//! structured failure. Never a panic, never silent divergence.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::recover::{salvage, RecoveringSource};
use delorean::{index_stream, serialize, FileSink, Machine, Mode, Recording};
use delorean_chunk::StartState;
use delorean_isa::workload;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

fn record(mode: Mode, seed: u64) -> (Machine, Vec<u8>) {
    let machine = Machine::builder()
        .mode(mode)
        .procs(2)
        .budget(2_000)
        .chunk_size(200)
        .build();
    let w = workload::by_name("fft").unwrap();
    let mut sink = FileSink::with_flush_every(Vec::new(), 4);
    machine.record_to(w, seed, &mut sink);
    (machine, sink.into_inner().unwrap())
}

/// Steps `insp` exactly `n` commits and returns the state reached.
fn step_exactly<S: delorean::LogSource>(mut insp: ReplayInspector<S>, n: u64) -> StartState {
    for k in 0..n {
        match insp.step() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("replay ended after {k} of {n} recovered commits"),
            Err(e) => panic!("replay failed at recovered commit {k}: {e}"),
        }
    }
    insp.capture()
}

/// Ground-truth state at commit `gcc` of the pristine recording.
fn state_at(recording: &Recording, gcc: u64) -> StartState {
    let mut insp = ReplayInspector::new(recording).expect("recording fits its machine");
    while insp.gcc() < gcc {
        insp.step()
            .expect("pristine replay")
            .expect("enough commits");
    }
    insp.capture()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Salvage of an arbitrarily corrupted stream never panics, and
    /// every region it recovers replays to the exact architectural
    /// state of the pristine execution.
    #[test]
    fn corruption_salvages_verifiably_or_fails_structurally(
        seed in 0u64..200,
        mode_tag in 0u8..3,
        kind in 0u8..4,
        a in 0u64..1_000_000,
        b in 1u64..256,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_tag as usize];
        let (_machine, pristine) = record(mode, seed);
        let recording = serialize::from_bytes(&pristine).unwrap();
        let gt = salvage(&pristine).unwrap();
        prop_assert!(gt.report.is_intact());
        let gt_events = &gt.regions[0].events;

        let len = pristine.len() as u64;
        let mut damaged = pristine.clone();
        match kind {
            0 => {
                // Single-bit flip anywhere.
                let off = (a % len) as usize;
                damaged[off] ^= 1 << (b % 8);
            }
            1 => {
                // Truncate anywhere.
                damaged.truncate((a % len) as usize);
            }
            2 => {
                // Garbage burst.
                let off = (a % len) as usize;
                let end = (off + b as usize).min(damaged.len());
                for (i, byte) in damaged[off..end].iter_mut().enumerate() {
                    *byte = (a ^ b).wrapping_mul(i as u64 + 1) as u8;
                }
            }
            _ => {
                // Duplicate a span (replayed write buffer).
                let off = (a % len) as usize;
                let end = (off + b as usize).min(damaged.len());
                let dup = damaged[off..end].to_vec();
                let tail = damaged.split_off(end);
                damaged.extend_from_slice(&dup);
                damaged.extend_from_slice(&tail);
            }
        }

        match salvage(&damaged) {
            // Structured failure: header damage has a typed error.
            Err(_) => {}
            Ok(s) => {
                let total_gt = gt_events.len() as u64;
                for (i, r) in s.regions.iter().enumerate() {
                    // Never claim commits the pristine run does not have.
                    prop_assert!(
                        r.range.last <= total_gt,
                        "region {i} claims {} beyond ground truth {total_gt}",
                        r.range
                    );
                    // Decoded events must match ground truth exactly.
                    let slice =
                        &gt_events[(r.range.first - 1) as usize..r.range.last as usize];
                    prop_assert!(
                        r.events == slice,
                        "region {i} events diverge from ground truth on {}",
                        r.range
                    );
                }
                // Report arithmetic: recovered commits add up.
                let sum: u64 = s.report.recovered.iter().map(|r| r.len()).sum();
                prop_assert_eq!(sum, s.report.recovered_commits);
                // The recovered prefix replays bit-identically.
                if let Some(src) = RecoveringSource::prefix(&s) {
                    let n = src.commits();
                    let insp = ReplayInspector::from_source(src).unwrap();
                    let reached = step_exactly(insp, n);
                    prop_assert!(
                        reached == state_at(&recording, n),
                        "salvaged prefix of {n} commits diverged from ground truth"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `RecoveringSource` × checkpoints: a salvaged stream with
    /// quarantined ranges resumes each post-gap region from the nearest
    /// surviving `.dlrnx` checkpoint at or before the damage, replays
    /// it bit-identically to ground truth, and reports exactly the same
    /// lost-commit ranges as the salvage alone — the sidecar changes
    /// what is *replayable*, never what is *lost*.
    #[test]
    fn damaged_streams_resume_from_nearest_surviving_checkpoint(
        seed in 0u64..200,
        mode_tag in 0u8..3,
        k in 1u64..7,
        frac in 0.05f64..0.9,
        burst in 1usize..96,
        noise in 1u64..u64::MAX,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_tag as usize];
        let (_machine, pristine) = record(mode, seed);
        let recording = serialize::from_bytes(&pristine).unwrap();
        let index = index_stream(&pristine, k).unwrap();
        let total = index.total_commits;

        // Burn a burst of garbage into the stream.
        let mut damaged = pristine.clone();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let off = (damaged.len() as f64 * frac) as usize;
        let end = (off + burst).min(damaged.len());
        for (i, byte) in damaged[off..end].iter_mut().enumerate() {
            *byte = noise.wrapping_mul(i as u64 + 1) as u8;
        }

        // A destroyed header is a typed error with nothing to resume.
        // (No early `return`: it would end the whole case loop.)
        if let Ok(s) = salvage(&damaged) {
            // Loss accounting is independent of checkpoints: recovered and
            // lost ranges must partition [1, total] exactly.
            if let Some(total_s) = s.report.total_commits {
                prop_assert_eq!(total_s, total);
                let mut seen = vec![false; total_s as usize];
                let lost_spans = s
                    .report
                    .lost
                    .iter()
                    .map(|l| (l.first, l.last.unwrap_or(total_s)));
                let spans = s.report.recovered.iter().map(|r| (r.first, r.last));
                for (first, last) in spans.chain(lost_spans) {
                    for g in first..=last {
                        prop_assert!(
                            !seen[(g - 1) as usize],
                            "commit {g} counted twice across recovered + lost"
                        );
                        seen[(g - 1) as usize] = true;
                    }
                }
                prop_assert!(
                    seen.iter().all(|&m| m),
                    "some commit is neither recovered nor reported lost"
                );
            }

            for (i, r) in s.regions.iter().enumerate() {
                // The lost range each resume bridges is reported exactly.
                if i > 0 {
                    let prev_last = s.regions[i - 1].range.last;
                    if r.range.first > prev_last + 1 {
                        let g = s.gap_before(i).unwrap();
                        prop_assert_eq!(g.first, prev_last + 1);
                        prop_assert_eq!(g.last, Some(r.range.first - 1));
                    }
                }
                let boundary = r.range.first - 1;
                match RecoveringSource::resume_from_index(&s, i, &index) {
                    Ok(src) => {
                        let n = src.commits();
                        prop_assert_eq!(n, r.range.last - r.range.first + 1);
                        let insp = ReplayInspector::from_source(src).unwrap();
                        let reached = step_exactly(insp, n);
                        prop_assert!(
                            reached == state_at(&recording, r.range.last),
                            "checkpoint-resumed region {i} ({}) diverged from ground truth",
                            r.range
                        );
                    }
                    Err(msg) => {
                        // A refusal is legitimate only when no checkpoint
                        // survives exactly at the region boundary.
                        prop_assert!(
                            index.entries.iter().all(|e| e.gcc != boundary),
                            "resume refused although a checkpoint survives at \
                             commit {boundary}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

/// The full crashtest matrix passes and is byte-deterministic per seed.
#[test]
fn crashtest_matrix_passes_and_is_deterministic() {
    let mut cfg = delorean_faults::CrashtestConfig::smoke(42);
    cfg.workloads = vec!["fft".to_string()];
    let a = delorean_faults::run_crashtest(&cfg).unwrap();
    assert!(a.passed(), "{}", a.render());
    let b = delorean_faults::run_crashtest(&cfg).unwrap();
    assert_eq!(a.render(), b.render(), "matrix must be deterministic");
}

//! Property-based tests over the core invariants.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::{serialize, Machine, Mode};
use delorean_baselines::{verify_log_covers, DependenceTracker, FdrRecorder};
use delorean_isa::workload::{WorkloadKind, WorkloadSpec};
use delorean_mem::Signature;
use delorean_sim::{AccessRecord, AccessSink};
use proptest::prelude::*;

/// Random but valid workload specs.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.2..0.5f64,                          // mem_frac
        0.1..0.6f64,                          // shared_frac
        0.1..0.7f64,                          // write_frac
        0.0..0.2f64,                          // hot_frac
        0.0..0.8f64,                          // cross_frac
        0.0..0.9f64,                          // irregular
        prop_oneof![Just(0u32), 200..800u32], // lock_every
        prop_oneof![Just(0u32), 2..6u32],     // barrier_every_iters
        prop_oneof![Just(0u32), 300..900u32], // io_every
    )
        .prop_map(
            |(mem, sh, wr, hot, cross, irr, lock, bar, io)| WorkloadSpec {
                name: "prop",
                kind: if io > 0 {
                    WorkloadKind::Commercial
                } else {
                    WorkloadKind::Splash
                },
                mem_frac: mem,
                shared_frac: sh,
                write_frac: wr,
                hot_frac: hot,
                hot_words: 32,
                shared_span: 4096,
                cross_frac: cross,
                private_span: 2048,
                irregular: irr,
                lock_every: lock,
                lock_count: 16,
                lock_skew: 0.3,
                crit_len: 9,
                barrier_every_iters: bar,
                io_every: io,
                sys_every: if io > 0 { io * 2 } else { 0 },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The headline property: any recording replays deterministically
    /// under different machine timing, in every mode.
    #[test]
    fn replay_is_deterministic(
        spec in arb_spec(),
        seed in 0u64..1_000_000,
        mode_sel in 0u8..3,
        replay_seed in 0u64..1_000_000,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_sel as usize];
        let m = Machine::builder()
            .mode(mode)
            .procs(3)
            .budget(4_000)
            .timing_seed(seed ^ 0xabcd)
            .build();
        let recording = m.record(&spec, seed);
        let report = m.replay_with_seed(&recording, replay_seed).unwrap();
        prop_assert!(
            report.deterministic,
            "{mode} diverged: {:?}",
            report.divergence
        );
    }

    /// FDR's transitive reduction never loses a dependence, for any
    /// access stream.
    #[test]
    fn fdr_reduction_sound(ops in proptest::collection::vec(
        (0u32..3, 1u64..4, 0u64..12, proptest::bool::ANY), 1..400))
    {
        let mut icounts = [0u64; 3];
        let mut tracker = DependenceTracker::new();
        let mut fdr = FdrRecorder::new(3);
        let mut all = Vec::new();
        for (proc, stride, line, write) in ops {
            icounts[proc as usize] += stride;
            let rec = AccessRecord { proc, icount: icounts[proc as usize], line, write };
            all.extend(tracker.observe(&rec));
            fdr.record(rec);
        }
        let log = fdr.finish();
        prop_assert_eq!(verify_log_covers(3, log.entries(), &all), None);
    }

    /// Signatures never report false negatives.
    #[test]
    fn signature_no_false_negatives(lines in proptest::collection::vec(0u64..u64::MAX, 0..300)) {
        let mut sig = Signature::new();
        for &l in &lines {
            sig.insert(l);
        }
        for &l in &lines {
            prop_assert!(sig.may_contain(l));
        }
    }

    /// LZ77 round-trips arbitrary byte streams.
    #[test]
    fn lz77_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = delorean_compress::lz77::compress(&data);
        prop_assert_eq!(delorean_compress::lz77::decompress(&packed).unwrap(), data);
    }

    /// Bit-stream round trip for arbitrary width/value sequences.
    #[test]
    fn bitstream_round_trip(items in proptest::collection::vec((1u32..=64, any::<u64>()), 0..200)) {
        let mut w = delorean_compress::BitWriter::new();
        let masked: Vec<(u32, u64)> = items
            .iter()
            .map(|&(width, v)| (width, if width == 64 { v } else { v & ((1u64 << width) - 1) }))
            .collect();
        for &(width, v) in &masked {
            w.write_bits(v, width);
        }
        let bytes = w.into_bytes();
        let mut r = delorean_compress::BitReader::new(&bytes);
        for &(width, v) in &masked {
            prop_assert_eq!(r.read_bits(width), Some(v));
        }
    }

    /// The independent software replayer agrees with the recording for
    /// arbitrary workloads and modes (two implementations, one
    /// semantics).
    #[test]
    fn software_replayer_agrees(
        spec in arb_spec(),
        seed in 0u64..1_000_000,
        mode_sel in 0u8..3,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_sel as usize];
        let m = Machine::builder().mode(mode).procs(3).budget(3_000).build();
        let recording = m.record(&spec, seed);
        let report = ReplayInspector::new(&recording).unwrap().run_to_end().unwrap();
        prop_assert!(report.matches_recording, "{mode}: {:?}", report.mismatch);
    }

    /// The deserializer never panics on arbitrary bytes — it returns
    /// an error instead (robustness against corrupt or hostile logs).
    #[test]
    fn deserializer_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = serialize::from_bytes(&bytes);
    }

    /// Bit flips anywhere in a valid recording are always *detected*
    /// (checksum) or produce a decodable-but-checked structure — never
    /// a panic.
    #[test]
    fn bitflips_are_detected(seed in 0u64..10_000, pos_frac in 0.0f64..1.0) {
        let m = Machine::builder().mode(Mode::OrderOnly).procs(2).budget(2_000).build();
        let rec = m.record(&WorkloadSpec::test_spec(), seed);
        let mut bytes = serialize::to_bytes(&rec);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x40;
        if serialize::from_bytes(&bytes).is_ok() {
            prop_assert!(pos < 14, "flips past the frame header must be caught");
        }
    }

    /// Stratified PI logs conserve chunks and never split a
    /// processor's program order.
    #[test]
    fn stratification_conserves_chunks(
        seed in 0u64..100_000,
        max in 1u32..8,
    ) {
        let m = Machine::builder().mode(Mode::OrderOnly).procs(4).budget(4_000).build();
        let spec = WorkloadSpec::test_spec();
        let recording = m.record(&spec, seed);
        let strat = recording.stratified_pi(max).unwrap();
        prop_assert_eq!(strat.total_chunks(), recording.logs().pi.len() as u64);
        for s in strat.strata() {
            for &c in s {
                prop_assert!(c <= max);
            }
        }
    }
}

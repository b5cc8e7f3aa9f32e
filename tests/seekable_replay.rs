//! Checkpointed, seekable replay: the byte-identity contract of
//! `replay_window` / `state_at` over `.dlrnx` checkpoint indexes.
//!
//! A window replayed from a restored snapshot must be indistinguishable
//! — digest fingerprint, verdict, divergence, errors — from a full
//! slot-0 replay of the same recording, for every replayer and any
//! checkpoint interval or start commit.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::{
    index_stream, serialize, CheckpointError, CheckpointIndex, FileSource, Machine, Mode,
    ReplayCursor,
};
use delorean_isa::workload;
use proptest::prelude::*;
use std::io::Cursor;

fn machine(mode: Mode, procs: u32) -> Machine {
    Machine::builder()
        .mode(mode)
        .procs(procs)
        .budget(6_000)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The tentpole contract: for random catalog programs, checkpoint
    /// intervals K and start commits N, `replay_window(N, end)` via
    /// snapshot restore equals full serial replay — digest fingerprint,
    /// verdict and divergence — for the engine replayer and the software
    /// inspector.
    #[test]
    fn window_replay_is_byte_identical_to_full_replay(
        app_sel in 0usize..6,
        mode_sel in 0u8..3,
        seed in 0u64..100_000,
        k in 1u64..120,
        start_frac in 0.0..1.0f64,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_sel as usize];
        let apps = ["fft", "lu", "radix", "barnes", "ocean", "sjbb2k"];
        let app = workload::by_name(apps[app_sel]).unwrap();
        let m = machine(mode, 4);
        let rec = m.record(app, seed);
        let bytes = serialize::to_bytes(&rec);
        let full = m.replay_from(FileSource::open(&bytes[..]).unwrap()).unwrap();
        let index = index_stream(&bytes, k).unwrap();
        let total = index.total_commits;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let from = (total as f64 * start_frac) as u64;

        // Engine window.
        let mut cursor = ReplayCursor::open(Cursor::new(bytes.clone()), index.clone()).unwrap();
        let win = m.replay_window(&mut cursor, from, None).unwrap();
        prop_assert_eq!(win.stats.digest.fingerprint(), full.stats.digest.fingerprint());
        prop_assert_eq!(win.deterministic, full.deterministic);
        prop_assert_eq!(&win.divergence, &full.divergence);

        // Software inspector window, run to the recording's end.
        let ins = m.replay_window(&mut cursor, from, Some(total)).unwrap();
        prop_assert_eq!(ins.stats.digest.fingerprint(), full.stats.digest.fingerprint());
        prop_assert!(ins.deterministic, "{:?}", ins.divergence);
    }

    /// `state_at` through a checkpoint seek equals the slot-0
    /// roll-forward `Recording::checkpoint_at`, at every probed commit.
    #[test]
    fn state_at_equals_slot_zero_roll_forward(
        mode_sel in 0u8..3,
        seed in 0u64..100_000,
        k in 1u64..90,
        at_frac in 0.0..1.0f64,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_sel as usize];
        let m = machine(mode, 4);
        let rec = m.record(workload::by_name("fft").unwrap(), seed);
        let bytes = serialize::to_bytes(&rec);
        let index = index_stream(&bytes, k).unwrap();
        let total = index.total_commits;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let gcc = ((total as f64 * at_frac) as u64).max(1);
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        let fast = m.state_at(&mut cursor, gcc).unwrap();
        let slow = rec.checkpoint_at(gcc).unwrap();
        prop_assert_eq!(fast.state, slow.state);
    }

    /// Any tampering with the `.dlrnx` bytes is a typed error — never a
    /// silent fallback to slot 0.
    #[test]
    fn tampered_index_never_loads(
        seed in 0u64..100_000,
        flip in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let m = machine(Mode::OrderOnly, 2);
        let rec = m.record(workload::by_name("lu").unwrap(), seed);
        let bytes = serialize::to_bytes(&rec);
        let mut encoded = index_stream(&bytes, 32).unwrap().to_bytes();
        let pos = flip % encoded.len();
        encoded[pos] ^= 1 << bit;
        match CheckpointIndex::from_bytes(&encoded) {
            Err(
                CheckpointError::BadMagic
                | CheckpointError::BadVersion(_)
                | CheckpointError::BadChecksum
                | CheckpointError::Truncated(_)
                | CheckpointError::Malformed(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
            Ok(decoded) => {
                // The only byte flips that can survive are inside the
                // fingerprint fields themselves — which then refuse to
                // validate against the true source bytes.
                prop_assert!(
                    matches!(
                        decoded.validate_against(&bytes),
                        Err(CheckpointError::SourceMismatch(_))
                    ) || decoded == index_stream(&bytes, 32).unwrap(),
                    "tampered index validated against its source"
                );
            }
        }
    }
}

/// Where a `.dlrnx` body starts: the `magic | version | checksum` head
/// and the body length come first.
const DLRNX_BODY: usize = 22;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A bit flip anywhere in the body breaks the frame checksum, and the
    /// frame is judged before any field: the error is exactly
    /// `BadChecksum`, never a `Truncated` or `Malformed` read of the
    /// damaged field. Half the flips land in the index and first entry
    /// heads, whose damage would otherwise read as such errors.
    #[test]
    fn body_bit_flips_are_bad_checksums(
        seed in 0u64..100_000,
        near_head in proptest::bool::ANY,
        flip in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let m = machine(Mode::OrderOnly, 2);
        let rec = m.record(workload::by_name("lu").unwrap(), seed);
        let mut encoded = index_stream(&serialize::to_bytes(&rec), 32).unwrap().to_bytes();
        let span = if near_head { 96 } else { encoded.len() - DLRNX_BODY };
        let pos = DLRNX_BODY + flip % span;
        encoded[pos] ^= 1 << bit;
        let result = CheckpointIndex::from_bytes(&encoded);
        prop_assert!(
            matches!(result, Err(CheckpointError::BadChecksum)),
            "flip at byte {pos}: {:?}",
            result.as_ref().err()
        );
    }
}

/// Windows over a recording with interrupts and DMA transfers, started
/// at every commit: the PicoLog DMA slots queued before a window start
/// must be renumbered relative to it, which no catalog recording in the
/// proptests exercises (their device periods exceed the budget).
#[test]
fn device_windows_match_full_replay_at_every_start() {
    let devices = delorean_chunk::DeviceConfig {
        irq_period: 6_000,
        dma_period: 9_000,
        dma_words: 16,
    };
    for mode in [Mode::PicoLog, Mode::OrderOnly, Mode::OrderSize] {
        let m = Machine::builder()
            .mode(mode)
            .procs(4)
            .budget(12_000)
            .devices(devices)
            .build();
        let rec = m.record(workload::by_name("sjbb2k").unwrap(), 17);
        assert!(rec.stats.dma_commits > 0, "{mode}: no DMA commit recorded");
        let bytes = serialize::to_bytes(&rec);
        let full = m
            .replay_from(FileSource::open(&bytes[..]).unwrap())
            .unwrap();
        assert!(full.deterministic, "{mode}: {:?}", full.divergence);
        let index = index_stream(&bytes, 7).unwrap();
        let total = index.total_commits;
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        for from in 0..=total {
            let win = m.replay_window(&mut cursor, from, None).unwrap();
            assert_eq!(
                win.stats.digest, full.stats.digest,
                "{mode}: engine window from {from}"
            );
            assert!(
                win.deterministic,
                "{mode} from {from}: {:?}",
                win.divergence
            );
            let ins = m.replay_window(&mut cursor, from, Some(total)).unwrap();
            assert_eq!(
                ins.stats.digest, full.stats.digest,
                "{mode}: inspector window from {from}"
            );
            let fast = m.state_at(&mut cursor, from).unwrap();
            assert_eq!(
                fast,
                rec.checkpoint_at(from).unwrap(),
                "{mode}: state at {from}"
            );
        }
    }
}

/// A window resumed mid-stream feeds the same commit stream to the
/// inspector as a slot-0 replay truncated to the window — checked
/// commit-by-commit, not just by final digest.
#[test]
fn window_commit_stream_matches_truncated_full_stream() {
    let m = machine(Mode::PicoLog, 4);
    let rec = m.record(workload::by_name("radix").unwrap(), 23);
    let bytes = serialize::to_bytes(&rec);
    let index = index_stream(&bytes, 40).unwrap();
    let total = index.total_commits;
    let from = total / 2;

    // Full stream: step a slot-0 inspector past `from`, record the rest.
    let mut full = ReplayInspector::from_source(FileSource::open(&bytes[..]).unwrap()).unwrap();
    let mut tail = Vec::new();
    while let Some(ev) = full.step().unwrap() {
        if ev.gcc > from {
            tail.push((ev.committer, ev.chunk_index, ev.size));
        }
    }

    // Window stream: seek, roll forward, inspect the rest.
    let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
    let ck = m.state_at(&mut cursor, from).unwrap();
    assert_eq!(ck.gcc, from);
    let win = m.replay_window(&mut cursor, from, Some(total)).unwrap();
    assert!(win.deterministic, "{:?}", win.divergence);
    assert_eq!(win.stats.total_commits, total - from);
    assert_eq!(tail.len() as u64, total - from);
}

//! Pipeline-refactor safety net: recording digests and `.dlrn` bytes
//! must be byte-identical to the golden baseline captured from the
//! pre-`Session` code, for the full workload catalog × all three
//! modes, no matter how many no-op `HookStage`s are stacked on top.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{
    index_stream, serialize, ArbiterConfig, FileSink, FileSource, Fnv, HookStage, Machine, Mode,
    NoopStage, ReplayError, RunStats, StateDigest, SubstrateEvent,
};
use delorean_chunk::DeviceConfig;
use delorean_isa::workload;
use proptest::prelude::*;

const MODES: [Mode; 3] = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog];
const GOLDEN: &str = include_str!("golden/session_digests.txt");
const PROCS: u32 = 4;
const BUDGET: u64 = 6_000;
const SEED: u64 = 2026;

fn machine(mode: Mode) -> Machine {
    Machine::builder()
        .mode(mode)
        .procs(PROCS)
        .budget(BUDGET)
        .build()
}

/// Stable fingerprint of a `StateDigest`: folds every field through
/// FNV so the golden file stays one value per line.
fn digest_fingerprint(d: &StateDigest) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&d.mem_hash.to_le_bytes());
    for part in [&d.stream_hashes, &d.retired, &d.committed_chunks] {
        bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
        for v in part {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    Fnv::of(&bytes)
}

fn mode_tag(mode: Mode) -> &'static str {
    match mode {
        Mode::OrderSize => "ordersize",
        Mode::OrderOnly => "orderonly",
        Mode::PicoLog => "picolog",
    }
}

/// One golden line per (workload, mode): digest fingerprint, stream
/// byte hash, stream length.
fn current_line(workload: &str, mode: Mode) -> String {
    recorded_line(&machine(mode), workload, SEED).0
}

/// The golden-format line for one recording of `workload` on `m`, the
/// recording's statistics and its streamed `.dlrn` bytes.
fn recorded_line(m: &Machine, workload: &str, seed: u64) -> (String, RunStats, Vec<u8>) {
    let w = workload::by_name(workload).expect("catalog workload");
    let recording = m.record(w, seed);
    let mut sink = FileSink::new(Vec::new());
    m.record_to(w, seed, &mut sink);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
    let line = format!(
        "{workload} {} {:016x} {:016x} {}",
        mode_tag(m.mode()),
        digest_fingerprint(&recording.stats.digest),
        Fnv::of(&bytes),
        bytes.len()
    );
    (line, recording.stats, bytes)
}

/// Acceptance: the refactor onto the `Session` pipeline left every
/// recording digest and every `.dlrn` byte stream identical to the
/// baseline captured before the refactor. Regenerate (only when the
/// recording format intentionally changes) with
/// `DELOREAN_REGEN_GOLDEN=1 cargo test -q golden_catalog` and commit
/// the printed lines to `tests/golden/session_digests.txt`.
#[test]
fn golden_catalog_digests_and_bytes_are_stable() {
    let mut fresh = Vec::new();
    for w in workload::catalog() {
        for mode in MODES {
            fresh.push(current_line(w.name, mode));
        }
    }
    let fresh = fresh.join("\n") + "\n";
    if std::env::var("DELOREAN_REGEN_GOLDEN").is_ok() {
        println!("{fresh}");
        // Tests run with the package root (crates/core) as cwd.
        std::fs::write("../../tests/golden/session_digests.txt", &fresh).expect("write golden");
        return;
    }
    assert_eq!(
        GOLDEN, fresh,
        "recording output drifted from the pre-refactor golden baseline"
    );
}

/// Lines for recordings the golden catalog never makes: at its budget
/// no workload records a DMA transfer, and it runs only the global
/// arbiter on four processors. The first three are `sjbb2k` with DMA in
/// every mode, the last a 16-processor `radix` on a 4-shard arbiter.
const PINNED: [&str; 4] = [
    "sjbb2k ordersize c25e3a0aff471238 13568010142194e4 30148",
    "sjbb2k orderonly 534d9d430a0b0d77 8d6d8f2573948e51 28929",
    "sjbb2k picolog 6b43810ca579d676 31af7156ee880b27 2668",
    "radix orderonly ef6af8f6d09cea71 48365ad63b6ab73f 35377",
];

/// The machines, workloads and seeds behind [`PINNED`], in order.
fn pinned_runs() -> Vec<(Machine, &'static str, u64)> {
    let devices = DeviceConfig {
        irq_period: 6_000,
        dma_period: 9_000,
        dma_words: 16,
    };
    let mut runs: Vec<_> = MODES
        .iter()
        .map(|&mode| {
            let m = Machine::builder()
                .mode(mode)
                .procs(4)
                .budget(12_000)
                .devices(devices)
                .build();
            (m, "sjbb2k", 17)
        })
        .collect();
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(16)
        .budget(BUDGET)
        .arbiter(ArbiterConfig::Sharded { shards: 4 })
        .build();
    runs.push((m, "radix", SEED));
    runs
}

/// The engine's DMA commit path and its sharded grant and squash paths
/// leave every digest and `.dlrn` byte as pinned.
#[test]
fn dma_and_sharded_recordings_are_pinned() {
    let mut fresh = Vec::new();
    for (m, workload, seed) in pinned_runs() {
        let (line, stats, _) = recorded_line(&m, workload, seed);
        if workload == "radix" {
            assert!(stats.squashes > 0, "{line}: no squash recorded");
        } else {
            assert!(stats.dma_commits > 0, "{line}: no DMA transfer recorded");
        }
        fresh.push(line);
    }
    assert_eq!(fresh, PINNED);
}

/// `.dlrnx` indexes with a checkpoint every 64 commits over the
/// [`PINNED`] recordings: workload, mode, FNV-1a and length of each.
const DLRNX_PINNED: [&str; 4] = [
    "sjbb2k ordersize 3327658e102f34af 1066339",
    "sjbb2k orderonly 0eaca3f665d6e70d 1066339",
    "sjbb2k picolog 13efbf59491e15f0 2132747",
    "radix orderonly fb854c534e7f64d8 5285707",
];

/// The `.dlrnx` encoder writes every index byte as pinned.
#[test]
fn dlrnx_indexes_of_pinned_recordings_are_pinned() {
    let fresh: Vec<String> = pinned_runs()
        .iter()
        .map(|(m, workload, seed)| {
            let (_, _, bytes) = recorded_line(m, workload, *seed);
            let index = index_stream(&bytes, 64)
                .expect("a pinned log indexes")
                .to_bytes();
            format!(
                "{workload} {} {:016x} {}",
                mode_tag(m.mode()),
                Fnv::of(&index),
                index.len()
            )
        })
        .collect();
    assert_eq!(fresh, DLRNX_PINNED);
}

/// The golden line for one (workload, mode), as committed.
fn golden_line(workload: &str, mode: Mode) -> &'static str {
    let key = format!("{workload} {} ", mode_tag(mode));
    GOLDEN
        .lines()
        .find(|l| l.starts_with(&key))
        .expect("every catalog (workload, mode) has a golden line")
}

/// A stage that reads everything and changes nothing: observation-only
/// like [`NoopStage`], but a distinct type so stacks mix stage kinds.
#[derive(Default)]
struct PassiveProbe {
    events: u64,
    insts: u64,
}

impl HookStage for PassiveProbe {
    fn on_event(&mut self, _time: u64, ev: &SubstrateEvent) {
        self.events += 1;
        if let SubstrateEvent::Commit { size, .. } = ev {
            self.insts += u64::from(*size);
        }
    }
}

/// Builds a session with the stage stack `stack` describes: `0` picks
/// the next `NoopStage`, anything else the next `PassiveProbe`, so the
/// stack order doubles as a permutation of stage kinds.
fn stacked_session<'m, 's>(
    m: &'m Machine,
    stack: &[u8],
    noops: &'s mut [NoopStage],
    probes: &'s mut [PassiveProbe],
) -> delorean::Session<'m, 's> {
    let mut session = m.session();
    let mut ni = noops.iter_mut();
    let mut pi = probes.iter_mut();
    for &kind in stack {
        session = if kind == 0 {
            session.with_stage(ni.next().expect("enough noops"))
        } else {
            session.with_stage(pi.next().expect("enough probes"))
        };
    }
    session
}

/// Records (workload, mode) with an arbitrary stack of no-op stages
/// and returns the same fingerprint line as [`current_line`], plus the
/// streamed `.dlrn` bytes.
fn line_with_stages(workload: &str, mode: Mode, stack: &[u8]) -> (String, Vec<u8>) {
    let m = machine(mode);
    let w = workload::by_name(workload).expect("catalog workload");
    let mut noops: Vec<NoopStage> = stack.iter().map(|_| NoopStage).collect();
    let mut probes: Vec<PassiveProbe> = stack.iter().map(|_| PassiveProbe::default()).collect();
    let recording = stacked_session(&m, stack, &mut noops, &mut probes).record(w, SEED);
    let mut noops: Vec<NoopStage> = stack.iter().map(|_| NoopStage).collect();
    let mut probes: Vec<PassiveProbe> = stack.iter().map(|_| PassiveProbe::default()).collect();
    let mut sink = FileSink::new(Vec::new());
    stacked_session(&m, stack, &mut noops, &mut probes).record_to(w, SEED, &mut sink);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
    let line = format!(
        "{workload} {} {:016x} {:016x} {}",
        mode_tag(mode),
        digest_fingerprint(&recording.stats.digest),
        Fnv::of(&bytes),
        bytes.len()
    );
    (line, bytes)
}

/// Replays `bytes` through a session with the stage stack `stack`
/// describes and returns its verdict, digest and cycle count.
fn replay_with_stages(mode: Mode, stack: &[u8], bytes: &[u8]) -> (bool, StateDigest, u64) {
    let m = machine(mode);
    let mut noops: Vec<NoopStage> = stack.iter().map(|_| NoopStage).collect();
    let mut probes: Vec<PassiveProbe> = stack.iter().map(|_| PassiveProbe::default()).collect();
    let source = FileSource::open(bytes).expect("a fresh recording decodes");
    let report = stacked_session(&m, stack, &mut noops, &mut probes)
        .replay_from(source, SEED)
        .expect("a fresh recording replays");
    (
        report.deterministic,
        report.stats.digest,
        report.stats.cycles,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Satellite: the component scheduler behind the engine produces
    /// byte-identical digests and `.dlrn` bytes to the pre-refactor
    /// golden baseline, and its heap tie-breaks are stable across
    /// runs — two recordings of the same point must fingerprint
    /// identically.
    #[test]
    fn component_scheduler_matches_golden_baseline(
        widx in 0usize..13,
        mode_sel in 0usize..3,
    ) {
        let w = workload::catalog()[widx];
        let mode = MODES[mode_sel];
        let once = current_line(w.name, mode);
        let again = current_line(w.name, mode);
        prop_assert_eq!(
            &once, &again,
            "scheduler tie-breaks drifted between two identical runs"
        );
        prop_assert_eq!(
            once.as_str(), golden_line(w.name, mode),
            "the component scheduler perturbed the recording"
        );
    }

    /// Satellite: any permutation and stacking of observation-only
    /// `HookStage`s leaves the recording digest and the `.dlrn` byte
    /// stream identical to the pre-refactor golden baseline, and the
    /// replay of those bytes identical to a stage-less replay.
    #[test]
    fn noop_stage_stacks_are_invisible(
        widx in 0usize..13,
        mode_sel in 0usize..3,
        stack in proptest::collection::vec(0u8..2, 0..5),
    ) {
        let w = workload::catalog()[widx];
        let mode = MODES[mode_sel];
        let (line, bytes) = line_with_stages(w.name, mode, &stack);
        prop_assert_eq!(
            line.as_str(),
            golden_line(w.name, mode),
            "a stack of {} no-op stages perturbed the recording",
            stack.len()
        );
        let stacked = replay_with_stages(mode, &stack, &bytes);
        prop_assert!(stacked.0, "the replay under {} stages diverged", stack.len());
        prop_assert_eq!(
            stacked,
            replay_with_stages(mode, &[], &bytes),
            "a stack of {} no-op stages perturbed the replay",
            stack.len()
        );
    }
}

/// Satellite: both replay entry points — the in-memory
/// `replay_with_seed` and the streaming `replay_from_with_seed` —
/// funnel through one digest-verification body, so a recording whose
/// digest no longer matches its execution yields the *identical*
/// verdict from either path, and a machine-shape mismatch yields the
/// identical `ReplayError`.
#[test]
fn replay_paths_share_one_digest_verdict() {
    let m = machine(Mode::OrderOnly);
    let w = workload::by_name("fft").expect("catalog workload");
    let mut tampered = m.record(w, SEED);
    tampered.stats.digest.mem_hash ^= 0xdead_beef;

    let in_memory = m
        .replay_with_seed(&tampered, 99)
        .expect("shape matches, replay runs");
    let bytes = serialize::to_bytes(&tampered);
    let streamed = m
        .replay_from_with_seed(
            FileSource::open(&bytes[..]).expect("serialized recording decodes"),
            99,
        )
        .expect("shape matches, replay runs");

    assert!(!in_memory.deterministic);
    assert!(!streamed.deterministic);
    assert_eq!(
        in_memory.divergence, streamed.divergence,
        "the two replay paths no longer share the digest-verification body"
    );
    assert_eq!(
        in_memory.divergence.as_deref(),
        Some("final memory contents differ")
    );

    // A shape mismatch must also produce the identical error either way.
    let wrong = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(PROCS + 1)
        .budget(BUDGET)
        .build();
    let a = wrong.replay_with_seed(&tampered, 99).unwrap_err();
    let b = wrong
        .replay_from_with_seed(FileSource::open(&bytes[..]).expect("decodes"), 99)
        .unwrap_err();
    assert_eq!(a, b);
    assert!(matches!(a, ReplayError::MachineMismatch { .. }));
}

//! End-to-end determinism: a replay with *different machine timing*
//! must reproduce the recorded execution exactly — same final memory,
//! same per-processor instruction streams, same chunk counts. This is
//! the paper's central claim (Appendix B).

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{Machine, Mode};
use delorean_isa::workload;

fn machine(mode: Mode, procs: u32, budget: u64) -> Machine {
    Machine::builder()
        .mode(mode)
        .procs(procs)
        .budget(budget)
        .build()
}

fn assert_replays(mode: Mode, app: &str, procs: u32, budget: u64, seed: u64) {
    let m = machine(mode, procs, budget);
    let recording = m.record(workload::by_name(app).unwrap(), seed);
    let report = m.replay(&recording).expect("machine shapes match");
    assert!(
        report.deterministic,
        "{mode} replay of {app} diverged: {:?}",
        report.divergence
    );
}

#[test]
fn order_only_replays_all_splash_apps() {
    for w in workload::splash2() {
        assert_replays(Mode::OrderOnly, w.name, 4, 10_000, 42);
    }
}

#[test]
fn order_only_replays_commercial_apps_with_full_system_activity() {
    for w in workload::commercial() {
        assert_replays(Mode::OrderOnly, w.name, 4, 12_000, 7);
    }
}

#[test]
fn order_size_replays_with_variable_chunking() {
    for app in ["barnes", "radix", "sjbb2k"] {
        assert_replays(Mode::OrderSize, app, 4, 10_000, 3);
    }
}

#[test]
fn picolog_replays_without_a_pi_log() {
    for app in ["raytrace", "fft", "sweb2005"] {
        assert_replays(Mode::PicoLog, app, 4, 10_000, 11);
    }
}

#[test]
fn eight_processor_contended_replay() {
    assert_replays(Mode::OrderOnly, "radix", 8, 8_000, 5);
    assert_replays(Mode::PicoLog, "raytrace", 8, 8_000, 5);
}

#[test]
fn replay_is_deterministic_across_many_timing_seeds() {
    // Five perturbed replays (the paper's methodology) must all match.
    let m = machine(Mode::OrderOnly, 4, 8_000);
    let recording = m.record(workload::by_name("cholesky").unwrap(), 99);
    for seed in [1u64, 22, 333, 4444, 55555] {
        let report = m.replay_with_seed(&recording, seed).unwrap();
        assert!(report.deterministic, "seed {seed}: {:?}", report.divergence);
    }
}

#[test]
fn stratified_replay_reproduces_the_execution() {
    let m = machine(Mode::OrderOnly, 4, 8_000);
    let recording = m.record(workload::by_name("fmm").unwrap(), 31);
    for max in [1u32, 3, 7] {
        let report = m.replay_stratified(&recording, max, 777).unwrap();
        assert!(
            report.deterministic,
            "stratified({max}) diverged: {:?}",
            report.divergence
        );
    }
}

#[test]
fn overflow_truncations_are_reproduced_via_cs_log() {
    // Crank overflow noise so the CS log is exercised heavily.
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(4)
        .budget(10_000)
        .overflow_noise(0.01)
        .build();
    let recording = m.record(workload::by_name("ocean").unwrap(), 13);
    assert!(
        recording.stats.overflow_truncations > 0,
        "test needs overflow truncations to be meaningful"
    );
    assert!(recording.logs().cs.iter().any(|l| !l.is_empty()));
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn collision_shrinking_is_reproduced_via_cs_log() {
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(8)
        .chunk_size(800)
        .budget(10_000)
        .build();
    let recording = m.record(workload::by_name("raytrace").unwrap(), 17);
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn recordings_are_reproducible_themselves() {
    // Same machine, same seeds: identical recording (sanity for
    // everything else).
    let m = machine(Mode::OrderOnly, 4, 6_000);
    let w = workload::by_name("lu").unwrap();
    let a = m.record(w, 1);
    let b = m.record(w, 1);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.events, b.events);
}

#[test]
fn different_app_seeds_produce_different_executions() {
    let m = machine(Mode::OrderOnly, 2, 4_000);
    let w = workload::by_name("barnes").unwrap();
    let a = m.record(w, 1);
    let b = m.record(w, 2);
    assert_ne!(a.digest().mem_hash, b.digest().mem_hash);
}

#[test]
fn tiny_chunks_still_replay() {
    // Chunk boundaries inside critical sections and handlers.
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(2)
        .chunk_size(37)
        .budget(5_000)
        .build();
    let recording = m.record(workload::by_name("sjbb2k").unwrap(), 23);
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn single_processor_recordings_replay() {
    for mode in Mode::all() {
        let m = machine(mode, 1, 5_000);
        let recording = m.record(workload::by_name("water-sp").unwrap(), 2);
        let report = m.replay(&recording).unwrap();
        assert!(report.deterministic, "{mode}: {:?}", report.divergence);
    }
}

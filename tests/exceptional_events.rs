//! Exceptional-event handling end-to-end (Table 4 of the paper):
//! interrupts, I/O, DMA, deterministic and non-deterministic chunk
//! truncation.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{Machine, Mode};
use delorean_chunk::DeviceConfig;
use delorean_isa::workload;

fn commercial_machine(mode: Mode) -> Machine {
    Machine::builder()
        .mode(mode)
        .procs(4)
        .budget(15_000)
        .devices(DeviceConfig {
            irq_period: 20_000,
            dma_period: 30_000,
            dma_words: 32,
        })
        .build()
}

#[test]
fn interrupts_are_recorded_and_replayed() {
    let m = commercial_machine(Mode::OrderOnly);
    let recording = m.record(workload::by_name("sjbb2k").unwrap(), 4);
    assert!(
        recording.stats.interrupts > 0,
        "device config must generate interrupts"
    );
    let logged: usize = recording.logs().interrupts.iter().map(|l| l.len()).sum();
    assert_eq!(logged as u64, recording.stats.interrupts);
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
    assert_eq!(report.stats.interrupts, recording.stats.interrupts);
}

#[test]
fn io_values_are_recorded_and_fed_back() {
    let m = commercial_machine(Mode::OrderOnly);
    let recording = m.record(workload::by_name("sweb2005").unwrap(), 9);
    let io_values: usize = recording.logs().io.iter().map(|l| l.len()).sum();
    assert!(io_values > 0, "commercial workload must perform I/O loads");
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn dma_transfers_are_recorded_and_reinjected() {
    let m = commercial_machine(Mode::OrderOnly);
    let recording = m.record(workload::by_name("sjbb2k").unwrap(), 21);
    assert!(
        recording.stats.dma_commits > 0,
        "device config must generate DMA"
    );
    assert_eq!(
        recording.logs().dma.len() as u64,
        recording.stats.dma_commits
    );
    // DMA entries appear in the PI log as the DMA pseudo-processor.
    let dma_pi = recording
        .logs()
        .pi
        .iter()
        .filter(|c| *c == delorean_chunk::Committer::Dma)
        .count();
    assert_eq!(dma_pi as u64, recording.stats.dma_commits);
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
    assert_eq!(report.stats.dma_commits, recording.stats.dma_commits);
}

#[test]
fn picolog_records_dma_commit_slots() {
    let m = commercial_machine(Mode::PicoLog);
    let recording = m.record(workload::by_name("sjbb2k").unwrap(), 33);
    assert!(recording.stats.dma_commits > 0);
    assert!(recording.logs().pi.is_empty(), "PicoLog has no PI log");
    assert!(
        recording.logs().dma.slot(0).is_some(),
        "commit slots recorded instead"
    );
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn uncached_accesses_truncate_deterministically_and_are_not_cs_logged() {
    // OrderOnly: uncached truncations must NOT appear in the CS log
    // (they reappear deterministically); only overflow/collision do.
    // I/O sites fire once per 32 loop iterations, so the run must span
    // enough iterations to reach them.
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(2)
        .budget(90_000)
        .overflow_noise(0.0)
        .devices(DeviceConfig::none())
        .build();
    let recording = m.record(workload::by_name("sweb2005").unwrap(), 3);
    assert!(recording.stats.uncached_truncations > 0);
    // Uncached truncations never reach the CS log; only the
    // non-deterministic ones (genuine cache overflows can still occur
    // with zero noise) do.
    let cs_entries: usize = recording.logs().cs.iter().map(|l| l.len()).sum();
    assert_eq!(
        cs_entries as u64,
        recording.stats.overflow_truncations + recording.stats.collision_truncations,
        "CS log must contain exactly the non-deterministic truncations"
    );
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn interrupt_heavy_run_replays_in_picolog() {
    let m = Machine::builder()
        .mode(Mode::PicoLog)
        .procs(4)
        .budget(12_000)
        .devices(DeviceConfig {
            irq_period: 8_000,
            dma_period: 0,
            dma_words: 0,
        })
        .build();
    let recording = m.record(workload::by_name("barnes").unwrap(), 8);
    assert!(recording.stats.interrupts > 2);
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn order_size_logs_every_chunk_size() {
    let m = Machine::builder()
        .mode(Mode::OrderSize)
        .procs(2)
        .budget(8_000)
        .build();
    let recording = m.record(workload::by_name("fft").unwrap(), 6);
    // Every committed chunk has a CS entry in Order&Size.
    let total_chunks: u64 = recording.digest().committed_chunks.iter().sum();
    let cs_entries: usize = recording.logs().cs.iter().map(|l| l.len()).sum();
    assert_eq!(cs_entries as u64, total_chunks);
    // And variable chunking truly produced sub-maximum chunks.
    assert!(recording.stats.avg_chunk_size < recording.meta.chunk_size as f64);
}

#[test]
fn high_overflow_noise_stresses_replay_splits() {
    // Replay runs its own overflow checks; spurious replay overflows
    // must not break determinism (they become two-piece commits).
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(4)
        .budget(10_000)
        .overflow_noise(0.02)
        .build();
    let recording = m.record(workload::by_name("radix").unwrap(), 19);
    let report = m.replay(&recording).unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
}

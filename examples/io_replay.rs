//! Full-system replay: interrupts, uncached I/O and DMA captured in the
//! input logs and fed back during replay (Sections 3.3 and 4.2 of the
//! paper).
//!
//! ```sh
//! cargo run --release -p delorean --example io_replay
//! ```

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{Machine, Mode};
use delorean_chunk::DeviceConfig;
use delorean_isa::workload;

fn main() {
    // A commercial workload with aggressive device activity: frequent
    // timer/device-RNG reads (uncached loads), interrupts and DMA.
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(4)
        .budget(40_000)
        .devices(DeviceConfig {
            irq_period: 15_000,
            dma_period: 25_000,
            dma_words: 48,
        })
        .build();
    let w = workload::by_name("sweb2005").expect("catalog workload");
    let recording = machine.record(w, 314);

    let logs = recording.logs();
    println!("full-system recording of sweb2005 on 4 processors:");
    println!("  interrupts delivered : {}", recording.stats.interrupts);
    println!("  DMA transfers        : {}", recording.stats.dma_commits);
    println!(
        "  I/O load values      : {}",
        logs.io.iter().map(|l| l.len()).sum::<usize>()
    );
    println!(
        "  uncached truncations : {}",
        recording.stats.uncached_truncations
    );
    for (p, log) in logs.interrupts.iter().enumerate() {
        if let Some(first) = log.entries().first() {
            println!(
                "  first interrupt on P{p}: vector {} at chunk {}",
                first.vector, first.chunk_index
            );
        }
    }

    // During replay no device fires on its own: every interrupt is
    // injected at the logged chunk boundary, every I/O load returns the
    // logged value and every DMA transfer is applied at its PI-log
    // position.
    let report = machine.replay(&recording).expect("shape");
    println!();
    println!("replay deterministic : {}", report.deterministic);
    println!("  interrupts re-injected: {}", report.stats.interrupts);
    println!("  DMA re-applied        : {}", report.stats.dma_commits);
    assert!(report.deterministic, "{:?}", report.divergence);
    assert_eq!(report.stats.interrupts, recording.stats.interrupts);
    assert_eq!(report.stats.dma_commits, recording.stats.dma_commits);
    println!("\nthe timer values, interrupt arrival points and DMA payloads that");
    println!("steered the recorded execution steered the replay identically.");
}

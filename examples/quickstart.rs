//! Quickstart: record a multithreaded execution, replay it under
//! different machine timing, and verify the replay is bit-exact.
//!
//! ```sh
//! cargo run --release -p delorean --example quickstart
//! ```

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{Machine, Mode};
use delorean_isa::workload;

fn main() {
    // An 8-processor DeLorean machine in OrderOnly mode: deterministic
    // chunking, recorded commit interleaving (the paper's preferred
    // configuration: 2,000-instruction chunks).
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(8)
        .budget(50_000) // retired instructions per processor
        .build();

    // Record one execution of a barnes-like SPLASH-2 workload.
    let workload = workload::by_name("barnes").expect("catalog workload");
    let recording = machine.record(workload, 2026);

    let sizes = recording.memory_ordering_sizes();
    let logs = recording.logs();
    println!(
        "recorded {} instructions on {} processors",
        recording.total_instructions(),
        8
    );
    println!(
        "  PI log: {} commits, {} bits ({} compressed)",
        logs.pi.len(),
        sizes.pi.raw_bits,
        sizes.pi.compressed_bits
    );
    println!(
        "  CS log: {} non-deterministic truncations, {} bits",
        logs.cs.iter().map(|l| l.len()).sum::<usize>(),
        sizes.cs.raw_bits
    );
    println!(
        "  memory-ordering log: {:.2} bits/processor/kilo-instruction",
        recording.compressed_bits_per_proc_per_kiloinst()
    );
    println!(
        "  squashes during recording: {} (chunked execution cost)",
        recording.stats.squashes
    );

    // Replay on a machine with *different* timing: perturbed commit
    // latencies, flipped cache hits, no parallel commit. Determinism
    // must hold anyway.
    let report = machine.replay(&recording).expect("machine shape matches");
    println!();
    println!("replay deterministic: {}", report.deterministic);
    println!(
        "  replay took {} cycles vs {} recorded ({:.0}% speed)",
        report.stats.cycles,
        recording.stats.cycles,
        recording.stats.cycles as f64 / report.stats.cycles as f64 * 100.0
    );
    assert!(
        report.deterministic,
        "replay diverged: {:?}",
        report.divergence
    );
    println!(
        "final memory hash: {:#018x} (identical in both runs)",
        recording.digest().mem_hash
    );
}

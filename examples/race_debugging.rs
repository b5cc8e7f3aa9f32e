//! The paper's motivating use case: a concurrency bug that manifests
//! only under one timing is captured once, then re-examined across many
//! deterministic replays.
//!
//! Different *recording-side* timing seeds give executions whose racing
//! critical sections interleave differently, so the final shared state
//! differs run to run — the classic heisenbug setup. Once a recording
//! exists, every replay reproduces exactly the captured interleaving,
//! no matter how the replay machine behaves.
//!
//! ```sh
//! cargo run --release -p delorean --example race_debugging
//! ```

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{Machine, Mode};
use delorean_isa::workload;

fn main() {
    let workload = workload::by_name("raytrace").expect("catalog workload");

    // The same program recorded under three different machine timings:
    // the interleaving (and therefore the outcome) differs.
    println!("recording the same program under three machine timings:");
    let mut digests = Vec::new();
    for timing_seed in [11u64, 22, 33] {
        let machine = Machine::builder()
            .mode(Mode::OrderOnly)
            .procs(8)
            .budget(30_000)
            .timing_seed(timing_seed)
            .build();
        let recording = machine.record(workload, 7);
        println!(
            "  timing seed {timing_seed}: final memory {:#018x}, {} squashes, {} commits",
            recording.digest().mem_hash,
            recording.stats.squashes,
            recording.events.len()
        );
        digests.push((machine, recording));
    }
    let unique: std::collections::HashSet<u64> =
        digests.iter().map(|(_, r)| r.digest().mem_hash).collect();
    println!(
        "  distinct outcomes: {} of 3 — the interleaving matters\n",
        unique.len()
    );

    // Pick the first recording as "the buggy run" and replay it five
    // times under five different replay-machine timings: every replay
    // reproduces the captured interleaving exactly.
    let (machine, buggy_run) = &digests[0];
    println!("replaying the captured run under five different replay timings:");
    for replay_seed in [1000u64, 2000, 3000, 4000, 5000] {
        let report = machine
            .replay_with_seed(buggy_run, replay_seed)
            .expect("shape");
        println!(
            "  replay seed {replay_seed}: deterministic = {}, memory {:#018x}",
            report.deterministic, report.stats.digest.mem_hash
        );
        assert!(report.deterministic, "{:?}", report.divergence);
        assert_eq!(report.stats.digest.mem_hash, buggy_run.digest().mem_hash);
    }
    println!("\nevery replay reproduced the captured interleaving bit-exactly —");
    println!("the bug can now be examined as many times as debugging requires.");
}

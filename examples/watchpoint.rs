//! Watchpoint debugging over a recording: find *which chunk* wrote a
//! shared location — the paper's "illuminating what brought the
//! execution to a buggy state" workflow, built on the software replayer
//! (`delorean::inspect`).
//!
//! ```sh
//! cargo run --release -p delorean --example watchpoint
//! ```

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::{Machine, Mode};
use delorean_chunk::Committer;
use delorean_isa::layout::AddressMap;
use delorean_isa::workload;

fn main() {
    // Capture a contended run once.
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(8)
        .budget(30_000)
        .build();
    let w = workload::by_name("raytrace").expect("catalog workload");
    let recording = machine.record(w, 1234);
    let map = AddressMap::new(8);

    // Suppose debugging shows the word guarded by the contended lock
    // ends up with a suspicious value. Who wrote it, and when?
    let suspect = map.lock_addr(0) + 1;
    println!(
        "final value of suspect word {:#x}: {:#x}",
        suspect,
        final_value(&recording, suspect)
    );
    println!("replaying with a watchpoint on it...\n");

    let mut inspector = ReplayInspector::new(&recording).expect("recording fits its machine");
    inspector.watch(suspect);
    let mut writers = Vec::new();
    while let Some(ev) = inspector.step().expect("logs are consistent") {
        for hit in &ev.watch_hits {
            println!(
                "GCC {:>4}: {} chunk {:>3} changed {:#x}: {:#018x} -> {:#018x}",
                ev.gcc,
                match ev.committer {
                    Committer::Proc(p) => format!("P{p}"),
                    Committer::Dma => "DMA".to_string(),
                },
                ev.chunk_index,
                hit.addr,
                hit.old,
                hit.new
            );
            writers.push((ev.gcc, ev.committer));
        }
    }
    let report_ok = {
        let mut check = ReplayInspector::new(&recording).expect("recording fits its machine");
        check.run_to_end().expect("consistent").matches_recording
    };
    println!("\n{} commits wrote the watched word.", writers.len());
    if let Some(&(gcc, who)) = writers.last() {
        println!("last writer: {who:?} at global commit {gcc} — that's the chunk to inspect.");
    }
    println!("software replay matches the recorded digest: {report_ok}");
    assert!(report_ok);
}

fn final_value(recording: &delorean::Recording, addr: u64) -> u64 {
    let mut ins = ReplayInspector::new(recording).expect("recording fits its machine");
    ins.run_to_end().expect("consistent");
    ins.memory(addr)
}

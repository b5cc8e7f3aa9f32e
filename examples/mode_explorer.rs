//! Explores the speed-vs-log-size trade-off across the three DeLorean
//! execution modes (Table 2 of the paper), including PI-log
//! stratification, on one workload.
//!
//! ```sh
//! cargo run --release -p delorean --example mode_explorer [workload]
//! ```

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{Machine, Mode};
use delorean_isa::workload;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "fft".to_string());
    let w = workload::by_name(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown workload {name}; available: {}",
            workload::catalog()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    });
    let budget = 40_000u64;
    println!("workload: {name}, 8 processors, {budget} instructions each\n");
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>11} {:>9} {:>8}",
        "mode", "chunks", "PI bits", "CS bits", "bits/p/kin", "cycles", "replay"
    );

    for mode in Mode::all() {
        let machine = Machine::builder()
            .mode(mode)
            .procs(8)
            .budget(budget)
            .build();
        let recording = machine.record(w, 99);
        let report = machine.replay(&recording).expect("shape");
        assert!(report.deterministic, "{:?}", report.divergence);
        let sizes = recording.memory_ordering_sizes();
        let logs = recording.logs();
        println!(
            "{:<12} {:>7} {:>9} {:>9} {:>11.3} {:>9} {:>7.0}%",
            mode.to_string(),
            logs.pi.len() + logs.cs.iter().map(|l| l.len()).sum::<usize>(),
            sizes.pi.raw_bits,
            sizes.cs.raw_bits,
            recording.compressed_bits_per_proc_per_kiloinst(),
            recording.stats.cycles,
            recording.stats.cycles as f64 / report.stats.cycles as f64 * 100.0,
        );
    }

    // Stratification (Section 4.3) applied post hoc to an OrderOnly
    // recording.
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(8)
        .budget(budget)
        .build();
    let recording = machine.record(w, 99);
    let plain = recording.logs().pi.measure().raw_bits;
    println!("\nstratifying the OrderOnly PI log ({} plain bits):", plain);
    for max in [1u32, 3, 7] {
        let strat = recording
            .stratified_pi(max)
            .expect("OrderOnly has a PI log");
        let report = machine
            .replay_stratified(&recording, max, 4242)
            .expect("shape");
        assert!(report.deterministic);
        println!(
            "  {max} chunk(s)/proc/stratum: {:>5} strata, {:>6} bits ({:>3.0}% of plain), replay ok",
            strat.len(),
            strat.measure().raw_bits,
            strat.measure().raw_bits as f64 / plain as f64 * 100.0,
        );
    }
    println!(
        "\nestimated PicoLog log volume at 5 GHz, IPC 1: {:.2} GB/day (paper estimates ~20)",
        Machine::builder()
            .mode(Mode::PicoLog)
            .procs(8)
            .budget(budget)
            .build()
            .record(w, 99)
            .gigabytes_per_day(5.0, 1.0)
    );
}

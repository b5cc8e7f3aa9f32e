//! Cross-validation of the three replay paths — the timing engine, the
//! software inspector and serialization round trips — over the full
//! workload catalog.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::{serialize, Machine, Mode};
use delorean_chunk::Committer;
use delorean_isa::workload;

#[test]
fn engine_and_software_replayers_agree_on_every_workload() {
    for w in workload::catalog() {
        let machine = Machine::builder()
            .mode(Mode::OrderOnly)
            .procs(4)
            .budget(6_000)
            .build();
        let recording = machine.record(w, 77);
        // Path 1: the event-driven timing engine.
        let engine = machine.replay(&recording).expect("shape");
        assert!(
            engine.deterministic,
            "{}: engine replay diverged: {:?}",
            w.name, engine.divergence
        );
        // Path 2: the serial software replayer (shares no code with
        // the engine).
        let software = ReplayInspector::new(&recording)
            .expect("recording fits its machine")
            .run_to_end()
            .expect("consistent logs");
        assert!(
            software.matches_recording,
            "{}: software replay diverged: {:?}",
            w.name, software.mismatch
        );
    }
}

#[test]
fn serialized_recordings_replay_on_both_paths() {
    for mode in Mode::all() {
        let machine = Machine::builder().mode(mode).procs(4).budget(6_000).build();
        let recording = machine.record(workload::by_name("fmm").unwrap(), 5);
        let bytes = serialize::to_bytes(&recording);
        let restored = serialize::from_bytes(&bytes).expect("round trip");
        let engine = machine.replay(&restored).expect("shape");
        assert!(engine.deterministic, "{mode}: {:?}", engine.divergence);
        let software = ReplayInspector::new(&restored)
            .expect("recording fits its machine")
            .run_to_end()
            .expect("consistent");
        assert!(
            software.matches_recording,
            "{mode}: {:?}",
            software.mismatch
        );
    }
}

#[test]
fn inspector_commit_stream_matches_pi_log() {
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(4)
        .budget(6_000)
        .build();
    let recording = machine.record(workload::by_name("cholesky").unwrap(), 9);
    let mut inspector = ReplayInspector::new(&recording).expect("recording fits its machine");
    let mut committers = Vec::new();
    while let Some(ev) = inspector.step().expect("consistent") {
        committers.push(ev.committer);
    }
    let logged: Vec<Committer> = recording.logs().pi.iter().collect();
    assert_eq!(
        committers, logged,
        "inspector must follow the PI order exactly"
    );
}

#[test]
fn inspector_sizes_sum_to_the_budget() {
    let machine = Machine::builder()
        .mode(Mode::PicoLog)
        .procs(4)
        .budget(6_000)
        .build();
    let recording = machine.record(workload::by_name("water-ns").unwrap(), 3);
    let mut inspector = ReplayInspector::new(&recording).expect("recording fits its machine");
    let mut per_core = [0u64; 4];
    while let Some(ev) = inspector.step().expect("consistent") {
        if let Committer::Proc(p) = ev.committer {
            per_core[p as usize] += u64::from(ev.size);
        }
    }
    assert_eq!(per_core, [6_000; 4]);
}

#[test]
fn watchpoints_see_dma_writes() {
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(2)
        .budget(10_000)
        .devices(delorean_chunk::DeviceConfig {
            irq_period: 0,
            dma_period: 8_000,
            dma_words: 8,
        })
        .build();
    let recording = machine.record(workload::by_name("sjbb2k").unwrap(), 21);
    assert!(recording.stats.dma_commits > 0, "need DMA for this test");
    let map = delorean_isa::layout::AddressMap::new(2);
    let mut inspector = ReplayInspector::new(&recording).expect("recording fits its machine");
    // Watch the whole DMA buffer start.
    for off in 0..8 {
        inspector.watch(map.dma_base() + off);
    }
    let mut dma_hits = 0;
    while let Some(ev) = inspector.step().expect("consistent") {
        if ev.committer == Committer::Dma {
            dma_hits += ev.watch_hits.len();
        }
    }
    assert!(
        dma_hits > 0,
        "DMA writes to watched words must be attributed to DMA commits"
    );
}

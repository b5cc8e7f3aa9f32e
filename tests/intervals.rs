//! Interval recording and replay: the paper's `I(n,m)` machinery —
//! a system checkpoint taken at GCC = n, a recording interval made from
//! it, and deterministic replay of that interval.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::serialize::DecodeError;
use delorean::stream::StreamMeta;
use delorean::{serialize, FileSource, HookStage, Machine, MemorySink, Mode, ReplayError};
use delorean_isa::workload;
use delorean_mem::MemoryImage;

fn base_machine(mode: Mode) -> Machine {
    Machine::builder()
        .mode(mode)
        .procs(4)
        .budget(10_000)
        .build()
}

#[test]
fn interval_recordings_replay_deterministically() {
    for mode in Mode::all() {
        let machine = base_machine(mode);
        let first = machine.record(workload::by_name("barnes").unwrap(), 7);
        let mid = first.stats.total_commits / 2;
        let ck = machine_checkpoint(&machine, &first, mid);
        let interval = machine.record_interval(&ck, 8_000).expect("shape matches");
        assert!(interval.meta.interval.is_some());
        assert!(
            interval.total_instructions() > first.total_instructions(),
            "interval continues past the original budget"
        );
        let report = machine.replay(&interval).expect("shape matches");
        assert!(report.deterministic, "{mode}: {:?}", report.divergence);
    }
}

/// Stages are told a run starts from an interval, recording and
/// replaying alike, although the engine takes the start state over.
#[test]
fn stages_see_the_interval_start_state() {
    #[derive(Default)]
    struct BeginProbe(Vec<bool>);
    impl HookStage for BeginProbe {
        fn on_begin(&mut self, meta: &StreamMeta) {
            self.0.push(meta.interval.is_some());
        }
    }
    let machine = base_machine(Mode::OrderOnly);
    let first = machine.record(workload::by_name("fft").unwrap(), 3);
    let ck = first.checkpoint_at(first.stats.total_commits / 2).unwrap();
    let mut probe = BeginProbe::default();
    let mut sink = MemorySink::new();
    machine
        .session()
        .with_stage(&mut probe)
        .record_interval_to(&ck, 2_000, &mut sink)
        .unwrap();
    let interval = sink.into_recording().unwrap();
    let report = machine
        .session()
        .with_stage(&mut probe)
        .replay_from(interval.source(), 7)
        .unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);
    assert_eq!(probe.0, [true, true]);
}

/// An interval stream whose start-state memory image does not fit its
/// machine fails to open with a typed error, whether the image is empty
/// or half the machine's size; it never reaches a replayer. Held in
/// memory, the same recording is rejected alike by the inspector and
/// the engine, as is one with a chunk counter too few or too many.
/// Recording from such a checkpoint is an error too, not a panic.
#[test]
fn interval_streams_with_a_misfit_memory_image_do_not_open() {
    let machine = Machine::builder().procs(2).budget(4_000).build();
    let first = machine.record(workload::by_name("fft").unwrap(), 3);
    let ck = first.checkpoint_at(first.stats.total_commits / 2).unwrap();
    let interval = machine.record_interval(&ck, 2_000).unwrap();
    let words = ck.state.memory.len();
    let misfit_in_memory = |forged: &delorean::Recording| {
        let shape = "start state does not fit a 2-processor machine";
        let inspected = ReplayInspector::new(forged).unwrap_err();
        assert_eq!(inspected.detail, shape);
        assert_eq!(
            machine.replay(forged).unwrap_err(),
            ReplayError::Source {
                detail: shape.to_string()
            }
        );
    };
    for counters in [1, 3] {
        let mut forged = interval.clone();
        let start = forged.meta.interval.as_mut().unwrap();
        start.chunks_done.resize(counters, 0);
        misfit_in_memory(&forged);
    }
    let cut_image =
        |keep: u64| MemoryImage::from_words(&ck.state.memory.to_words()[..keep as usize]);
    for keep in [0, words / 2] {
        let mut forged = interval.clone();
        forged.meta.interval.as_mut().unwrap().memory = cut_image(keep);
        misfit_in_memory(&forged);
        let bytes = serialize::to_bytes(&forged);
        let misfit = DecodeError::MemoryImage {
            n_procs: 2,
            words: keep,
            expected: words,
        };
        assert_eq!(FileSource::open(&bytes[..]).unwrap_err(), misfit);
        assert_eq!(serialize::from_bytes(&bytes).unwrap_err(), misfit);
        let mut cut = ck.clone();
        cut.state.memory = cut_image(keep);
        assert!(matches!(
            machine.record_interval(&cut, 2_000),
            Err(ReplayError::Source { .. })
        ));
    }
}

fn machine_checkpoint(
    _machine: &Machine,
    recording: &delorean::Recording,
    gcc: u64,
) -> delorean::checkpoint::IntervalCheckpoint {
    recording.checkpoint_at(gcc).expect("mid-run checkpoint")
}

#[test]
fn interval_starts_from_the_checkpointed_state() {
    let machine = base_machine(Mode::OrderOnly);
    let first = machine.record(workload::by_name("fft").unwrap(), 3);
    let gcc = first.stats.total_commits / 3;
    let ck = first.checkpoint_at(gcc).unwrap();
    assert_eq!(ck.gcc, gcc);
    // The interval recording's replay must begin exactly at the
    // checkpoint: its per-processor retired counts start at the
    // checkpoint values and end at the absolute budget.
    let interval = machine.record_interval(&ck, 5_000).unwrap();
    let budget = ck.max_retired() + 5_000;
    for &r in &interval.digest().retired {
        assert_eq!(r, budget);
    }
    // Chunk counts continue from the checkpoint's counts.
    for (done, total) in ck
        .state
        .chunks_done
        .iter()
        .zip(&interval.digest().committed_chunks)
    {
        assert!(total >= done, "chunk counts must continue, not restart");
    }
}

#[test]
fn software_replayer_handles_interval_recordings() {
    let machine = base_machine(Mode::OrderOnly);
    let first = machine.record(workload::by_name("radiosity").unwrap(), 11);
    let ck = first.checkpoint_at(first.stats.total_commits / 2).unwrap();
    let interval = machine.record_interval(&ck, 6_000).unwrap();
    let report = ReplayInspector::new(&interval)
        .unwrap()
        .run_to_end()
        .expect("consistent logs");
    assert!(report.matches_recording, "{:?}", report.mismatch);
}

#[test]
fn interval_recordings_serialize() {
    let machine = base_machine(Mode::PicoLog);
    let first = machine.record(workload::by_name("lu").unwrap(), 5);
    let ck = first.checkpoint_at(first.stats.total_commits / 2).unwrap();
    let interval = machine.record_interval(&ck, 4_000).unwrap();
    let bytes = serialize::to_bytes(&interval);
    let back = serialize::from_bytes(&bytes).expect("round trip");
    assert_eq!(back.meta.interval, interval.meta.interval);
    let report = machine.replay(&back).expect("shape");
    assert!(report.deterministic, "{:?}", report.divergence);
}

#[test]
fn checkpoints_are_content_addressed() {
    let machine = base_machine(Mode::OrderOnly);
    let rec = machine.record(workload::by_name("ocean").unwrap(), 9);
    let a = rec.checkpoint_at(4).unwrap();
    let b = rec.checkpoint_at(4).unwrap();
    let c = rec.checkpoint_at(8).unwrap();
    assert_eq!(a.id(), b.id());
    assert_ne!(a.id(), c.id());
    assert_eq!(a.n_procs, 4);
}

#[test]
fn checkpoint_past_the_end_is_an_error() {
    let machine = base_machine(Mode::OrderOnly);
    let rec = machine.record(workload::by_name("lu").unwrap(), 2);
    let err = rec.checkpoint_at(rec.stats.total_commits + 10).unwrap_err();
    assert!(err.to_string().contains("cannot checkpoint"), "{err}");
}

#[test]
fn interval_on_wrong_machine_shape_is_rejected() {
    let machine = base_machine(Mode::OrderOnly);
    let rec = machine.record(workload::by_name("lu").unwrap(), 2);
    let ck = rec.checkpoint_at(2).unwrap();
    let other = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(8)
        .budget(10_000)
        .build();
    assert!(other.record_interval(&ck, 1_000).is_err());
}

#[test]
fn chained_intervals_cover_a_long_run() {
    // Record -> checkpoint -> interval -> checkpoint -> interval: the
    // paper's long-recording-period story, each piece independently
    // replayable.
    let machine = base_machine(Mode::OrderOnly);
    let w = workload::by_name("water-sp").unwrap();
    let first = machine.record(w, 13);
    let ck1 = first.checkpoint_at(first.stats.total_commits).unwrap();
    let second = machine.record_interval(&ck1, 6_000).unwrap();
    let ck2 = second.checkpoint_at(second.stats.total_commits).unwrap();
    let third = machine.record_interval(&ck2, 6_000).unwrap();
    for (i, rec) in [&first, &second, &third].into_iter().enumerate() {
        let report = machine.replay(rec).expect("shape");
        assert!(
            report.deterministic,
            "interval {i}: {:?}",
            report.divergence
        );
    }
    assert!(third.digest().retired[0] > second.digest().retired[0]);
    assert!(second.digest().retired[0] > first.digest().retired[0]);
}

//! Scaling the machine: sharded commit arbitration and large core
//! counts.
//!
//! The sharded arbiter changes *which* commit the arbiter grants next
//! (per-shard sequences merged by a rotating cursor), but the recorded
//! total order is still a single serialized stream — so a sharded
//! recording must replay deterministically through the standard global
//! replay path, and its `.dlrn` stream must carry the topology so
//! consumers know what produced it.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::{serialize, ArbiterConfig, FileSink, FileSource, LogSource, Machine, Mode};
use delorean_isa::workload;

fn machine(procs: u32, arbiter: ArbiterConfig, budget: u64) -> Machine {
    Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(procs)
        .budget(budget)
        .arbiter(arbiter)
        .build()
}

#[test]
fn sharded_recording_replays_deterministically() {
    let w = workload::by_name("fft").unwrap();
    for shards in [1u32, 2, 4] {
        let m = machine(8, ArbiterConfig::Sharded { shards }, 4_000);
        let rec = m.record(w, 7);
        assert_eq!(rec.meta.arbiter, ArbiterConfig::Sharded { shards });
        let report = m.replay(&rec).unwrap();
        assert!(
            report.deterministic,
            "sharded:{shards}: {:?}",
            report.divergence
        );
    }
}

#[test]
fn sharded_and_global_recordings_differ_only_in_commit_order() {
    // Both backends drive the same machine to completion: identical
    // retired counts and final memory are not required to match commit
    // orders, but every processor must retire its full budget.
    let w = workload::by_name("lu").unwrap();
    let global = machine(8, ArbiterConfig::Global, 3_000).record(w, 5);
    let sharded = machine(8, ArbiterConfig::Sharded { shards: 4 }, 3_000).record(w, 5);
    assert_eq!(global.stats.digest.retired, vec![3_000; 8]);
    assert_eq!(sharded.stats.digest.retired, vec![3_000; 8]);
    assert_eq!(
        global.stats.total_commits, sharded.stats.total_commits,
        "both backends serialize the same chunk population"
    );
}

#[test]
fn the_machine_scales_to_256_cores_under_both_backends() {
    let w = workload::by_name("fft").unwrap();
    for arbiter in [ArbiterConfig::Global, ArbiterConfig::Sharded { shards: 8 }] {
        let m = machine(256, arbiter, 800);
        let rec = m.record(w, 11);
        assert_eq!(rec.meta.n_procs, 256);
        assert_eq!(rec.stats.digest.retired.len(), 256);
        assert!(
            rec.stats.digest.retired.iter().all(|&r| r == 800),
            "{arbiter}: every core must retire its budget"
        );
        let report = m.replay(&rec).unwrap();
        assert!(report.deterministic, "{arbiter}: {:?}", report.divergence);
    }
}

#[test]
fn dlrn_header_carries_the_arbiter_topology() {
    let w = workload::by_name("fft").unwrap();
    let m = machine(4, ArbiterConfig::Sharded { shards: 2 }, 2_000);
    let mut sink = FileSink::new(Vec::new());
    m.record_to(w, 9, &mut sink);
    let bytes = sink.into_inner().unwrap();

    // The streaming source and the whole-buffer decoder both surface
    // the recorded topology.
    let source = FileSource::open(&bytes[..]).unwrap();
    assert_eq!(source.meta().arbiter, ArbiterConfig::Sharded { shards: 2 });
    let rec = serialize::from_bytes(&bytes).unwrap();
    assert_eq!(rec.meta.arbiter, ArbiterConfig::Sharded { shards: 2 });

    // And the stream replays through the standard digest check.
    let report = m
        .replay_from(FileSource::open(&bytes[..]).unwrap())
        .unwrap();
    assert!(report.deterministic, "{:?}", report.divergence);

    // A global recording writes no topology block at all, so its
    // header bytes stay legacy-compatible.
    let mg = machine(4, ArbiterConfig::Global, 2_000);
    let mut sink = FileSink::new(Vec::new());
    mg.record_to(w, 9, &mut sink);
    let global_bytes = sink.into_inner().unwrap();
    let rec = serialize::from_bytes(&global_bytes).unwrap();
    assert_eq!(rec.meta.arbiter, ArbiterConfig::Global);
}

#[test]
fn shard_assignment_follows_the_recorded_topology() {
    // Round-trip a sharded stream and check every stamped commit fits
    // the declared topology (proc p -> shard p % K, DMA -> shard 0).
    let w = workload::by_name("sweb2005").unwrap();
    let m = machine(8, ArbiterConfig::Sharded { shards: 4 }, 2_000);
    let mut sink = FileSink::new(Vec::new());
    m.record_to(w, 3, &mut sink);
    let bytes = sink.into_inner().unwrap();
    let mut walker = delorean::SegmentWalker::open(&bytes[..]).unwrap();
    let mut stamped = 0u64;
    loop {
        match walker.next_segment().unwrap() {
            delorean::WalkedSegment::Events(seg) => {
                for ev in &seg.events {
                    let shard = ev.shard.expect("sharded recordings stamp every commit");
                    assert!(shard < 4);
                    match ev.committer {
                        delorean_chunk::Committer::Proc(p) => assert_eq!(shard, p % 4),
                        delorean_chunk::Committer::Dma => assert_eq!(shard, 0),
                    }
                    stamped += 1;
                }
            }
            delorean::WalkedSegment::Trailer(_) => {}
            delorean::WalkedSegment::End => break,
        }
    }
    assert!(stamped > 0);
}

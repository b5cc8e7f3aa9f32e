//! End-to-end tests for the streaming record/replay pipeline: the
//! `FileSink`/`FileSource` path must be byte- and digest-identical to
//! the in-memory `Recording` path, its peak buffering must be bounded
//! by the flush granularity, not the run length, and damaged or forged
//! streams must fail as values on the engine exactly when the software
//! inspector rejects them.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::inspect::ReplayInspector;
use delorean::recover::{salvage, RecoveringSource};
use delorean::stream::LogEvent;
use delorean::{
    serialize, ArbiterConfig, FileSink, FileSource, LogSink, LogSource, Machine, Mode,
    SegmentWalker, WalkedSegment,
};
use delorean_chunk::{Committer, DeviceConfig};
use delorean_isa::workload;
use proptest::prelude::*;

const MODES: [Mode; 3] = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog];

fn machine(mode: Mode, procs: u32, budget: u64) -> Machine {
    Machine::builder()
        .mode(mode)
        .procs(procs)
        .budget(budget)
        .build()
}

/// A small fft recording in `mode`, streamed with frequent flushes so
/// damage lands in many different segments.
fn small_fft_bytes(mode: Mode, seed: u64) -> Vec<u8> {
    let m = Machine::builder()
        .mode(mode)
        .procs(2)
        .budget(2_000)
        .chunk_size(200)
        .build();
    let mut sink = FileSink::with_flush_every(Vec::new(), 4);
    m.record_to(
        workload::by_name("fft").expect("catalog workload"),
        seed,
        &mut sink,
    );
    sink.into_inner().expect("writing to a Vec cannot fail")
}

/// Replays `engine` on the timing engine — on a machine shaped by the
/// stream's own header, as `delorean-rr replay` does — and `inspector`
/// (the same bytes) on the software inspector. Returns whether each
/// accepted the log: a deterministic replay, and a final state that
/// matches the recording. Errors are values; a panic fails the test.
fn verdicts<S: LogSource>(engine: S, inspector: S) -> (bool, bool) {
    let meta = engine.meta().clone();
    let m = Machine::builder()
        .mode(meta.mode)
        .procs(meta.n_procs)
        .chunk_size(meta.chunk_size)
        .budget(meta.budget)
        .devices(meta.devices)
        .build();
    let replayed = m.replay_from(engine).is_ok_and(|r| r.deterministic);
    let inspected = ReplayInspector::from_source(inspector)
        .and_then(|mut i| i.run_to_end())
        .is_ok_and(|r| r.matches_recording);
    (replayed, inspected)
}

/// Records `workload` twice — once into an in-memory `Recording`, once
/// streamed through a `FileSink` — and returns both serializations.
fn record_both(m: &Machine, name: &str, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let w = workload::by_name(name).expect("catalog workload");
    let recording = m.record(w, seed);
    let in_memory = serialize::to_bytes(&recording);
    let mut sink = FileSink::new(Vec::new());
    m.record_to(w, seed, &mut sink);
    let streamed = sink.into_inner().expect("writing to a Vec cannot fail");
    (in_memory, streamed)
}

/// Acceptance: for every catalog workload and every mode, recording
/// through a `FileSink` and replaying from a `FileSource` yields the
/// same state digest as the in-memory record/replay path.
#[test]
fn catalog_streams_replay_to_identical_digests() {
    for w in workload::catalog() {
        for mode in MODES {
            let m = machine(mode, 4, 12_000);
            let (in_memory, streamed) = record_both(&m, w.name, 2026);
            assert_eq!(
                in_memory, streamed,
                "{} / {mode}: FileSink bytes differ from serialized Recording",
                w.name
            );

            let recording = serialize::from_bytes(&in_memory).expect("round trip");
            let mem_report = m.replay(&recording).expect("in-memory replay");
            let source = FileSource::open(&streamed[..]).expect("open stream");
            let stream_report = m.replay_from(source).expect("streamed replay");

            assert!(
                mem_report.deterministic,
                "{} / {mode}: in-memory replay diverged",
                w.name
            );
            assert!(
                stream_report.deterministic,
                "{} / {mode}: streamed replay diverged",
                w.name
            );
            assert_eq!(
                stream_report.stats.digest, mem_report.stats.digest,
                "{} / {mode}: streamed replay digest differs",
                w.name
            );
            assert_eq!(stream_report.stats.digest, recording.stats.digest);
        }
    }
}

/// Acceptance: peak sink buffering tracks the flush granularity.
/// Quadrupling the run length must not quadruple the peak; it stays at
/// the size of one flush batch.
#[test]
fn peak_buffering_is_bounded_by_flush_size_not_run_length() {
    let w = workload::by_name("ocean").expect("catalog workload");
    let mut peaks = Vec::new();
    let mut commits = Vec::new();
    for budget in [10_000u64, 40_000] {
        let m = machine(Mode::OrderOnly, 4, budget);
        let mut sink = FileSink::with_flush_every(Vec::new(), 8);
        let stats = m.record_to(w, 7, &mut sink);
        commits.push(stats.total_commits);
        peaks.push(sink.peak_buffered_bytes());
    }
    assert!(
        commits[1] >= 3 * commits[0],
        "long run should commit ~4x as many chunks ({commits:?})"
    );
    // The peak is one 8-event batch in both runs; allow 2x slack for
    // variation in per-event footprint sizes.
    assert!(
        peaks[1] <= 2 * peaks[0].max(1),
        "peak buffering scaled with run length: {peaks:?}"
    );
}

/// A `FileSource` answers replay queries without materializing the
/// whole log: after the first grant query it holds at most a few
/// segments' worth of entries, not the full run.
#[test]
fn file_source_buffers_a_bounded_window() {
    let w = workload::by_name("radix").expect("catalog workload");
    let m = machine(Mode::OrderOnly, 4, 40_000);
    let mut sink = FileSink::with_flush_every(Vec::new(), 8);
    let stats = m.record_to(w, 7, &mut sink);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");

    use delorean::LogSource;
    let mut source = FileSource::open(&bytes[..]).expect("open stream");
    source.pi_peek();
    let buffered = source.buffered_entries();
    assert!(
        (buffered as u64) < stats.total_commits,
        "first query pulled the whole log: {buffered} entries buffered of {}",
        stats.total_commits
    );
}

/// Control for the damaged-stream properties below: an undamaged
/// stream passes both replayers in every mode.
#[test]
fn pristine_small_streams_pass_both_replayers() {
    for mode in MODES {
        let bytes = small_fft_bytes(mode, 7);
        let open = || FileSource::open(&bytes[..]).expect("open stream");
        assert_eq!(verdicts(open(), open()), (true, true), "{mode}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Across random workloads, shapes, modes and arbiter topologies,
    /// the MemorySink and FileSink paths produce byte-identical `.dlrn`
    /// output and identical replay digests. A sharded arbiter stamps
    /// each event with its shard, and the in-memory path keeps them.
    #[test]
    fn sink_paths_agree(
        widx in 0usize..13,
        mode_sel in 0u8..3,
        sharded in 0u8..2,
        procs in 2u32..6,
        budget in 6_000u64..16_000,
        seed in 0u64..1_000_000,
    ) {
        let w = workload::catalog()[widx];
        let mut b = Machine::builder();
        b.mode(MODES[mode_sel as usize]).procs(procs).budget(budget);
        if sharded == 1 {
            b.arbiter(ArbiterConfig::Sharded { shards: 4 });
        }
        let m = b.build();
        let (in_memory, streamed) = record_both(&m, w.name, seed);
        prop_assert_eq!(&in_memory, &streamed);

        let recording = serialize::from_bytes(&in_memory).expect("round trip");
        let mem_report = m.replay(&recording).expect("in-memory replay");
        let source = FileSource::open(&streamed[..]).expect("open stream");
        let stream_report = m.replay_from(source).expect("streamed replay");
        prop_assert!(mem_report.deterministic);
        prop_assert!(stream_report.deterministic);
        prop_assert_eq!(stream_report.stats.digest, mem_report.stats.digest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Bit-flipped, truncated and garbage-burst streams replay on the
    /// engine without panicking, and the engine calls the replay
    /// deterministic exactly when the inspector says the log matches
    /// the recording.
    #[test]
    fn damaged_streams_replay_as_values_and_agree_with_the_inspector(
        seed in 0u64..200,
        mode_sel in 0u8..3,
        kind in 0u8..3,
        a in 0u64..1_000_000,
        b in 1u64..256,
    ) {
        let mut damaged = small_fft_bytes(MODES[mode_sel as usize], seed);
        let len = damaged.len() as u64;
        match kind {
            0 => damaged[(a % len) as usize] ^= 1 << (b % 8),
            1 => damaged.truncate((a % len) as usize),
            _ => {
                let off = (a % len) as usize;
                let end = (off + b as usize).min(damaged.len());
                for (i, byte) in damaged[off..end].iter_mut().enumerate() {
                    *byte = (a ^ b).wrapping_mul(i as u64 + 1) as u8;
                }
            }
        }
        // Streams the decoder rejects outright never reach a replayer.
        // (No early `return`: it would end the whole case loop.)
        if let Ok(engine) = FileSource::open(&damaged[..]) {
            let inspector = FileSource::open(&damaged[..]).expect("decoded once, decodes again");
            let (replayed, inspected) = verdicts(engine, inspector);
            prop_assert_eq!(replayed, inspected, "kind {} at {}", kind, a % len);
        }
    }

    /// Salvaged prefixes of truncated streams, replayed through
    /// `RecoveringSource`, obey the same agreement.
    #[test]
    fn salvaged_streams_replay_as_values_and_agree_with_the_inspector(
        seed in 0u64..200,
        mode_sel in 0u8..3,
        cut in 0.1f64..1.0,
    ) {
        let mut damaged = small_fft_bytes(MODES[mode_sel as usize], seed);
        damaged.truncate((damaged.len() as f64 * cut) as usize);
        let prefix = salvage(&damaged).ok().and_then(|s| {
            Some((RecoveringSource::prefix(&s)?, RecoveringSource::prefix(&s)?))
        });
        if let Some((engine, inspector)) = prefix {
            let (replayed, inspected) = verdicts(engine, inspector);
            prop_assert_eq!(replayed, inspected);
        }
    }
}

/// A short sweb2005 recording with interrupts, I/O and DMA on and extra
/// overflow noise, so that its log holds CS sizes, I/O values and DMA
/// payloads in every mode.
fn device_bytes(mode: Mode, seed: u64) -> Vec<u8> {
    let m = Machine::builder()
        .mode(mode)
        .procs(2)
        .budget(3_000)
        .chunk_size(200)
        .overflow_noise(0.002)
        .devices(DeviceConfig {
            irq_period: 700,
            dma_period: 1_300,
            dma_words: 8,
        })
        .build();
    let mut sink = FileSink::new(Vec::new());
    m.record_to(
        workload::by_name("sweb2005").expect("catalog workload"),
        seed,
        &mut sink,
    );
    sink.into_inner().expect("writing to a Vec cannot fail")
}

/// Changes one logged value of `events`, chosen by `pick` among the
/// candidates of `kind`: a processor commit's id (0), a CS size, shrunk
/// (1), an I/O value (2) or a DMA payload word (3). `delta` is nonzero.
/// `None` when the log holds no candidate, else whether the change must
/// reach the final digest. A changed processor id in a PI log, an I/O
/// value and a DMA word that no later transfer overwrites always do. A
/// shrunk CS size can land on an equivalent chunking, and PicoLog fixes
/// its commit order, so a commit moved to another processor with no
/// logged value may change nothing.
fn forge(events: &mut [LogEvent], mode: Mode, kind: u8, pick: usize, delta: u64) -> Option<bool> {
    let has = |e: &LogEvent| match kind {
        0 => matches!(e.committer, Committer::Proc(_)),
        1 => e.cs_size.is_some(),
        2 => !e.io_values.is_empty(),
        _ => !e.dma_data.is_empty(),
    };
    let candidates: Vec<usize> = (0..events.len()).filter(|&i| has(&events[i])).collect();
    let &i = candidates.get(pick % candidates.len().max(1))?;
    let (e, later) = events[i..].split_first_mut()?;
    Some(match (kind, e.committer, e.cs_size) {
        (0, Committer::Proc(p), _) => {
            e.committer = Committer::Proc(1 - p);
            mode.has_pi_log()
        }
        (1, _, Some(size)) => {
            e.cs_size = Some((delta % u64::from(size.max(1))) as u32);
            false
        }
        (2, ..) => {
            let j = pick % e.io_values.len();
            e.io_values[j].1 ^= delta;
            true
        }
        _ => {
            let j = pick % e.dma_data.len();
            e.dma_data[j].1 ^= delta;
            let addr = e.dma_data[j].0;
            later
                .iter()
                .all(|l| l.dma_data.iter().all(|&(a, _)| a != addr))
        }
    })
}

/// Walks `bytes` with a `SegmentWalker`, applies [`forge`] to its
/// events and re-emits them through a `FileSink`, so every checksum of
/// the forged stream is valid. Returns the stream and whether the
/// change must reach the digest, or `None` when the log holds no
/// candidate.
fn forged(bytes: &[u8], kind: u8, pick: usize, delta: u64) -> Option<(Vec<u8>, bool)> {
    let mut walker = SegmentWalker::open(bytes).expect("a fresh recording decodes");
    let meta = walker.meta().clone();
    let mut events = Vec::new();
    let trailer = loop {
        match walker.next_segment().expect("a fresh recording decodes") {
            WalkedSegment::Events(seg) => events.extend(seg.events),
            WalkedSegment::Trailer(t) => break t,
            WalkedSegment::End => panic!("the stream ended before its trailer"),
        }
    };
    let observable = forge(&mut events, meta.mode, kind, pick, delta)?;
    let mut sink = FileSink::new(Vec::new());
    sink.begin(&meta);
    for e in &events {
        sink.on_event(e);
    }
    sink.finish(&trailer);
    Some((
        sink.into_inner().expect("writing to a Vec cannot fail"),
        observable,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A two-processor log whose checksums are valid but one of whose
    /// logged values was changed replays as a value on both replayers,
    /// never a panic, and the two agree on whether it reproduces the
    /// recording. A change that must reach the digest is rejected.
    #[test]
    fn forged_logs_with_valid_checksums_replay_as_values(
        seed in 0u64..200,
        mode_sel in 0u8..3,
        kind in 0u8..4,
        pick in 0usize..1_000_000,
        delta in 1u64..1_000_000,
    ) {
        let mode = MODES[mode_sel as usize];
        let forgery = forged(&device_bytes(mode, seed), kind, pick, delta);
        prop_assert!(forgery.is_some(), "{} logs no value of kind {}", mode, kind);
        if let Some((bytes, observable)) = forgery {
            let open = || FileSource::open(&bytes[..]).expect("a re-emitted stream decodes");
            let (replayed, inspected) = verdicts(open(), open());
            prop_assert_eq!(replayed, inspected, "{} kind {}", mode, kind);
            prop_assert!(!(observable && replayed), "{} accepted a forged kind {}", mode, kind);
        }
    }
}

/// One step of splitmix64: the damage positions of
/// [`damaged_decode_outcomes_are_pinned`] come from it, so the set of
/// damaged streams is the same on every run and every build.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d4_9bb1_3311_14eb);
    z ^ (z >> 31)
}

/// Flips bit `bit` of byte `at` of an event segment's body and seals the
/// frame with a valid checksum again, so the damage reaches the event
/// decoder instead of stopping at the checksum.
fn resealed(bytes: &[u8], pick: u64, at: u64, bit: u64) -> Vec<u8> {
    let frames = delorean::recover::layout(bytes).expect("a fresh recording maps");
    let events: Vec<_> = frames.segments.iter().filter(|s| s.kind == 1).collect();
    let span = events[(pick % events.len() as u64) as usize];
    let body = span.start + 17;
    let mut out = bytes.to_vec();
    out[body + (at % (span.end - body) as u64) as usize] ^= 1 << (bit % 8);
    let mut f = delorean::Fnv::default();
    f.update(&out[span.start..span.start + 9]);
    f.update(&out[body..span.end]);
    out[span.start + 9..body].copy_from_slice(&f.value().to_le_bytes());
    out
}

/// What the two `.dlrn` readers make of one damaged stream: what a
/// `SegmentWalker` yields up to its first error and where it stops, and
/// how a `FileSource` drained with `finish` ends.
fn decode_outcome(bytes: &[u8]) -> String {
    let walk = match SegmentWalker::open(bytes) {
        Err(e) => format!("open failed: {e}"),
        Ok(mut walker) => {
            let (mut segments, mut events, mut trailer) = (0, 0, None);
            let error = loop {
                match walker.next_segment() {
                    Ok(WalkedSegment::Events(seg)) => {
                        segments += 1;
                        events += seg.events.len();
                    }
                    Ok(WalkedSegment::Trailer(t)) => trailer = Some(t.stats.total_commits),
                    Ok(WalkedSegment::End) => break None,
                    Err(e) => break Some(e),
                }
            };
            format!(
                "segments {segments}, events {events}, trailer commits {}, error {}, stopped at {}",
                trailer.map_or("-".to_string(), |c| c.to_string()),
                error.map_or("-".to_string(), |e| e.to_string()),
                walker.position()
            )
        }
    };
    let source = match FileSource::open(bytes) {
        Err(e) => format!("open failed: {e}"),
        Ok(mut src) => {
            let finished = src.finish();
            format!(
                "finish {}, error {}, checksums verified {}",
                finished.map_or_else(|e| e, |t| format!("ok, {} commits", t.stats.total_commits)),
                src.error().unwrap_or("-"),
                src.checksums_verified()
            )
        }
    };
    format!("walker: {walk} | source: {source}")
}

/// Every error a damaged stream decodes to, with its position, and what
/// each reader had yielded before it, in all three modes: bit flips,
/// truncations, garbage bursts, bit flips behind a valid checksum (they
/// reach the event decoder and fail mid-segment) and bytes after the
/// trailer. Regenerate (only when the decoder's observable behavior
/// intentionally changes) with
/// `DELOREAN_REGEN_GOLDEN=1 cargo test -q --test streaming damaged_decode`.
#[test]
fn damaged_decode_outcomes_are_pinned() {
    let mut lines = Vec::new();
    let mut rng = 0x646c_726e_u64;
    for mode in MODES {
        for (base, bytes) in [
            ("fft", small_fft_bytes(mode, 7)),
            ("sweb2005", device_bytes(mode, 5)),
        ] {
            let len = bytes.len() as u64;
            let header_end = delorean::recover::layout(&bytes).unwrap().header_end;
            let mut streams = vec![
                ("header-only".to_string(), bytes[..header_end].to_vec()),
                ("appended".to_string(), [&bytes[..], &[1, 0, 0]].concat()),
            ];
            for k in 0..8 {
                let (a, b) = (splitmix64(&mut rng), splitmix64(&mut rng));
                let mut flipped = bytes.clone();
                flipped[(a % len) as usize] ^= 1 << (b % 8);
                streams.push((format!("flip {}.{}", a % len, b % 8), flipped));
                streams.push((
                    format!("cut {}", a % len),
                    bytes[..(a % len) as usize].to_vec(),
                ));
                let (off, n) = ((a % len) as usize, 1 + (b % 64) as usize);
                let mut burst = bytes.clone();
                for (i, byte) in burst[off..(off + n).min(bytes.len())]
                    .iter_mut()
                    .enumerate()
                {
                    *byte = (a ^ b).wrapping_mul(i as u64 + 1) as u8;
                }
                streams.push((format!("garbage {off}+{n}"), burst));
                streams.push((format!("resealed {k}"), resealed(&bytes, a, b, a >> 32)));
            }
            for (damage, stream) in streams {
                lines.push(format!(
                    "{mode} {base} {damage}: {}",
                    decode_outcome(&stream)
                ));
            }
        }
    }
    let fresh = lines.join("\n") + "\n";
    // Tests run with the package root (crates/core) as cwd.
    let path = "../../tests/golden/damaged_decode.txt";
    if std::env::var("DELOREAN_REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("read golden");
    for (k, (want, got)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(want, got, "line {} of {path} differs", k + 1);
    }
    assert_eq!(golden, fresh, "{path} drifted");
}

/// Every reader decodes each segment's LZ77 block alone. A segment
/// forged so that its block opens with a match into the segment before
/// it, sealed with a valid checksum, decodes to the recorded bytes only
/// for a decoder that carries its match window across segments. The
/// engine's `FileSource`, the `SegmentWalker` and `salvage` must all
/// reject that segment at its start.
#[test]
fn a_block_that_reaches_into_the_previous_segment_is_rejected_by_every_reader() {
    use delorean::serialize::DecodeError;
    use delorean_compress::{lz77, BitWriter};

    let procs = 4;
    let m = machine(Mode::OrderOnly, procs, 20_000);
    let mut sink = FileSink::with_flush_every(Vec::new(), 8);
    m.record_to(
        workload::by_name("fft").expect("catalog workload"),
        1,
        &mut sink,
    );
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");

    // The first events segment k >= 1 whose block opens with three
    // bytes found in the last `WINDOW` bytes decoded before it.
    let frames = delorean::recover::layout(&bytes).expect("a fresh recording maps");
    let events: Vec<_> = frames.segments.iter().filter(|s| s.kind == 1).collect();
    // Commit watermark, chunk watermarks, event count.
    let prefix = 8 + 8 * procs as usize + 4;
    let (mut history, mut commits) = (Vec::new(), 0u64);
    let mut found = None;
    for (k, span) in events.iter().enumerate() {
        let body = &bytes[span.start + 17..span.end];
        let count = u32::from_le_bytes(body[prefix - 4..prefix].try_into().unwrap());
        let raw = lz77::decompress(&body[prefix..]).expect("a recorded block decodes");
        let window = &history[history.len().saturating_sub(lz77::WINDOW)..];
        let dist = (k > 0 && raw.len() >= lz77::MIN_MATCH)
            .then(|| {
                (lz77::MIN_MATCH..=window.len()).find(|&d| {
                    let at = window.len() - d;
                    window[at..at + lz77::MIN_MATCH] == raw[..lz77::MIN_MATCH]
                })
            })
            .flatten();
        if let Some(dist) = dist {
            found = Some((k, *span, commits, count, dist, raw));
            break;
        }
        history.extend_from_slice(&raw);
        commits += u64::from(count);
    }
    let (k, span, start_commit, count, dist, raw) = found.expect("a segment opens with a repeat");

    // One match token into that history, then literals.
    let mut w = BitWriter::new();
    w.write_bits(raw.len() as u64, 32);
    w.write_bit(true);
    w.write_bits(dist as u64 - 1, lz77::DIST_BITS);
    w.write_bits(0, lz77::LEN_BITS);
    for &b in &raw[lz77::MIN_MATCH..] {
        w.write_bit(false);
        w.write_bits(u64::from(b), 8);
    }
    let mut body = bytes[span.start + 17..span.start + 17 + prefix].to_vec();
    body.extend_from_slice(&w.into_bytes());
    let mut frame = vec![1u8];
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    let mut f = delorean::Fnv::default();
    f.update(&frame);
    f.update(&body);
    frame.extend_from_slice(&f.value().to_le_bytes());
    frame.extend_from_slice(&body);
    let forged = [&bytes[..span.start], &frame[..], &bytes[span.end..]].concat();
    let frame_end = (span.start + frame.len()) as u64;

    let mut walker = SegmentWalker::open(&forged[..]).expect("the header is intact");
    let walked = loop {
        match walker.next_segment() {
            Ok(WalkedSegment::Events(_) | WalkedSegment::Trailer(_)) => {}
            Ok(WalkedSegment::End) => panic!("the walker accepted the forged segment {k}"),
            Err(e) => break e,
        }
    };
    assert_eq!(walked.error, DecodeError::Truncated("event block"));
    assert_eq!(
        (
            walked.position.segment,
            walked.position.commit,
            walked.position.byte_offset
        ),
        (k as u64, start_commit, frame_end),
        "{walked}"
    );

    let source = FileSource::open(&forged[..]).expect("the header is intact");
    let Err(replayed) = m.replay_from(source) else {
        panic!("the replay accepted the forged segment {k}");
    };
    assert!(
        replayed.to_string().contains(&walked.to_string()),
        "{replayed}"
    );

    let report = salvage(&forged).expect("the header is intact").report;
    assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
    let q = &report.quarantined[0];
    assert_eq!(
        (q.byte_start, q.byte_end, q.reason),
        (
            span.start as u64,
            frame_end,
            "event segment body undecodable"
        )
    );
    assert_eq!(report.lost.len(), 1, "{:?}", report.lost);
    assert_eq!(
        (report.lost[0].first, report.lost[0].last),
        (start_commit + 1, Some(start_commit + u64::from(count)))
    );
}

//! `delorean` — record, replay and inspect executions from the command
//! line, persisting recordings in the binary `.dlrn` format.
//!
//! ```text
//! delorean list
//! delorean record barnes -o run.dlrn --mode orderonly --procs 8 --budget 50000
//! delorean info run.dlrn
//! delorean replay run.dlrn --seed 99
//! delorean replay run.dlrn --stratified 1
//! delorean inspect run.dlrn --watch 0x30001 --limit 40
//! ```

use delorean::inspect::ReplayInspector;
use delorean::stream::StreamMeta;
use delorean::{serialize, FileSink, FileSource, LogSource, Machine, Mode, Recording, MAX_PROCS};
use delorean_bench as bench;
use delorean_chunk::Committer;
use delorean_isa::workload;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

mod args;

use args::{Args, Failure};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let outcome = run(&argv, &mut out).and_then(|code| {
        out.flush()?;
        Ok(code)
    });
    match outcome {
        Ok(code) => code,
        // A reader that stops early (`| head`) is not a failure.
        Err(Failure::Closed) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  delorean list
  delorean record <workload> -o <file> [--mode ordersize|orderonly|picolog]
                  [--procs N] [--budget N] [--chunk N] [--seed N] [--timing-seed N]
                  [--arbiter global|sharded:K] [--trace PATH]
  delorean info <file>
  delorean replay <file> [--seed N] [--stratified MAX]
  delorean replay <file> --from N [--to M] [--index PATH]
  delorean checkpoint <file> [--every K] [-o PATH]
  delorean checkpoint <file> --check PATH
  delorean inspect <file> [--watch ADDR]... [--limit N] [--json]
  delorean inspect <file> --at N [--index PATH] [--json]
  delorean analyze <file> [--json] [--skip static|races|lint]... [--max-examples N]
                  [--deps]
  delorean analyze --trace PATH [--json]
  delorean bench [--figure figNN]... [--json PATH] [--jobs N] [--full]
                 [--baseline PATH] [--tolerance PCT] [--seed N]
                 [--budget-div N] [--verbose]
  delorean crashtest [--seed N] [--workload NAME]... [--procs N]
                     [--budget N] [--chunk N]";

/// A subcommand's entry point; it writes its report to `out`.
type Handler = fn(&Args, &mut dyn Write) -> Result<ExitCode, Failure>;

/// Every subcommand: its name, the flags its `cmd_*` reads as listed in
/// `USAGE` — boolean switches, then flags that take a value — and its
/// entry point. Switches are per-command: `analyze --json` is a toggle,
/// `bench --json PATH` takes the output path as a value.
const COMMANDS: &[(&str, &str, &str, Handler)] = &[
    ("list", "", "", |_, out| {
        cmd_list(out).map(|()| ExitCode::SUCCESS)
    }),
    (
        "record",
        "",
        "-o --out --mode --procs --budget --chunk --seed --timing-seed --arbiter --trace",
        |a, out| cmd_record(a, out).map(|()| ExitCode::SUCCESS),
    ),
    ("info", "", "", |a, out| {
        cmd_info(a, out).map(|()| ExitCode::SUCCESS)
    }),
    (
        "replay",
        "",
        "--seed --stratified --from --to --index",
        |a, out| cmd_replay(a, out).map(|()| ExitCode::SUCCESS),
    ),
    ("checkpoint", "", "--every -o --out --check", cmd_checkpoint),
    (
        "inspect",
        "--json",
        "--watch --limit --at --index",
        |a, out| cmd_inspect(a, out).map(|()| ExitCode::SUCCESS),
    ),
    (
        "analyze",
        "--json --deps",
        "--skip --max-examples --trace",
        cmd_analyze,
    ),
    (
        "bench",
        "--full --verbose",
        "--figure --json --jobs --baseline --tolerance --seed --budget-div",
        cmd_bench,
    ),
    (
        "crashtest",
        "",
        "--seed --workload --procs --budget --chunk",
        cmd_crashtest,
    ),
];

fn run(argv: &[String], out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let Some(cmd) = argv.first() else {
        return Err(Failure::Usage("missing command".to_string()));
    };
    let Some((name, switches, valued, handler)) = COMMANDS.iter().find(|(name, ..)| name == cmd)
    else {
        return Err(Failure::Usage(format!("unknown command {cmd}")));
    };
    handler(&Args::parse(&argv[1..], name, switches, valued)?, out)
}

fn cmd_list(out: &mut dyn Write) -> Result<(), Failure> {
    writeln!(
        out,
        "{:<11} {:>6} {:>6} {:>6} {:>7}  kind",
        "workload", "mem%", "shared%", "write%", "locks"
    )?;
    for w in workload::catalog() {
        writeln!(
            out,
            "{:<11} {:>6.0} {:>7.0} {:>6.0} {:>7}  {:?}",
            w.name,
            w.mem_frac * 100.0,
            w.shared_frac * 100.0,
            w.write_frac * 100.0,
            if w.lock_every == 0 {
                "-".to_string()
            } else {
                w.lock_count.to_string()
            },
            w.kind
        )?;
    }
    Ok(())
}

fn parse_mode(s: &str) -> Result<Mode, Failure> {
    match s.to_ascii_lowercase().as_str() {
        "ordersize" | "order&size" | "os" => Ok(Mode::OrderSize),
        "orderonly" | "oo" => Ok(Mode::OrderOnly),
        "picolog" | "pl" => Ok(Mode::PicoLog),
        other => Err(Failure::Usage(format!(
            "unknown mode {other} (ordersize|orderonly|picolog)"
        ))),
    }
}

fn machine_from_meta(meta: &StreamMeta) -> Machine {
    Machine::builder()
        .mode(meta.mode)
        .procs(meta.n_procs)
        .chunk_size(meta.chunk_size)
        .budget(meta.budget)
        .devices(meta.devices)
        .build()
}

fn recording_path(args: &Args) -> Result<&String, Failure> {
    args.positional
        .first()
        .ok_or_else(|| Failure::Usage("missing recording file".to_string()))
}

/// Opens a `.dlrn` file as a streaming log source; only the header is
/// read eagerly, segments are decoded as the replay reaches them.
fn open_source(path: &str) -> Result<FileSource<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    FileSource::open(BufReader::new(file)).map_err(|e| format!("decoding {path}: {e}"))
}

fn load(args: &Args) -> Result<Recording, Failure> {
    let path = recording_path(args)?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(serialize::from_bytes(&bytes).map_err(|e| format!("decoding {path}: {e}"))?)
}

fn cmd_record(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let name = args
        .positional
        .first()
        .ok_or_else(|| Failure::Usage("missing workload name".to_string()))?;
    let w = workload::by_name(name)
        .ok_or_else(|| Failure::Usage(format!("unknown workload {name} (try `delorean list`)")))?;
    let dest = args
        .get("-o")
        .or_else(|| args.get("--out"))
        .ok_or_else(|| Failure::Usage("missing -o <file>".to_string()))?;
    let mode = args
        .get("--mode")
        .map(|s| parse_mode(&s))
        .transpose()?
        .unwrap_or(Mode::OrderOnly);
    let mut b = Machine::builder();
    b.mode(mode);
    b.procs(args.num_in("--procs", 1..=MAX_PROCS)?.unwrap_or(8));
    b.budget(args.num_in("--budget", 1..=u64::MAX)?.unwrap_or(50_000));
    if let Some(c) = args.num_in("--chunk", 1..=u32::MAX)? {
        b.chunk_size(c);
    }
    if let Some(t) = args.num("--timing-seed")? {
        b.timing_seed(t);
    }
    if let Some(a) = args.get("--arbiter") {
        let arbiter = delorean::ArbiterConfig::parse(&a).ok_or_else(|| {
            Failure::Usage(format!(
                "bad --arbiter {a} (use global or sharded:K, K in 1..=256)"
            ))
        })?;
        b.arbiter(arbiter);
    }
    let machine = b.build();
    let seed = args.num("--seed")?.unwrap_or(2026);
    let file = File::create(&dest).map_err(|e| format!("creating {dest}: {e}"))?;
    let mut sink = FileSink::new(BufWriter::new(file));
    // `--trace` stacks a JSONL tracer stage on the session; without it
    // the stage list is empty and the pipeline runs the bare fast path.
    let stats = match args.get("--trace") {
        None => machine.record_to(w, seed, &mut sink),
        Some(tpath) => {
            let tfile = File::create(&tpath).map_err(|e| format!("creating {tpath}: {e}"))?;
            let mut tracer = delorean_trace::JsonlTracer::new(BufWriter::new(tfile));
            let stats = machine
                .session()
                .with_stage(&mut tracer)
                .record_to(w, seed, &mut sink);
            let lines = tracer.lines();
            let (_, err) = tracer.finish();
            if let Some(e) = err {
                return Err(Failure::Run(format!("writing {tpath}: {e}")));
            }
            writeln!(out, "traced {lines} events -> {tpath}")?;
            stats
        }
    };
    let peak = sink.peak_buffered_bytes();
    let written = sink.bytes_written();
    let writer = sink
        .into_inner()
        .map_err(|e| format!("writing {dest}: {e}"))?;
    writer
        .into_inner()
        .map_err(|e| format!("writing {dest}: {e}"))?;
    writeln!(
        out,
        "recorded {name} ({mode}, {} procs, {} insts/proc) -> {dest} ({written} bytes, streamed)",
        machine.procs(),
        machine.budget(),
    )?;
    let kiloinsts = machine.procs() as f64 * machine.budget() as f64 / 1000.0;
    writeln!(out,
        "log stream: {:.3} bits/proc/kilo-instruction on disk, {} commits, {} squashes, peak buffer {peak} bytes",
        written as f64 * 8.0 / kiloinsts,
        stats.total_commits,
        stats.squashes
    )?;
    Ok(())
}

fn cmd_info(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let r = load(args)?;
    let meta = &r.meta;
    writeln!(out, "mode        : {}", meta.mode)?;
    writeln!(
        out,
        "workload    : {} (seed {})",
        meta.workload.name, meta.app_seed
    )?;
    writeln!(out, "processors  : {}", meta.n_procs)?;
    writeln!(out, "chunk size  : {}", meta.chunk_size)?;
    writeln!(out, "budget      : {} instructions/processor", meta.budget)?;
    writeln!(out, "arbiter     : {}", meta.arbiter)?;
    writeln!(out, "checkpoint  : {:#018x}", r.checkpoint_id())?;
    let s = r.memory_ordering_sizes();
    let logs = r.logs();
    writeln!(
        out,
        "PI log      : {} entries, {} bits raw / {} compressed",
        logs.pi.len(),
        s.pi.raw_bits,
        s.pi.compressed_bits
    )?;
    writeln!(
        out,
        "CS logs     : {} entries, {} bits raw",
        logs.cs.iter().map(|l| l.len()).sum::<usize>(),
        s.cs.raw_bits
    )?;
    writeln!(
        out,
        "input logs  : {} interrupts, {} I/O values, {} DMA transfers",
        r.stats.interrupts,
        logs.io.iter().map(|l| l.len()).sum::<usize>(),
        logs.dma.len()
    )?;
    writeln!(
        out,
        "rate        : {:.3} compressed bits/proc/kilo-instruction ({:.2} GB/day @ 8x5GHz IPC1)",
        r.compressed_bits_per_proc_per_kiloinst(),
        r.gigabytes_per_day(5.0, 1.0)
    )?;
    writeln!(out, "digest      : memory {:#018x}", r.digest().mem_hash)?;
    Ok(())
}

fn cmd_replay(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    if args.get("--from").is_some() || args.get("--to").is_some() {
        return cmd_replay_window(args, out);
    }
    let seed = args.num("--seed")?.unwrap_or(0x5a5a);
    let report = if let Some(max) = args.num_in("--stratified", 0..=u32::MAX)? {
        // Stratification needs the chunk footprints resident, so this
        // path still decodes the whole recording up front.
        let r = load(args)?;
        machine_from_meta(&r.meta)
            .replay_stratified(&r, max, seed)
            .map_err(|e| e.to_string())?
    } else {
        let path = recording_path(args)?;
        let source = open_source(path)?;
        machine_from_meta(source.meta())
            .replay_from_with_seed(source, seed)
            .map_err(|e| e.to_string())?
    };
    writeln!(
        out,
        "replayed {} commits in {} cycles",
        report.stats.total_commits, report.stats.cycles
    )?;
    write_verdict(out, report, "execution")
}

/// The lines that end every replay: the replayed digest's fingerprint,
/// then the verdict on `what` was replayed.
fn write_verdict(
    out: &mut dyn Write,
    report: delorean::ReplayReport,
    what: &str,
) -> Result<(), Failure> {
    writeln!(
        out,
        "digest fingerprint {:#018x}",
        report.stats.digest.fingerprint()
    )?;
    if report.deterministic {
        writeln!(out, "deterministic: yes — {what} reproduced bit-exactly")?;
        Ok(())
    } else {
        Err(Failure::Run(format!(
            "replay diverged: {}",
            report.divergence.unwrap_or_default()
        )))
    }
}

/// Resolves and decodes the `.dlrnx` sidecar for a recording: an
/// explicit `--index PATH`, or the `<file>x` convention next to the
/// log. Decode failures are typed errors — never a fallback to slot 0.
fn load_index_for(args: &Args, path: &str) -> Result<delorean::CheckpointIndex, String> {
    let xpath = args.get("--index").unwrap_or_else(|| format!("{path}x"));
    let encoded = std::fs::read(&xpath).map_err(|e| {
        format!("reading {xpath}: {e} (build an index with `delorean checkpoint {path}`)")
    })?;
    delorean::CheckpointIndex::from_bytes(&encoded)
        .map_err(|e| format!("checkpoint index {xpath}: {e}"))
}

/// Opens a checkpoint cursor over a recording: the `.dlrnx` sidecar
/// plus the log file, fingerprint-verified against each other.
fn open_cursor(args: &Args, path: &str) -> Result<delorean::ReplayCursor<BufReader<File>>, String> {
    let index = load_index_for(args, path)?;
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    delorean::ReplayCursor::open(BufReader::new(file), index)
        .map_err(|e| format!("opening checkpoint cursor on {path}: {e}"))
}

/// `delorean checkpoint <file>` — builds a `.dlrnx` checkpoint-index
/// sidecar (one indexing replay, snapshots every `--every` commits),
/// or with `--check PATH` validates an existing sidecar against the
/// log's fingerprint.
fn cmd_checkpoint(args: &Args, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = recording_path(args)?.clone();
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    if let Some(xpath) = args.get("--check") {
        let encoded = std::fs::read(&xpath).map_err(|e| format!("reading {xpath}: {e}"))?;
        let index = delorean::CheckpointIndex::from_bytes(&encoded)
            .and_then(|index| index.validate_against(&bytes).map(|()| index));
        return match index {
            Ok(x) => {
                writeln!(
                    out,
                    "checkpoint index OK: {} checkpoint(s) every {} commit(s) over {} commits, \
                     bound to {path} ({} bytes, fingerprint {:#018x})",
                    x.entries.len(),
                    x.interval_k,
                    x.total_commits,
                    x.source_len,
                    x.source_fnv
                )?;
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                writeln!(out, "checkpoint index INVALID: {e}")?;
                Ok(ExitCode::FAILURE)
            }
        };
    }
    let every = args.num("--every")?.unwrap_or(64);
    let index = delorean::index_stream(&bytes, every).map_err(|e| e.to_string())?;
    let dest = args
        .get("-o")
        .or_else(|| args.get("--out"))
        .unwrap_or_else(|| format!("{path}x"));
    let encoded = index.to_bytes();
    std::fs::write(&dest, &encoded).map_err(|e| format!("writing {dest}: {e}"))?;
    writeln!(
        out,
        "indexed {} commits -> {dest}: {} checkpoint(s) every {every} commit(s) ({} bytes)",
        index.total_commits,
        index.entries.len(),
        encoded.len()
    )?;
    Ok(ExitCode::SUCCESS)
}

/// `replay --from N [--to M]`: seeks to the nearest checkpoint at or
/// before N via the `.dlrnx` sidecar, rolls forward, and replays only
/// the window — to the end on the engine, or to commit M on the
/// software inspector.
fn cmd_replay_window(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let path = recording_path(args)?.clone();
    let from = args.num("--from")?.unwrap_or(0);
    let to = args.num("--to")?;
    if args.num("--stratified")?.is_some() {
        return Err(Failure::Usage(
            "--stratified and --from/--to are mutually exclusive".to_string(),
        ));
    }
    let machine = machine_from_meta(open_source(&path)?.meta());
    let mut cursor = open_cursor(args, &path)?;
    let report = machine
        .replay_window(&mut cursor, from, to)
        .map_err(|e| e.to_string())?;
    let span = match to {
        Some(t) => format!("{from}..{t}"),
        None => format!("{from}..end"),
    };
    writeln!(
        out,
        "replayed window {span}: {} commit(s)",
        report.stats.total_commits
    )?;
    write_verdict(out, report, "window")
}

/// `inspect --at N`: restores the architectural state at commit N via
/// the checkpoint index (seek + bounded roll-forward, not a full
/// replay) and prints its summary.
fn cmd_inspect_at(
    args: &Args,
    path: &str,
    at: u64,
    json: bool,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    let machine = machine_from_meta(open_source(path)?.meta());
    let mut cursor = open_cursor(args, path)?;
    let ck = machine
        .state_at(&mut cursor, at)
        .map_err(|e| e.to_string())?;
    if json {
        let chunks: Vec<String> = ck.state.chunks_done.iter().map(u64::to_string).collect();
        writeln!(out,
            "{{\"event\":\"state_at\",\"gcc\":{},\"checkpoint_id\":\"{:#018x}\",\"chunks_done\":[{}],\"max_retired\":{}}}",
            ck.gcc,
            ck.id(),
            chunks.join(","),
            ck.max_retired()
        )?;
    } else {
        writeln!(out, "state at commit {}:", ck.gcc)?;
        writeln!(
            out,
            "  workload     : {} (seed {})",
            ck.workload.name, ck.app_seed
        )?;
        writeln!(out, "  processors   : {}", ck.n_procs)?;
        writeln!(out, "  checkpoint id: {:#018x}", ck.id())?;
        writeln!(out, "  max retired  : {} instructions", ck.max_retired())?;
        for (p, c) in ck.state.chunks_done.iter().enumerate() {
            writeln!(out, "  P{p:<2} committed : {c} chunk(s)")?;
        }
    }
    Ok(())
}

fn cmd_inspect(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let path = recording_path(args)?.clone();
    if let Some(at) = args.num("--at")? {
        return cmd_inspect_at(args, &path, at, args.has("--json"), out);
    }
    let source = open_source(&path)?;
    let mode_tag = delorean_trace::mode_tag(source.mode());
    let json = args.has("--json");
    let mut inspector = ReplayInspector::from_source(source).map_err(|e| e.to_string())?;
    for w in args.get_all("--watch") {
        let addr = parse_addr(&w)?;
        inspector.watch(addr);
    }
    let limit = args.num("--limit")?.unwrap_or(u64::MAX);
    let watching = !args.get_all("--watch").is_empty();
    let mut printed = 0u64;
    while let Some(ev) = inspector.step().map_err(|e| e.to_string())? {
        let interesting = !watching || !ev.watch_hits.is_empty();
        if !interesting || printed >= limit {
            continue;
        }
        if json {
            // Commit spans share the session-trace schema: the line is
            // built from the same SubstrateEvent the pipeline emits.
            // The inspector has no cycle clock, so `t` is the global
            // commit slot.
            writeln!(
                out,
                "{}",
                delorean_trace::event_line(ev.gcc, mode_tag, &ev.to_substrate())
            )?;
            for h in &ev.watch_hits {
                writeln!(out,
                    "{{\"event\":\"watch\",\"t\":{},\"addr\":\"{:#x}\",\"old\":\"{:#x}\",\"new\":\"{:#x}\"}}",
                    ev.gcc, h.addr, h.old, h.new
                )?;
            }
        } else {
            let who = match ev.committer {
                Committer::Proc(p) => format!("P{p}"),
                Committer::Dma => "DMA".to_string(),
            };
            write!(
                out,
                "GCC {:>5}  {who:<4} chunk {:>4} size {:>5}",
                ev.gcc, ev.chunk_index, ev.size
            )?;
            if ev.interrupt {
                write!(out, "  [interrupt]")?;
            }
            for h in &ev.watch_hits {
                write!(out, "  {:#x}: {:#x} -> {:#x}", h.addr, h.old, h.new)?;
            }
            writeln!(out)?;
        }
        printed += 1;
    }
    // The stepped inspector is at the end of the log: this only checks
    // its final state against the trailer digest.
    let report = inspector.run_to_end().map_err(|e| e.to_string())?;
    if json {
        writeln!(
            out,
            "{{\"event\":\"inspect_end\",\"commits\":{},\"matches_recording\":{}}}",
            report.commits, report.matches_recording
        )?;
    } else {
        writeln!(
            out,
            "software replay of {} commits matches recording: {}",
            report.commits, report.matches_recording
        )?;
    }
    match report.mismatch {
        Some(mismatch) => Err(Failure::Run(format!(
            "software replay diverged: {mismatch}"
        ))),
        None => Ok(()),
    }
}

/// `delorean analyze --trace PATH` — validates a JSONL session trace
/// against the `delorean-trace` schema and summarizes it. Exits
/// non-zero on the first schema violation.
fn cmd_analyze_trace(path: &str, json: bool, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    match delorean_trace::validate(BufReader::new(file)) {
        Ok(s) => {
            if json {
                writeln!(out,
                    "{{\"trace\":\"valid\",\"lines\":{},\"mode\":\"{}\",\"workload\":\"{}\",\"procs\":{},\"commits\":{},\"chunk_starts\":{},\"squashes\":{},\"interrupts\":{},\"segment_flushes\":{},\"cycles\":{}}}",
                    s.lines,
                    s.mode,
                    s.workload,
                    s.procs,
                    s.commits,
                    s.chunk_starts,
                    s.squashes,
                    s.interrupts,
                    s.segment_flushes,
                    s.cycles
                )?;
            } else {
                writeln!(out,
                    "trace OK: {} lines — {} on {} ({} procs), {} commits / {} chunk starts / {} squashes / {} flushes in {} cycles",
                    s.lines,
                    s.workload,
                    s.mode,
                    s.procs,
                    s.commits,
                    s.chunk_starts,
                    s.squashes,
                    s.segment_flushes,
                    s.cycles
                )?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            writeln!(out, "trace INVALID: {e}")?;
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_analyze(args: &Args, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let skip = args.get_all("--skip");
    if let Some(pass) = skip
        .iter()
        .find(|s| !matches!(s.as_str(), "static" | "races" | "lint"))
    {
        return Err(Failure::Usage(format!(
            "unknown pass {pass} for --skip (expected static, races or lint)"
        )));
    }
    let skip = |pass: &str| skip.iter().any(|s| s == pass);
    if let Some(tpath) = args.get("--trace") {
        return cmd_analyze_trace(&tpath, args.has("--json"), out);
    }
    let path = recording_path(args)?.clone();
    let max_examples = args.num("--max-examples")?.map(|n| n as usize);
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;

    // Pass 3 first: the lint works on the raw byte stream and cannot
    // itself fail, so a corrupt file still yields a report. Linting
    // the full byte image lets a damaged stream also carry the salvage
    // account of what a recovery would preserve.
    let lint = (!skip("lint")).then(|| delorean_analyze::lint_bytes(&bytes));
    // The static and replay passes need decodable metadata; without it
    // they are skipped (the lint above already carries the decode
    // error), and the dependence pass salvages what it can. When
    // neither reports the header, its decode error ends the run.
    let source = match FileSource::open(&bytes[..]) {
        Ok(source) => Some(source),
        Err(e) if lint.is_none() && !args.has("--deps") => {
            return Err(format!("decoding {path}: {e}").into());
        }
        Err(_) => None,
    };
    let (workload, mode, n_procs, static_pass) = match &source {
        None => ("unknown".to_string(), "unknown".to_string(), 0, None),
        Some(source) => {
            let meta = source.meta();
            let static_pass = (!skip("static")).then(|| {
                let mut opts = delorean_analyze::StaticOptions::default();
                if let Some(n) = max_examples {
                    opts.max_examples = n;
                }
                delorean_analyze::analyze_workload(
                    &meta.workload,
                    meta.n_procs,
                    meta.app_seed,
                    &opts,
                )
            });
            let (workload, mode) = (meta.workload.name.to_string(), meta.mode.to_string());
            (workload, mode, meta.n_procs, static_pass)
        }
    };
    // Passes 2 and 4 replay the log. With `--deps` one replay feeds
    // both, and a damaged stream degrades to a partial graph over the
    // salvaged prefix instead of erroring.
    let race_opts = (!skip("races")).then(|| {
        let mut opts = delorean_analyze::RaceOptions::default();
        if let Some(n) = max_examples {
            opts.max_examples = n;
        }
        opts
    });
    let (races, deps) = if args.has("--deps") {
        let (races, deps) = delorean_analyze::races_and_deps(
            &bytes,
            race_opts.as_ref(),
            &delorean_analyze::DepsOptions::default(),
        );
        (races, Some(deps))
    } else {
        let races = race_opts.zip(source).map(|(opts, source)| {
            delorean_analyze::detect_races(source, &opts)
                .unwrap_or_else(|e| delorean_analyze::RaceReport::failed(&e))
        });
        (races, None)
    };
    let report = delorean_analyze::AnalysisReport {
        workload,
        mode,
        n_procs,
        static_pass,
        races,
        lint,
        deps,
    };
    if args.has("--json") {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{report}")?;
    }
    if report.error_count() > 0 {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `delorean crashtest` — sweeps the fault-injection scenario matrix
/// (workloads × modes × fault classes) and verifies the recovery
/// invariants: every injected-fault run either replays bit-identically
/// to ground truth on its recovered commit ranges or produces a
/// salvage report naming the lost range. The matrix runs twice to
/// prove the fault schedules and reports are seed-deterministic.
/// Exits non-zero iff any invariant is violated.
fn cmd_crashtest(args: &Args, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let mut cfg = delorean_faults::CrashtestConfig::smoke(args.num("--seed")?.unwrap_or(42));
    if let Some(n) = args.num_in("--procs", 1..=MAX_PROCS)? {
        cfg.procs = n;
    }
    if let Some(n) = args.num_in("--budget", 1..=u64::MAX)? {
        cfg.budget = n;
    }
    if let Some(n) = args.num_in("--chunk", 1..=u32::MAX)? {
        cfg.chunk_size = n;
    }
    let workloads = args.get_all("--workload");
    if !workloads.is_empty() {
        for w in &workloads {
            if workload::by_name(w).is_none() {
                return Err(Failure::Usage(format!(
                    "unknown workload {w} (see `delorean list`)"
                )));
            }
        }
        cfg.workloads = workloads;
    }
    let report = delorean_faults::run_crashtest(&cfg)?;
    write!(out, "{}", report.render())?;
    let again = delorean_faults::run_crashtest(&cfg)?;
    if report.render() != again.render() {
        writeln!(
            out,
            "crashtest: FAIL (matrix is not deterministic across reruns)"
        )?;
        return Ok(ExitCode::FAILURE);
    }
    if report.passed() {
        writeln!(out, "crashtest: PASS (matrix deterministic across reruns)")?;
        Ok(ExitCode::SUCCESS)
    } else {
        writeln!(out, "crashtest: FAIL")?;
        Ok(ExitCode::FAILURE)
    }
}

/// `delorean bench` — the parallel experiment engine: regenerates the
/// paper's figure/table points as a job sweep, optionally writing the
/// structured `BENCH_results.json` document and gating against a
/// committed baseline.
///
/// No partial output: any sweep error (zero budget, unknown workload
/// or figure, a panicking job) surfaces *before* the JSON file is
/// created.
fn cmd_bench(args: &Args, out: &mut dyn Write) -> Result<ExitCode, Failure> {
    let mut figures = Vec::new();
    for name in args.get_all("--figure") {
        figures.push(bench::Figure::parse(&name).ok_or_else(|| {
            Failure::Usage(bench::BenchError::UnknownFigure { name: name.clone() }.to_string())
        })?);
    }
    let cfg = bench::SweepConfig {
        figures,
        jobs: args.num("--jobs")?.unwrap_or(0) as usize,
        full: args.has("--full"),
        base_seed: args.num("--seed")?.unwrap_or(42),
        budget_div: args.num("--budget-div")?.unwrap_or(1),
        verbose: args.has("--verbose"),
    };
    let results = bench::run_sweep(&cfg).map_err(|e| e.to_string())?;

    if let Some(path) = args.get("--json") {
        let text = results.to_json().pretty();
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(
            out,
            "wrote {} records to {path} ({} workers, {:.0} ms)",
            results.records.len(),
            results.workers,
            results.total_wall_ms
        )?;
    }
    print_bench_summary(&results, out)?;
    if args.has("--verbose") {
        print_stage_totals(&results, out)?;
    }

    let Some(baseline_path) = args.get("--baseline") else {
        return Ok(ExitCode::SUCCESS);
    };
    let text = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    let baseline = bench::parse_document(&text).map_err(|e| e.to_string())?;
    let tolerance = args.num("--tolerance")?.unwrap_or(25) as f64;
    let report = bench::diff_against(&results, &baseline, tolerance);
    write!(out, "{}", report.render())?;
    if report.passed() {
        writeln!(out, "baseline gate: PASS")?;
        Ok(ExitCode::SUCCESS)
    } else {
        writeln!(out, "baseline gate: FAIL")?;
        Ok(ExitCode::FAILURE)
    }
}

fn print_bench_summary(results: &bench::SweepResults, out: &mut dyn Write) -> io::Result<()> {
    for s in &results.summaries {
        writeln!(out)?;
        writeln!(out, "== {} ==", s.figure)?;
        for m in &s.metrics {
            match m.paper {
                Some(p) => writeln!(
                    out,
                    "  {:<32} measured {:>10.3}   paper {:>8.3}",
                    m.name, m.measured, p
                )?,
                None => writeln!(out, "  {:<32} measured {:>10.3}", m.name, m.measured)?,
            }
        }
    }
    Ok(())
}

/// Per-stage wall-clock totals across the sweep (`--verbose`).
fn print_stage_totals(results: &bench::SweepResults, out: &mut dyn Write) -> io::Result<()> {
    let mut record = 0.0;
    let mut replay = 0.0;
    let mut compress = 0.0;
    let mut arb: u64 = 0;
    for r in &results.records {
        record += r.timings.record_ms;
        replay += r.timings.replay_ms;
        compress += r.timings.compress_ms;
        arb += r.timings.arb_cycles;
    }
    writeln!(out)?;
    writeln!(out, "stage totals across {} jobs:", results.records.len())?;
    writeln!(out, "  record    {record:>10.0} ms")?;
    writeln!(out, "  replay    {replay:>10.0} ms")?;
    writeln!(out, "  compress  {compress:>10.0} ms")?;
    writeln!(out, "  commit arbitration {arb} simulated cycles")?;
    let peak = results.records.iter().map(|r| r.peak_rss_kb).max();
    if let Some(kb) = peak {
        writeln!(out, "  peak RSS  {kb} KiB")?;
    }
    Ok(())
}

fn parse_addr(s: &str) -> Result<u64, Failure> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| Failure::Usage(format!("bad address {s}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn retired_and_misspelt_flags_fail_before_any_file_is_opened() {
        // `x.dlrn` does not exist: reaching the file would report
        // "reading x.dlrn" instead of the flag.
        for (line, flag) in [
            ("replay x.dlrn --jobs 2", "--jobs"),
            ("replay x.dlrn --jobs 8 --cert c", "--jobs"),
            ("replay x.dlrn --sed 5", "--sed"),
            ("inspect x.dlrn --limt 3", "--limt"),
            ("analyze x.dlrn --cert c", "--cert"),
            ("analyze x.dlrn --check-cert c", "--check-cert"),
        ] {
            let cmd = line.split_whitespace().next().unwrap();
            assert_eq!(
                run(&argv(line), &mut io::sink()).unwrap_err(),
                Failure::Usage(format!("unknown flag {flag} for `{cmd}`")),
                "{line}"
            );
        }
        assert_eq!(
            run(&argv("frobnicate x.dlrn"), &mut io::sink()).unwrap_err(),
            Failure::Usage("unknown command frobnicate".to_string())
        );
        // `--skip` names a pass; a value that names none is a usage
        // error, not a silent no-op (`deps` runs only on `--deps`).
        for (line, pass) in [
            ("analyze x.dlrn --skip racse", "racse"),
            ("analyze x.dlrn --skip deps --deps", "deps"),
            ("analyze x.dlrn --skip static --skip Lint", "Lint"),
            ("analyze --trace t.jsonl --skip trace", "trace"),
        ] {
            assert_eq!(
                run(&argv(line), &mut io::sink()).unwrap_err(),
                Failure::Usage(format!(
                    "unknown pass {pass} for --skip (expected static, races or lint)"
                )),
                "{line}"
            );
        }
    }

    #[test]
    fn analyze_fails_on_a_file_it_cannot_read_whatever_it_skips() {
        for line in [
            "analyze x.dlrn --json",
            "analyze x.dlrn --skip lint",
            "analyze x.dlrn --skip lint --skip races --deps",
        ] {
            let err = run(&argv(line), &mut io::sink()).unwrap_err();
            assert!(
                matches!(&err, Failure::Run(msg) if msg.starts_with("reading x.dlrn: ")),
                "{line}: {err:?}"
            );
        }
    }

    #[test]
    fn out_of_range_numbers_fail_naming_the_flag() {
        // Each value would panic the machine builder or wrap through
        // `as u32`; all must be rejected before anything runs or any
        // file is created.
        for (line, flag) in [
            ("record fft -o x.dlrn --chunk 0", "--chunk"),
            ("record fft -o x.dlrn --budget 0", "--budget"),
            ("record fft -o x.dlrn --chunk 4294967296", "--chunk"),
            ("record fft -o x.dlrn --procs 4294967298", "--procs"),
            ("replay x.dlrn --stratified 4294967296", "--stratified"),
            ("crashtest --chunk 0", "--chunk"),
            ("crashtest --budget 0", "--budget"),
        ] {
            let err = run(&argv(line), &mut io::sink()).unwrap_err();
            assert!(
                matches!(&err, Failure::Usage(msg) if msg.starts_with(&format!("flag {flag} expects"))),
                "{line}: {err:?}"
            );
        }
        assert!(!Path::new("x.dlrn").exists());
    }

    /// Markdown and workflow files under `dir`, skipping build output.
    fn docs_under(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy();
            if path.is_dir() {
                if !matches!(name.as_ref(), "target" | ".git" | ".bench_build") {
                    docs_under(&path, out);
                }
            } else if name.ends_with(".md") || name.ends_with(".yml") {
                out.push(path);
            }
        }
    }

    /// The shell lines of a document — every line of a workflow, the
    /// fenced code blocks of Markdown — with `\` continuations joined.
    fn shell_lines(text: &str, markdown: bool) -> Vec<String> {
        let mut lines = Vec::new();
        let mut in_fence = !markdown;
        let mut pending = String::new();
        for line in text.lines() {
            if markdown && line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if !in_fence {
                continue;
            }
            match line.trim_end().strip_suffix('\\') {
                Some(head) => pending.push_str(head),
                None => {
                    pending.push_str(line);
                    lines.push(std::mem::take(&mut pending));
                }
            }
        }
        lines
    }

    /// The `delorean-rr` invocations on one shell line, as argument
    /// vectors starting at the subcommand.
    fn invocations(line: &str) -> Vec<Vec<String>> {
        let mut found = Vec::new();
        let mut current: Option<Vec<String>> = None;
        for word in line.split_whitespace() {
            let program = word.trim_start_matches("$(");
            if program == "$B" || program == "delorean-rr" || program.ends_with("/delorean-rr") {
                found.extend(current.replace(Vec::new()));
                continue;
            }
            let Some(cmd) = current.as_mut() else {
                continue;
            };
            if word.starts_with(['|', '>', '&', '#', ';']) || word.starts_with("2>") {
                found.extend(current.take());
                continue;
            }
            let arg = word.trim_end_matches([';', ')']);
            cmd.push(arg.trim_matches(['"', '\'']).to_string());
            if arg.len() != word.len() {
                found.extend(current.take());
            }
        }
        found.extend(current);
        found.retain(|cmd| !cmd.is_empty());
        found
    }

    #[test]
    fn documented_command_lines_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs = Vec::new();
        docs_under(&root, &mut docs);
        let mut checked = 0;
        for doc in docs {
            let text = std::fs::read_to_string(&doc).unwrap();
            let markdown = doc.extension().is_some_and(|e| e == "md");
            let doc = doc.strip_prefix(&root).unwrap_or(&doc);
            for line in shell_lines(&text, markdown) {
                for cmd in invocations(&line) {
                    let Some((name, switches, valued, _)) =
                        COMMANDS.iter().find(|(n, ..)| *n == cmd[0])
                    else {
                        panic!("{}: unknown command in `{}`", doc.display(), line.trim());
                    };
                    if let Err(e) = Args::parse(&cmd[1..], name, switches, valued) {
                        panic!("{}: `{}`: {e:?}", doc.display(), line.trim());
                    }
                    checked += 1;
                }
            }
        }
        assert!(
            checked >= 40,
            "only {checked} documented command lines found"
        );
    }
}

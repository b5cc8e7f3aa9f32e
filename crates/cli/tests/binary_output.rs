//! What the `delorean-rr` binary prints: the pinned `crashtest` report,
//! the replayed digest, and when a failure earns the usage text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_delorean-rr");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).unwrap()
}

/// A fresh scratch directory under the build tree.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `crashtest --seed 42` records, damages, salvages and replays every
/// scenario of the smoke matrix through `FileSink`, so its report pins
/// the sink's write sequence as well as the salvage results: a torn
/// write lands on a different byte when the sink writes a segment's
/// head and body in one call instead of two. Regenerate (only when the
/// output intentionally changes) with
/// `DELOREAN_REGEN_GOLDEN=1 cargo test -q -p delorean-cli --test binary_output`.
#[test]
fn crashtest_seed_42_matches_the_golden_report() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/crashtest_seed42.txt");
    let out = run(&["crashtest", "--seed", "42"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let fresh = text(&out.stdout);
    if std::env::var("DELOREAN_REGEN_GOLDEN").is_ok() {
        std::fs::write(&golden, &fresh).unwrap();
        return;
    }
    assert_eq!(
        std::fs::read_to_string(&golden).unwrap(),
        fresh,
        "crashtest --seed 42 output drifted from tests/golden/crashtest_seed42.txt"
    );
}

/// The `analyze --json` documents with and without the race and
/// dependence passes, over four logs: radix under OrderOnly, sweb2005
/// under PicoLog (interrupts, I/O and a DMA transfer), fft on 16
/// processors behind a 4-shard arbiter, and a multi-segment fft log cut
/// to three quarters of its length, whose deps graph covers the
/// salvaged prefix. Regenerate (only when the output intentionally
/// changes) with
/// `DELOREAN_REGEN_GOLDEN=1 cargo test -q -p delorean-cli --test binary_output`.
#[test]
fn analyze_reports_match_the_golden_file() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/analyze_reports.txt");
    let dir = scratch("analyze_golden");
    let logs = [
        (
            "radix-orderonly-4",
            "radix --mode orderonly --procs 4 --budget 20000",
        ),
        (
            "sweb2005-picolog-4",
            "sweb2005 --mode picolog --procs 4 --budget 300000",
        ),
        (
            "fft-sharded4-16",
            "fft --procs 16 --budget 20000 --arbiter sharded:4",
        ),
        (
            "fft-truncated-4",
            "fft --procs 4 --budget 40000 --chunk 100",
        ),
    ];
    let mut fresh = String::new();
    for (name, record) in logs {
        let log = dir.join(format!("{name}.dlrn"));
        let log_arg = log.to_str().unwrap();
        let mut words = record.split_whitespace();
        let mut args = vec!["record", words.next().unwrap(), "-o", log_arg];
        args.extend(words);
        let out = run(&args);
        assert!(out.status.success(), "{}", text(&out.stderr));
        if name.ends_with("truncated-4") {
            let bytes = std::fs::read(&log).unwrap();
            std::fs::write(&log, &bytes[..bytes.len() * 3 / 4]).unwrap();
        }
        for flags in ["--json", "--deps --json", "--skip races --deps --json"] {
            let mut args = vec!["analyze", log_arg];
            args.extend(flags.split_whitespace());
            let out = run(&args);
            assert!(!text(&out.stderr).contains("panicked"), "{name}");
            fresh.push_str(&format!(
                "== {name}: analyze {flags} (exit {:?})\n{}",
                out.status.code(),
                text(&out.stdout)
            ));
        }
    }
    if std::env::var("DELOREAN_REGEN_GOLDEN").is_ok() {
        std::fs::write(&golden, &fresh).unwrap();
        return;
    }
    assert_eq!(
        std::fs::read_to_string(&golden).unwrap(),
        fresh,
        "analyze output drifted from tests/golden/analyze_reports.txt"
    );
}

#[test]
fn runtime_failures_print_the_error_without_the_usage_text() {
    let dir = scratch("runtime_failures");
    let log = dir.join("fft.dlrn");
    let log_arg = log.to_str().unwrap();
    let out = run(&[
        "record", "fft", "-o", log_arg, "--procs", "4", "--budget", "20000",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let bytes = std::fs::read(&log).unwrap();
    let truncated = dir.join("truncated.dlrn");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();

    let out = run(&["replay", truncated.to_str().unwrap()]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: replay log source failed: "),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");

    // The arguments of the same run were fine until a flag is wrong.
    let out = run(&["replay", truncated.to_str().unwrap(), "--sed", "5"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown flag --sed for `replay`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// `analyze` of a log whose header does not decode fails as `replay`
/// and `inspect` do when no pass of the run would report the header:
/// only the lint and `--deps` report a damaged stream.
#[test]
fn analyze_fails_on_a_header_no_pass_reports() {
    let dir = scratch("analyze_header");
    let log = dir.join("fft.dlrn");
    let log_arg = log.to_str().unwrap();
    let out = run(&[
        "record", "fft", "-o", log_arg, "--procs", "4", "--budget", "20000",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let cut = dir.join("cut10.dlrn");
    let cut_arg = cut.to_str().unwrap();
    std::fs::write(&cut, &std::fs::read(&log).unwrap()[..10]).unwrap();

    let out = run(&["analyze", cut_arg, "--skip", "lint", "--json"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        format!("error: decoding {cut_arg}: truncated or malformed field: file header\n")
    );
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));

    // The lint reports the header in the document.
    let out = run(&["analyze", cut_arg, "--json"]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("\"severity\":\"error\""));

    let out = run(&["analyze", log_arg, "--skip", "lint", "--json"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
}

/// `checkpoint` over a log cut mid-segment fails naming the log and
/// where it broke, not a malformed index: no index exists yet, and none
/// is written.
#[test]
fn indexing_a_damaged_log_names_the_log() {
    let dir = scratch("checkpoint_damaged");
    let log = dir.join("fft.dlrn");
    let log_arg = log.to_str().unwrap();
    let out = run(&[
        "record", "fft", "-o", log_arg, "--procs", "4", "--budget", "200000",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let bytes = std::fs::read(&log).unwrap();
    let cut = dir.join("cut.dlrn");
    let cut_arg = cut.to_str().unwrap();
    std::fs::write(&cut, &bytes[..bytes.len() * 3 / 4]).unwrap();

    let out = run(&["checkpoint", cut_arg, "--every", "16"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: log cannot be indexed: log stream failed: truncated or malformed field: \
         segment body (at segment 5, commit 320, byte offset 285772)\n"
    );
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
    assert!(!dir.join("cut.dlrnx").exists());
}

/// `inspect` checks the software replay's final state against the
/// trailer digest: it prints the verdict, then fails on a mismatch as
/// `replay` of the same log does.
#[test]
fn inspect_fails_when_the_replay_does_not_match_the_recording() {
    let dir = scratch("inspect_mismatch");
    let m = delorean::Machine::builder().procs(4).budget(20_000).build();
    let mut recording = m.record(delorean_isa::workload::by_name("fft").unwrap(), 1);
    let intact = dir.join("intact.dlrn");
    std::fs::write(&intact, delorean::serialize::to_bytes(&recording)).unwrap();
    recording.stats.digest.mem_hash ^= 1;
    let tampered = dir.join("tampered.dlrn");
    let tampered_arg = tampered.to_str().unwrap();
    std::fs::write(&tampered, delorean::serialize::to_bytes(&recording)).unwrap();

    let out = run(&["inspect", tampered_arg, "--limit", "0"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        text(&out.stdout).ends_with("matches recording: false\n"),
        "{}",
        text(&out.stdout)
    );
    assert_eq!(
        stderr,
        "error: software replay diverged: final memory differs\n"
    );

    let out = run(&["inspect", tampered_arg, "--limit", "0", "--json"]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stdout).ends_with("\"matches_recording\":false}\n"));

    let out = run(&["replay", tampered_arg]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));

    let out = run(&["inspect", intact.to_str().unwrap(), "--limit", "0"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(text(&out.stdout).ends_with("matches recording: true\n"));
}

/// A reader that stops early, as `inspect --json | head -1` does, ends
/// the run quietly: the binary exits with success when its output pipe
/// closes, without a panic or an error line.
#[test]
fn a_closed_output_pipe_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = scratch("closed_pipe");
    let log = dir.join("fft.dlrn");
    let log_arg = log.to_str().unwrap();
    // ~1,600 commit lines: far more than a pipe buffer holds, so the
    // binary is still writing when the pipe closes.
    let out = run(&[
        "record", "fft", "-o", log_arg, "--procs", "4", "--budget", "40000", "--chunk", "100",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));

    let mut child = Command::new(BIN)
        .args(["inspect", log_arg, "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("{\"event\":\"commit\""), "{first}");
    // The reader above was dropped: the pipe is closed.
    let out = child.wait_with_output().unwrap();
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// A plain replay prints the replayed digest's fingerprint, the same
/// line as a windowed replay of the whole log, so comparing two logs'
/// replays needs no checkpoint index.
#[test]
fn a_plain_replay_prints_the_digest_of_a_window_from_commit_0() {
    let dir = scratch("plain_replay_digest");
    let log = dir.join("fft.dlrn");
    let log_arg = log.to_str().unwrap();
    let out = run(&[
        "record", "fft", "-o", log_arg, "--procs", "4", "--budget", "20000",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let fingerprint = |args: &[&str]| {
        let out = run(args);
        assert!(out.status.success(), "{}", text(&out.stderr));
        let stdout = text(&out.stdout);
        let lines: Vec<_> = stdout
            .lines()
            .filter(|l| l.starts_with("digest fingerprint 0x"))
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len(), 1, "{stdout}");
        lines[0].clone()
    };
    let plain = fingerprint(&["replay", log_arg]);
    let out = run(&["checkpoint", log_arg, "--every", "1000000"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(plain, fingerprint(&["replay", log_arg, "--from", "0"]));
}

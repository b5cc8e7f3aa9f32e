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

//! Every command-line binary parses its flags through one cursor
//! (`dvr_sim::cli::Args`), so every malformed command line fails the same
//! way: exit status 2, nothing on stdout, exactly one `error:` line on
//! stderr naming the offending flag, and never a panic.
//!
//! This file is compiled into the test suites of both `dvr-sim` (which
//! builds `dvrsim`) and `bench` (which builds `figures` and `diag`); each
//! suite runs the rows whose binary its package builds.

use std::process::Command;

/// `(binary, arguments, text the error line must contain)`.
const CASES: &[(&str, &[&str], &str)] = &[
    // The default (no-subcommand) mode.
    ("dvrsim", &["--bench", "bfs", "--bogus"], "'--bogus'"),
    ("dvrsim", &["--bench", "bfs", "--instrs"], "--instrs"),
    ("dvrsim", &["--bench", "bfs", "--instrs", "1e5"], "--instrs"),
    ("dvrsim", &["lint", "--all", "--bogus"], "'--bogus'"),
    ("dvrsim", &["lint", "--all", "--seed"], "--seed"),
    ("dvrsim", &["lint", "--all", "--seed", "x"], "--seed"),
    ("dvrsim", &["audit", "--all", "--bogus"], "'--bogus'"),
    ("dvrsim", &["audit", "--all", "--instrs"], "--instrs"),
    ("dvrsim", &["audit", "--all", "--instrs", "x"], "--instrs"),
    ("dvrsim", &["lint-taint", "--all", "--bogus"], "'--bogus'"),
    ("dvrsim", &["lint-taint", "--all", "--seed"], "--seed"),
    ("dvrsim", &["lint-taint", "--all", "--seed", "x"], "--seed"),
    ("dvrsim", &["leak-audit", "--all", "--bogus"], "'--bogus'"),
    ("dvrsim", &["leak-audit", "--all", "--instrs"], "--instrs"),
    ("dvrsim", &["leak-audit", "--all", "--instrs", "x"], "--instrs"),
    ("dvrsim", &["bounds-audit", "--all", "--bogus"], "'--bogus'"),
    ("dvrsim", &["bounds-audit", "--all", "--instrs"], "--instrs"),
    ("dvrsim", &["bounds-audit", "--all", "--instrs", "x"], "--instrs"),
    ("dvrsim", &["sample", "--bench", "bfs", "--bogus"], "'--bogus'"),
    ("dvrsim", &["sample", "--bench", "bfs", "--period"], "--period"),
    ("dvrsim", &["sample", "--bench", "bfs", "--threads", "two"], "--threads"),
    ("dvrsim", &["mix", "--cores", "2", "--bogus"], "'--bogus'"),
    ("dvrsim", &["mix", "--cores"], "--cores"),
    ("dvrsim", &["mix", "--cores", "two"], "--cores"),
    ("dvrsim", &["sweep", "--bogus"], "'--bogus'"),
    ("dvrsim", &["sweep", "--jobs"], "--jobs"),
    ("dvrsim", &["sweep", "--retries", "x"], "--retries"),
    ("dvrsim", &["sweep-worker", "--bogus"], "'--bogus'"),
    ("dvrsim", &["sweep-worker"], "CELL-KEY"),
    // Removed: the socket service, the sample-worker processes, and the
    // `--jobs` knobs that fed them.
    ("dvrsim", &["serve", "--socket", "dvr.sock"], "'serve'"),
    ("dvrsim", &["sample-worker", "--bench", "bfs"], "'sample-worker'"),
    ("dvrsim", &["sample", "--bench", "bfs", "--jobs", "2"], "'--jobs'"),
    ("figures", &["fig9", "--bogus"], "'--bogus'"),
    ("figures", &["fig9", "--instrs"], "--instrs"),
    ("figures", &["fig9", "--threads", "two"], "--threads"),
    ("figures", &["fig9", "--jobs", "2"], "'--jobs'"),
    ("diag", &["--bogus"], "'--bogus'"),
    ("diag", &["--threads"], "--threads"),
    ("diag", &["--threads", "two"], "--threads"),
];

/// The path of a binary this test suite's package builds.
fn binary(name: &str) -> Option<&'static str> {
    match name {
        "dvrsim" => option_env!("CARGO_BIN_EXE_dvrsim"),
        "figures" => option_env!("CARGO_BIN_EXE_figures"),
        "diag" => option_env!("CARGO_BIN_EXE_diag"),
        _ => None,
    }
}

#[test]
fn every_malformed_flag_exits_2_with_one_error_line() {
    let mut ran = 0;
    for &(bin, args, names) in CASES {
        let Some(exe) = binary(bin) else { continue };
        let what = format!("{bin} {}", args.join(" "));
        let out = Command::new(exe).args(args).output().expect("spawn the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{what}: panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(2), "{what}: wrong exit status:\n{stderr}");
        assert!(out.stdout.is_empty(), "{what}: wrote to stdout");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{what}: want one stderr line, got:\n{stderr}");
        assert!(
            lines[0].starts_with("error: ") && lines[0].contains(names),
            "{what}: error line must name {names}: {}",
            lines[0]
        );
        ran += 1;
    }
    assert!(ran > 0, "no row of the table names a binary of this package");
}

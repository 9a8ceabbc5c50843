//! Crash-safety acceptance tests for `dvrsim sweep`: a sweep interrupted
//! at any point — SIGKILL mid-flight, injected abort after N journal
//! records, a torn journal tail, killed or hung workers, corrupted cache
//! entries — must resume without recomputing settled cells and render a
//! `summary.json` byte-identical to an uninterrupted run's.

use std::path::PathBuf;
use std::process::{Command, Output};

use proptest::prelude::*;

/// The grid every test sweeps: 2 benchmarks x 2 techniques at test
/// scale (BFS carries the KR input; NAS-IS takes none).
const GRID: [&str; 6] = ["--bench", "bfs,nas-is", "--technique", "ooo,dvr", "--size", "test"];
const GRID_CELLS: usize = 4;

struct SweepDirs {
    root: PathBuf,
}

impl SweepDirs {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("dvrsim-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test scratch");
        SweepDirs { root }
    }

    fn out(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn summary(&self, name: &str) -> String {
        std::fs::read_to_string(self.out(name).join("summary.json")).expect("summary.json exists")
    }
}

impl Drop for SweepDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Runs `dvrsim sweep <GRID> --instrs 8000 <extra>` with its own out dir.
fn sweep(dirs: &SweepDirs, out: &str, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dvrsim"));
    cmd.arg("sweep").args(GRID).args(["--instrs", "8000"]);
    cmd.args(["--out", dirs.out(out).to_str().unwrap()]);
    if !extra.contains(&"--cache") {
        cmd.arg("--no-cache");
    }
    cmd.args(extra);
    cmd.output().expect("spawn dvrsim sweep")
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "sweep failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn stderr_stat(out: &Output, key: &str) -> u64 {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find(|l| l.starts_with("sweep: cells=")).unwrap_or_else(|| {
        panic!("no sweep stats line in stderr: {stderr}");
    });
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in stats line: {line}"))
        .parse()
        .expect("numeric stat")
}

#[test]
fn sigkilled_sweep_resumes_byte_identical() {
    let dirs = SweepDirs::new("sigkill");
    let clean = sweep(&dirs, "clean", &[]);
    assert_ok(&clean);
    let reference = dirs.summary("clean");

    // Launch the same grid in a fresh out dir, poll the journal until at
    // least one cell has settled, then SIGKILL the process mid-sweep.
    let out_dir = dirs.out("killed");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dvrsim"));
    cmd.arg("sweep").args(GRID).args(["--instrs", "8000", "--no-cache"]);
    cmd.args(["--out", out_dir.to_str().unwrap()]);
    cmd.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().expect("spawn sweep to kill");
    let journal = out_dir.join("journal.dvrj");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let settled = std::fs::read_to_string(&journal)
            .map(|s| s.lines().filter(|l| l.contains(" done ")).count())
            .unwrap_or(0);
        if settled >= 1 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // Too fast to interrupt on this host: the run finished clean,
            // which still exercises the resume path below (full replay).
            assert!(status.success());
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no journal progress within 120s");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    let resumed = sweep(&dirs, "killed", &[]);
    assert_ok(&resumed);
    assert_eq!(
        dirs.summary("killed"),
        reference,
        "summary after SIGKILL + resume must be byte-identical"
    );
}

#[test]
fn torn_journal_tail_is_dropped_and_resume_matches() {
    let dirs = SweepDirs::new("torn");
    let clean = sweep(&dirs, "clean", &[]);
    assert_ok(&clean);

    // trunc=2 tears bytes off the 2nd journal append and aborts; the
    // replay must drop the torn record and recompute only that cell.
    let torn = sweep(&dirs, "torn", &["--inject-sweep", "trunc=2,trunc-bytes=5"]);
    assert!(!torn.status.success(), "torn run reports the abort");
    let resumed = sweep(&dirs, "torn", &[]);
    assert_ok(&resumed);
    assert!(stderr_stat(&resumed, "replay_dropped_bytes") > 0, "tail was truncated");
    assert_eq!(stderr_stat(&resumed, "journal") as usize, 1, "first record survived");
    assert_eq!(dirs.summary("torn"), dirs.summary("clean"));
}

#[test]
fn killed_worker_is_retried_transparently() {
    let dirs = SweepDirs::new("killworker");
    let clean = sweep(&dirs, "clean", &[]);
    assert_ok(&clean);
    let injured = sweep(&dirs, "injured", &["--jobs", "2", "--inject-sweep", "kill=1"]);
    assert_ok(&injured);
    assert!(
        stderr_stat(&injured, "spawns") > GRID_CELLS as u64,
        "the killed worker must have been respawned"
    );
    assert_eq!(dirs.summary("injured"), dirs.summary("clean"));
}

#[test]
fn hung_worker_times_out_and_the_retry_succeeds() {
    let dirs = SweepDirs::new("hang");
    let clean = sweep(&dirs, "clean", &[]);
    assert_ok(&clean);
    let hung =
        sweep(&dirs, "hung", &["--jobs", "1", "--timeout-ms", "1000", "--inject-sweep", "hang=1"]);
    assert_ok(&hung);
    assert_eq!(dirs.summary("hung"), dirs.summary("clean"));
}

#[test]
fn exhausted_retries_surface_a_typed_outcome_with_keep_going() {
    let dirs = SweepDirs::new("keepgoing");
    // A deterministic per-cell injury: the first spawn hangs, the
    // timeout kills it, and with zero retries the cell fails typed.
    let failed = sweep(
        &dirs,
        "exhausted",
        &[
            "--jobs",
            "1",
            "--retries",
            "0",
            "--timeout-ms",
            "300",
            "--keep-going",
            "--inject-sweep",
            "hang=1",
        ],
    );
    assert_ok(&failed);
    let summary = dirs.summary("exhausted");
    assert!(summary.contains("\"status\":\"failed\""), "typed failure rendered: {summary}");
    assert!(summary.contains("\"kind\":\"timeout\""), "timeout kind rendered: {summary}");
    assert!(summary.contains("\"status\":\"ok\""), "healthy cells still rendered");

    // Without --keep-going the same injury must fail the sweep — after
    // journaling the failure so a resume does not recompute it.
    let strict = sweep(
        &dirs,
        "strict",
        &["--jobs", "1", "--retries", "0", "--timeout-ms", "300", "--inject-sweep", "hang=1"],
    );
    assert!(!strict.status.success(), "strict mode propagates the failure");
}

#[test]
fn corrupt_cache_entry_is_quarantined_and_recomputed() {
    let dirs = SweepDirs::new("corrupt");
    let cache = dirs.root.join("cache");
    let cache_arg = cache.to_str().unwrap().to_string();
    let cold = sweep(&dirs, "cold", &["--cache", &cache_arg]);
    assert_ok(&cold);
    assert_eq!(stderr_stat(&cold, "cache_stores") as usize, GRID_CELLS);
    let reference = dirs.summary("cold");

    // Flip one byte in every stored entry, then sweep with a fresh
    // journal: every probe must detect the corruption, quarantine the
    // entry, and recompute — never serve corrupt bytes.
    let mut flipped = 0;
    for entry in std::fs::read_dir(&cache).expect("cache dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "res") {
            let mut raw = std::fs::read(&path).expect("read entry");
            let mid = raw.len() / 2;
            raw[mid] ^= 0x01;
            std::fs::write(&path, raw).expect("rewrite entry");
            flipped += 1;
        }
    }
    assert_eq!(flipped, GRID_CELLS);

    let warm = sweep(&dirs, "recomputed", &["--cache", &cache_arg]);
    assert_ok(&warm);
    assert_eq!(stderr_stat(&warm, "cache_corrupt") as usize, GRID_CELLS);
    assert_eq!(stderr_stat(&warm, "cache_hits"), 0, "corrupt entries never count as hits");
    assert_eq!(stderr_stat(&warm, "computed") as usize, GRID_CELLS);
    assert_eq!(dirs.summary("recomputed"), reference);
    let quarantined = std::fs::read_dir(cache.join("quarantine")).expect("quarantine dir").count();
    assert_eq!(quarantined, GRID_CELLS, "every corrupt entry lands in quarantine");

    // The repaired cache now serves everything.
    let served = sweep(&dirs, "served", &["--cache", &cache_arg]);
    assert_ok(&served);
    assert_eq!(stderr_stat(&served, "cache_hits") as usize, GRID_CELLS);
    assert_eq!(dirs.summary("served"), reference);
}

#[test]
fn warm_cache_run_is_byte_identical_without_a_journal() {
    let dirs = SweepDirs::new("warm");
    let cache = dirs.root.join("cache");
    let cache_arg = cache.to_str().unwrap().to_string();
    let cold = sweep(&dirs, "cold", &["--cache", &cache_arg]);
    assert_ok(&cold);
    let warm = sweep(&dirs, "warm", &["--cache", &cache_arg]);
    assert_ok(&warm);
    assert_eq!(stderr_stat(&warm, "cache_hits") as usize, GRID_CELLS);
    assert_eq!(stderr_stat(&warm, "computed"), 0);
    assert_eq!(dirs.summary("warm"), dirs.summary("cold"));
}

proptest! {
    // Each case reruns the binary several times; keep the count small but
    // meaningful (abort points cover the whole journal).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash recovery, property-style: abort the sweep after a random
    /// number of journal records (possibly tearing the last one), resume,
    /// and require the final summary byte-identical to the clean run's.
    #[test]
    fn aborted_sweep_always_resumes_byte_identical(
        abort_after in 1usize..(GRID_CELLS + 1),
        tear in any::<bool>(),
        tear_bytes in 1u64..12,
    ) {
        let dirs = SweepDirs::new(&format!("prop-{abort_after}-{tear}-{tear_bytes}"));
        let clean = sweep(&dirs, "clean", &[]);
        assert_ok(&clean);

        let spec = if tear {
            format!("trunc={abort_after},trunc-bytes={tear_bytes}")
        } else {
            format!("abort={abort_after}")
        };
        let aborted = sweep(&dirs, "crashed", &["--inject-sweep", &spec]);
        prop_assert!(!aborted.status.success(), "injected crash reports failure");

        let resumed = sweep(&dirs, "crashed", &[]);
        assert_ok(&resumed);
        let replayed = stderr_stat(&resumed, "journal") as usize;
        let computed = stderr_stat(&resumed, "computed") as usize;
        prop_assert_eq!(replayed + computed, GRID_CELLS);
        if !tear {
            // A clean abort keeps all settled records; resume must not
            // recompute any of them.
            prop_assert_eq!(replayed, abort_after);
        }
        prop_assert_eq!(dirs.summary("crashed"), dirs.summary("clean"));
    }
}

#[test]
fn gc_retains_the_grid_and_purges_strays() {
    let dirs = SweepDirs::new("gc");
    let cache = dirs.root.join("cache");
    let cache_arg = cache.to_str().unwrap().to_string();
    let cold = sweep(&dirs, "cold", &["--cache", &cache_arg]);
    assert_ok(&cold);
    // A stray entry (wrong key) must be collected; grid entries survive.
    let stray = cache.join("00000000000000000000000000000000.res");
    std::fs::write(&stray, b"junk").expect("write stray");

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dvrsim"));
    cmd.arg("sweep").args(GRID).args(["--instrs", "8000", "--gc", "--cache", &cache_arg]);
    let out = cmd.output().expect("gc run");
    assert_ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kept=4") && stdout.contains("removed=1"), "{stdout}");
    assert!(!stray.exists());

    let warm = sweep(&dirs, "warm", &["--cache", &cache_arg]);
    assert_ok(&warm);
    assert_eq!(stderr_stat(&warm, "cache_hits") as usize, GRID_CELLS, "gc kept the grid");
}

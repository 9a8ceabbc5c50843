//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--record-hashes]`
//!
//! Prints provenance and a summary, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. Exits 1 when any cell
//! fails the correctness gate, 2 on a usage error or a debug build.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::gate::{rerecord, DEFAULT_SEED, RECORDED};
use perfbench::metrics::{self, END_TO_END, PAPER_FIG7_HMEAN, PER_LAYER};
use perfbench::plan::{Scale, Workload};
use perfbench::run::{self, best_minstr_per_s, median, nproc, sample_threads, Options, Run};
use perfbench::trace::{self_times, spans_json};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--record-hashes]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, DEFAULT_SEED, 15.0, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-hashes" {
            record = true;
            continue;
        }
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("--seed {value:?} is not a whole number")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("--seconds {value:?} is not a positive number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace {value:?} is not 0 or 1")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };

    let opts = Options { workload, seed, seconds, trace, scale: Scale::Full };
    let provenance = provenance(&opts);
    println!("provenance {provenance}");
    // Re-recording compares against nothing but the run's own first pass.
    let run = if record { run::run_with(&opts, "") } else { run::run(&opts) };
    summarize(&run);

    if trace {
        let rows = self_times(run.tracer.spans());
        let wall = run.tracer.spans().first().map_or(0.0, |s| s.secs());
        println!("self time by layer (traced run, {} spans):", run.tracer.spans().len());
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, secs) in &rows {
            println!("  {name:<32} {secs:>10.4} s {:>6.2}%", 100.0 * secs / wall);
        }
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        println!("  {:<32} {sum:>10.4} s (wall {wall:.4} s)", "sum of rows");
        let path = out_dir().join(format!("trace-{}-seed{seed}.json", workload.name()));
        let doc = format!(
            "{{\"provenance\":{provenance},\"spans\":{}}}\n",
            spans_json(run.tracer.spans())
        );
        match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    if record {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/report-hashes.txt");
        // The file on disk, not the compiled-in copy, which an earlier
        // re-recording may have made stale.
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|_| RECORDED.to_string());
        let text = rerecord(&on_disk, workload.name(), seed, &run.hashes);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "recorded {} hashes to {} (rebuild to use them)",
            run.hashes.len(),
            path.display()
        );
    }

    let (catalogue, values) = if trace {
        (PER_LAYER, metrics::per_layer(&run))
    } else {
        (END_TO_END, metrics::end_to_end(&run))
    };
    let failed = run.failures.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        run.attempted,
        metrics::metrics_json(catalogue, &values)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn summarize(run: &Run) {
    let per_pass: Vec<f64> =
        run.passes.iter().filter(|p| !p.traced).map(|p| p.minstr_per_s()).collect();
    let (lo, hi) = per_pass.iter().fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
    let untraced = || run.passes.iter().filter(|p| !p.traced);
    println!(
        "throughput: {:.4} Minstr/s from each cell's fastest of n={} untraced passes; per pass \
         median {:.4} (min {lo:.4}, max {hi:.4}); set-up median {:.4} s over n={}",
        best_minstr_per_s(untraced()),
        per_pass.len(),
        median(per_pass.clone()),
        median(run.setup_secs.clone()),
        run.setup_secs.len()
    );
    let failed = run.failures.len();
    println!(
        "cells: attempted {}, failed {failed}, failed_frac {:.6}; {} of {} cells have a recorded hash for seed {}",
        run.attempted,
        failed as f64 / run.attempted.max(1) as f64,
        run.recorded_cells,
        run.plan.cells.len(),
        run.opts.seed
    );
    for line in &run.sanitize {
        println!("sanitize: {line}");
    }
    for f in run.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    let s = metrics::dvr_speedup_hmean(run);
    println!(
        "dvr_speedup_hmean {s:.4}x vs paper Fig. 7 h-mean {PAPER_FIG7_HMEAN}x (relative error {:+.1}%). \
         The cells are a {}-cell subset with a {}-instruction ROI, not the paper's full runs, \
         and the model is not validated against hardware.",
        100.0 * (s - PAPER_FIG7_HMEAN) / PAPER_FIG7_HMEAN,
        run.plan.cells.len(),
        run.plan.roi
    );
}

/// Reads the checked-out commit from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(opts: &Options) -> String {
    let plan = perfbench::plan::Plan::new(opts.workload, opts.scale);
    let sample = plan.sample.map_or("null".to_string(), |s| {
        format!("{{\"period\":{},\"warmup\":{},\"interval\":{}}}", s.period, s.warmup, s.interval)
    });
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},",
            "\"threads\":{},\"git_commit\":\"{}\",\"profile\":\"{}\",\"size\":\"{:?}\",",
            "\"roi_instrs\":{},\"sanitize_roi_instrs\":{},\"sample\":{},\"cells\":{}}}"
        ),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        nproc(),
        if plan.sample.is_some() { sample_threads() } else { 1 },
        git_commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        plan.size,
        plan.roi,
        plan.sanitize_roi,
        sample,
        plan.cells.len(),
    )
}

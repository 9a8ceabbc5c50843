//! `dvrsim` — run a benchmark (or your own `.s` kernel) on the simulator.
//!
//! ```text
//! dvrsim --bench bfs --input kr --technique dvr
//! dvrsim --bench camel --technique all --instrs 300000 --size paper
//! dvrsim --asm kernel.s --technique dvr
//! dvrsim --bench bfs --sanitize
//! dvrsim lint --all
//! dvrsim lint --asm kernel.s
//! dvrsim --list
//! ```
//!
//! Every subcommand parses its flags through [`dvr_sim::cli::Args`]; a
//! malformed command line exits 2 with one `error:` line on stderr.

use std::process::ExitCode;

use dvr_sim::cli::{all_techniques, Args, UsageError};
use dvr_sim::{
    evaluate_mix, measure_emitted, parallel_map, sample_emit, sampled_report_from, simulate,
    simulate_mix, FaultConfig, MixSpec, SampleConfig, SimConfig, SimReport, Technique,
};
use sim_sample::merge_periods;
use workloads::{gather_attack, Benchmark, GraphInput, SizeClass, Workload};

/// A subcommand's outcome: its exit status, or a usage error (exit 2).
type CmdResult = Result<ExitCode, UsageError>;

const USAGE: &str = "\
usage: dvrsim [--list] (--bench NAME | --asm FILE.s) [options]
       dvrsim lint (--all | --bench NAME | --asm FILE.s) [--bounds] [--size S] [--seed N]
                     [--verbose] [--json]
       dvrsim audit (--all | --bench NAME) [--size S] [--seed N] [--instrs N] [--json]
       dvrsim lint-taint (--all | --bench NAME | --attack | --asm FILE.s) [--size S]
                     [--seed N] [--json]
       dvrsim leak-audit (--all | --bench NAME | --attack) [--size S] [--seed N]
                     [--instrs N] [--json]
       dvrsim bounds-audit (--all | --bench NAME | --attack | --oob) [--size S] [--seed N]
                     [--instrs N] [--json]
       dvrsim sample (--all | --bench NAME) [--input G] [--technique T] [--size S] [--seed N]
                     [--instrs N] [--interval N] [--warmup N] [--period N]
                     [--placement systematic|random] [--sample-seed N] [--no-exact]
                     [--threads N] [--json]
       dvrsim mix (--spec LIST | --cores N) [--technique T] [--size S] [--seed N]
                  [--instrs N] [--threads N] [--solo] [--sanitize] [--json]
       dvrsim sweep [--bench LIST|all|gap|hpcdb] [--input LIST|all] [--technique T]
                    [--size S] [--seed N] [--instrs N] [--out DIR] [--cache DIR]
                    [--no-cache] [--jobs N] [--timeout-ms N] [--retries N]
                    [--backoff-ms N] [--backoff-seed N] [--keep-going] [--gc]
                    [--inject-sweep SPEC] [--json]
       dvrsim sweep-worker CELL-KEY

options:
  --bench NAME          benchmark (see --list)
  --asm FILE.s          run a textual-assembly kernel instead
  --input kr|ljn|ork|tw|ur   GAP graph input        (default: kr)
  --technique LIST      comma-separated ooo|pre|imp|vr|dvr|dvr-offload|
                        dvr-discovery|oracle, or all    (default: all)
  --size test|small|paper    input scale            (default: small)
  --instrs N            ROI length                  (default: 200000)
  --seed N              synthetic-input seed        (default: 42)
  --rob N               override ROB size
  --inject SPEC         deterministic fault injection; SPEC is comma-separated
                        key=value pairs: seed=N, drop=N (1-in-N demand misses
                        never complete), delay=N (1-in-N DRAM reads delayed),
                        delay-cycles=N, poison=N (1-in-N prefetches dropped),
                        fatal=N (fail on the Nth demand access)
  --watchdog N          cycles without a commit before the run is declared
                        deadlocked (0 disables; default 2000000)
  --sanitize            run the cycle-model invariant sanitizer (summary on
                        stderr; stdout/JSON output is byte-identical)
  --verbose             per-run engine detail
  --json                emit one JSON object per run (stdout)

the `lint` subcommand statically analyzes assembled programs (CFG, dataflow,
loop classification) instead of simulating; `lint --all` checks every
benchmark in the suite. With --bounds it instead runs the interval-based
bounds verifier: every reachable load and store is checked against the
program's declared `.region` footprint, and unprovable or out-of-bounds
accesses are reported (workload memory feeds read-only content bounds).

the `audit` subcommand diffs the static DVR coverage prediction against a
traced simulation's actual Discovery decisions and classifies every
divergence; unexplained divergences fail the audit.

the `lint-taint` subcommand runs the secret-taint information-flow pass:
programs declare secret ranges with the `.secret ADDR LEN` directive, and
every secret-dependent branch, secret-addressed load, and speculative
gather gadget (a secret-addressed dependent load the DVR coverage
predictor expects to vectorize) is reported. --attack lints the bundled
secret-dependent-gather attack kernel.

the `leak-audit` subcommand diffs those static leak predictions against
the dynamic taint oracle: simulations under OoO/VR/DVR with the
hierarchy's secret-taint fill log armed, plus an architectural replay.
`--all` audits every benchmark plus the attack kernel; a PASS means the
static and dynamic sides agree (for the attack kernel both sides agree it
*leaks*), and unexplained divergences fail the audit.

the `bounds-audit` subcommand diffs the static bounds claims against two
dynamic observers: an architectural replay with a per-pc extent tracker
(any access escaping its inferred interval is a soundness bug), and
simulations under OoO/VR/DVR with the hierarchy's speculative-extent map
armed. `--all` audits every benchmark plus the attack kernel; `--oob`
audits the bundled out-of-bounds gather kernel, whose static errors the
dynamic side confirms. Unexplained divergences and static errors fail the
command.

the `sample` subcommand runs checkpoint-parallel sampled simulation: one
functional fast-forward pass per benchmark emits a checkpoint at every
period (shared across techniques), then each (warmup + measured) interval
is measured independently, fanned across --threads in-process workers.
Results merge deterministically, so output is byte-identical (modulo
wall-clock fields) for every --threads value. Unless --no-exact, an exact
run of the same region is compared; a sampled mean whose 95% confidence
interval misses the exact IPC fails the command.

the `mix` subcommand runs a multi-programmed multi-core simulation: one
out-of-order core per mix entry, private L1/L2 each, one shared L3 and one
shared DRAM bandwidth calendar, all driven by the deterministic event
scheduler. --spec takes comma-separated `bench[/input][:technique]`
entries (e.g. `bfs/UR:dvr,NAS-IS:ooo`); --cores N instead rotates the
13-benchmark suite. --technique takes a single technique here. --solo
also runs each program alone on a private hierarchy and reports system
throughput (STP, sum of normalized progress) and fairness (harmonic-mean
slowdown); --threads parallelizes only those solo baselines — the mix
itself is single-threaded and byte-identical for every --threads value.
--sanitize extends the invariant sweeps to the shared L3's
prefetch-provenance state (summary on stderr; stdout stays
byte-identical).

the `sweep` subcommand runs a crash-safe grid of (benchmark, input,
technique) cells: every settled cell is appended to a write-ahead journal
(`<out>/journal.dvrj`), so a killed sweep rerun with the same flags resumes
exactly where it stopped and produces a byte-identical `summary.json`.
Results are also stored in a content-addressed cache (`--cache`, default
`.dvr-cache`) keyed by program bytes, canonical config, and code version;
corrupt entries are quarantined and recomputed, never served. With
--jobs > 0 cells run in supervised `sweep-worker` processes with per-cell
--timeout-ms, --retries, and exponential backoff seeded by --backoff-seed.
Without --keep-going the first failed cell stops the sweep (after
journaling it); with it, failures land in summary.json as typed outcomes.
--gc removes cache entries not reachable from the selected grid.
--inject-sweep takes kill=N,hang=N,flip=N,trunc=N,trunc-bytes=N,abort=N
to deterministically injure the Nth worker/cache-write/journal-append.

exit status: 0 if every run completed (lint: no errors; lint-taint: no
gather gadgets; audit/leak-audit: no unexplained divergences;
bounds-audit: no unexplained divergences and no static bounds errors;
sample: every CI contains the exact IPC), 1 otherwise; 2 for a malformed
command line.
";

fn help() -> CmdResult {
    print!("{USAGE}");
    Ok(ExitCode::SUCCESS)
}

fn parse_inject(spec: &str) -> Result<FaultConfig, String> {
    let mut f = FaultConfig::default();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part.split_once('=').ok_or(format!("bad entry '{part}' (want key=value)"))?;
        let n: u64 = v.parse().map_err(|e| format!("{k}: {e}"))?;
        match k {
            "seed" => f.seed = n,
            "drop" => f.drop_demand_1_in = n,
            "delay" => f.delay_dram_1_in = n,
            "delay-cycles" => f.delay_cycles = n,
            "poison" => f.poison_prefetch_1_in = n,
            "fatal" => f.fatal_at_demand_access = n,
            _ => {
                return Err(format!(
                    "unknown key '{k}' (seed, drop, delay, delay-cycles, poison, fatal)"
                ))
            }
        }
    }
    Ok(f)
}

/// The default mode: one workload under one or more techniques.
fn run_main(args: &[String]) -> CmdResult {
    let mut bench: Option<Benchmark> = None;
    let mut asm_path: Option<String> = None;
    let mut input: Option<GraphInput> = None;
    let mut techniques = all_techniques();
    let mut size = SizeClass::Small;
    let mut instrs = 200_000u64;
    let mut seed = 42u64;
    let mut rob: Option<usize> = None;
    let mut inject: Option<FaultConfig> = None;
    let mut watchdog: Option<u64> = None;
    let mut sanitize = false;
    let mut verbose = false;
    let mut json = false;
    let mut a = Args::new("dvrsim", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--list" => {
                println!("benchmarks:");
                for b in Benchmark::ALL {
                    let inputs = if b.is_gap() { "  (takes --input)" } else { "" };
                    println!("  {}{}", b.name(), inputs);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--bench" => bench = Some(a.bench()?),
            "--asm" => asm_path = Some(a.value()?.to_string()),
            "--input" => input = Some(a.input()?),
            "--technique" => techniques = a.techniques()?,
            "--size" => size = a.size()?,
            "--instrs" => instrs = a.num()?,
            "--seed" => seed = a.num()?,
            "--rob" => rob = Some(a.num()?),
            "--inject" => inject = Some(a.parse(parse_inject)?),
            "--watchdog" => watchdog = Some(a.num()?),
            "--sanitize" => sanitize = true,
            "--verbose" => verbose = true,
            "--json" => json = true,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    let wl = if let Some(path) = asm_path {
        let prog = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| sim_isa::parse_program(&text).map_err(|e| e.to_string()));
        match prog {
            Ok(prog) => Workload {
                name: path,
                prog,
                mem: sim_isa::SparseMemory::new(),
                description: "user kernel (zero-initialized memory)".to_string(),
                regions: vec![],
            },
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else if let Some(b) = bench {
        b.build(input, size, seed)
    } else {
        return Err(UsageError("one of --bench or --asm is required (try --list)".into()));
    };
    if !json {
        println!("{} — {}", wl.name, wl.description);
        println!(
            "{} static instructions, {} byte memory image\n",
            wl.prog.len(),
            wl.mem.footprint_bytes()
        );
    }

    let mut base_ipc = None;
    let mut failed = 0usize;
    for t in &techniques {
        let mut cfg = SimConfig::new(*t).with_max_instructions(instrs);
        if let Some(rob) = rob {
            cfg = cfg.with_rob(rob);
        }
        if let Some(fault) = inject {
            cfg = cfg.with_faults(fault);
        }
        if let Some(w) = watchdog {
            cfg = cfg.with_watchdog_cycles(w);
        }
        if sanitize {
            cfg = cfg.with_sanitize(true);
        }
        let r = simulate(&wl, &cfg);
        if *t == Technique::Baseline {
            base_ipc = Some(r.ipc);
        }
        if json {
            println!("{}", r.to_json());
        } else {
            print_report(&r, if *t == Technique::Baseline { None } else { base_ipc }, verbose);
        }
        // The sanitizer speaks only on stderr so stdout (and especially
        // --json) stays byte-identical with the sanitizer on or off.
        if let Some(san) = &r.sanitizer {
            eprintln!("sanitize[{}]: {}", r.technique.name(), san.summary());
            if !san.is_clean() {
                for m in &san.first {
                    eprintln!("sanitize[{}]:   {m}", r.technique.name());
                }
                failed += 1;
            }
        }
        if let Some(e) = r.outcome.error() {
            failed += 1;
            if !json {
                println!("               FAILED ({}): {e}", e.kind());
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} runs failed", techniques.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn print_report(r: &SimReport, base_ipc: Option<f64>, verbose: bool) {
    let speedup = base_ipc.map(|b| format!("{:>7.2}x", r.ipc / b)).unwrap_or_default();
    println!(
        "{:14} IPC {:>7.3}{} | MLP {:>5.2} | {:>5.1} MPKI | DRAM {:>8} | stall {:>4.0}% | {:>5.2} Mi/s",
        r.technique.name(),
        r.ipc,
        speedup,
        r.mlp,
        r.llc_mpki(),
        r.mem.dram_reads(),
        100.0 * r.core.rob_full_stall_fraction(),
        r.host_minstr_per_sec(),
    );
    if verbose && !r.engine.detail.is_empty() {
        println!("               {}", r.engine.detail);
    }
    if verbose {
        if let Some(t) = r.timeliness() {
            println!(
                "               timeliness L1 {:.0}% / L2 {:.0}% / L3 {:.0}% / off-chip {:.0}%",
                100.0 * t[0],
                100.0 * t[1],
                100.0 * t[2],
                100.0 * t[3]
            );
        }
    }
}

/// `dvrsim lint`: static analysis of assembled programs — CFG + dataflow
/// diagnostics plus the Discovery-Mode loop-classification report.
fn lint_main(args: &[String]) -> CmdResult {
    let mut all = false;
    let mut bench: Option<Benchmark> = None;
    let mut asm: Option<String> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut bounds = false;
    let mut verbose = false;
    let mut json = false;
    let mut a = Args::new("lint", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--all" => all = true,
            "--bounds" => bounds = true,
            "--verbose" => verbose = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.bench()?),
            "--asm" => asm = Some(a.value()?.to_string()),
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }

    // Programs carry their initial memory image when built from the suite:
    // the bounds verifier scans read-only regions for content bounds. A
    // user .s kernel lints without an image (sound, less precise).
    let programs: Vec<(String, sim_isa::Program, Option<sim_isa::SparseMemory>)> = if all {
        Benchmark::ALL
            .iter()
            .map(|b| {
                let wl = b.build(None, size, seed);
                (wl.name, wl.prog, Some(wl.mem))
            })
            .collect()
    } else if let Some(b) = bench {
        let wl = b.build(None, size, seed);
        vec![(wl.name, wl.prog, Some(wl.mem))]
    } else if let Some(path) = asm {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        match sim_isa::parse_program(&text) {
            Ok(prog) => vec![(path, prog, None)],
            Err(e) => {
                eprintln!("{path}: error[parse]: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        return Err(UsageError("lint needs --all, --bench NAME, or --asm FILE.s".into()));
    };

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for (name, prog, mem) in &programs {
        if bounds {
            let report = sim_lint::check_bounds(prog, mem.as_ref());
            if json {
                println!("{}", report.to_json(name, Some(prog)));
            } else {
                println!(
                    "{name}: {} memory ops, {} proven, {} errors, {} warnings",
                    report.ops.len(),
                    report.proven(),
                    report.errors(),
                    report.warnings()
                );
                for d in &report.diags {
                    println!("  {}", d.render(Some(prog)));
                }
                if verbose {
                    for o in &report.ops {
                        println!(
                            "  pc={} {} w={} addr={} {}",
                            o.pc,
                            if o.is_load { "load" } else { "store" },
                            o.width,
                            o.addr,
                            o.verdict
                        );
                    }
                }
            }
            total_errors += report.errors();
            total_warnings += report.warnings();
            continue;
        }
        let report = sim_lint::analyze(prog);
        if json {
            println!("{}", report.to_json(name, Some(prog)));
        } else {
            println!(
                "{name}: {} instrs, {} loops, {} errors, {} warnings",
                prog.len(),
                report.loops.len(),
                report.errors(),
                report.warnings()
            );
            for d in &report.diags {
                println!("  {}", d.render(Some(prog)));
            }
            if verbose || !report.loops.is_empty() {
                for l in &report.loops {
                    println!("  {}", l.describe(Some(prog)));
                }
            }
        }
        total_errors += report.errors();
        total_warnings += report.warnings();
    }
    if !json {
        println!(
            "lint{}: {} program{} checked, {total_errors} errors, {total_warnings} warnings",
            if bounds { " --bounds" } else { "" },
            programs.len(),
            if programs.len() == 1 { "" } else { "s" }
        );
    }
    Ok(if total_errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim bounds-audit`: the static-vs-dynamic bounds audit — verify the
/// program's accesses against its declared regions statically, replay with
/// the architectural extent tracker, run the speculative-extent oracle
/// under OoO/VR/DVR, and diff the views.
fn bounds_audit_main(args: &[String]) -> CmdResult {
    let mut all = false;
    let mut attack = false;
    let mut oob = false;
    let mut bench: Option<Benchmark> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut instrs = 60_000u64;
    let mut json = false;
    let mut a = Args::new("bounds-audit", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--all" => all = true,
            "--attack" => attack = true,
            "--oob" => oob = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.bench()?),
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--instrs" => instrs = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    if !all && !attack && !oob && bench.is_none() {
        return Err(UsageError(
            "bounds-audit needs --all, --bench NAME, --attack, or --oob".into(),
        ));
    }

    let mut reports = Vec::new();
    let benches: Vec<Benchmark> =
        if all { Benchmark::ALL.to_vec() } else { bench.into_iter().collect() };
    for b in &benches {
        reports.push(dvr_sim::bounds_audit_benchmark(*b, size, seed, instrs));
    }
    if attack || all {
        reports.push(dvr_sim::bounds_audit_attack(size, seed, instrs));
    }
    if oob {
        reports.push(dvr_sim::bounds_audit_oob(size, seed, instrs));
    }

    let mut unexplained = 0usize;
    let mut total = 0usize;
    let mut static_errors = 0usize;
    let mut confirmed = 0usize;
    for r in &reports {
        if json {
            println!("{}", r.to_json());
        } else {
            print!("{}", r.render());
        }
        total += r.divergences.len();
        unexplained += r.unexplained();
        static_errors += r.static_errors();
        confirmed += r.confirmed_oob();
    }
    if !json {
        println!(
            "bounds-audit: {} workload{} checked, {total} divergences, {unexplained} unexplained, \
             {static_errors} static errors ({confirmed} dynamically confirmed)",
            reports.len(),
            if reports.len() == 1 { "" } else { "s" }
        );
    }
    Ok(if unexplained > 0 || static_errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim audit`: static-vs-dynamic Discovery audit — predict DVR's
/// coverage statically, trace what the engine actually did, and diff.
fn audit_main(args: &[String]) -> CmdResult {
    let mut all = false;
    let mut bench: Option<Benchmark> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut instrs = 60_000u64;
    let mut json = false;
    let mut a = Args::new("audit", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--all" => all = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.bench()?),
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--instrs" => instrs = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    let benches: Vec<Benchmark> = if all {
        Benchmark::ALL.to_vec()
    } else if let Some(b) = bench {
        vec![b]
    } else {
        return Err(UsageError("audit needs --all or --bench NAME".into()));
    };

    let mut unexplained = 0usize;
    let mut total = 0usize;
    for b in &benches {
        let r = dvr_sim::audit_benchmark(*b, size, seed, instrs);
        if json {
            println!("{}", r.to_json());
        } else {
            print!("{}", r.render());
        }
        total += r.divergences.len();
        unexplained += r.unexplained();
    }
    if !json {
        println!(
            "audit: {} benchmark{} checked, {total} divergences, {unexplained} unexplained",
            benches.len(),
            if benches.len() == 1 { "" } else { "s" }
        );
    }
    Ok(if unexplained > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim lint-taint`: the secret-taint information-flow pass — report
/// every secret-dependent branch, secret-addressed load, and speculative
/// gather gadget in a program with `.secret` declarations.
fn lint_taint_main(args: &[String]) -> CmdResult {
    let mut all = false;
    let mut attack = false;
    let mut bench: Option<Benchmark> = None;
    let mut asm: Option<String> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut json = false;
    let mut a = Args::new("lint-taint", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--all" => all = true,
            "--attack" => attack = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.bench()?),
            "--asm" => asm = Some(a.value()?.to_string()),
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }

    let mut programs: Vec<(String, sim_isa::Program)> = Vec::new();
    if all {
        for b in Benchmark::ALL {
            let wl = b.build(None, size, seed);
            programs.push((wl.name, wl.prog));
        }
    } else if let Some(b) = bench {
        let wl = b.build(None, size, seed);
        programs.push((wl.name, wl.prog));
    } else if let Some(path) = &asm {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        match sim_isa::parse_program(&text) {
            Ok(prog) => programs.push((path.clone(), prog)),
            Err(e) => {
                eprintln!("{path}: error[parse]: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if attack || all {
        let wl = gather_attack(size, seed);
        programs.push((wl.name, wl.prog));
    }
    if programs.is_empty() {
        return Err(UsageError(
            "lint-taint needs --all, --bench NAME, --attack, or --asm FILE.s".into(),
        ));
    }

    let mut total_gadgets = 0usize;
    let mut total_warnings = 0usize;
    for (name, prog) in &programs {
        let r = sim_lint::analyze_taint(prog);
        if json {
            println!("{}", r.to_json(name, Some(prog)));
        } else {
            println!(
                "{name}: {} secret sources, {} gadgets, {} warnings",
                r.sources.len(),
                r.errors(),
                r.warnings()
            );
            for d in &r.leaks {
                println!("  {}", d.render(Some(prog)));
            }
        }
        total_gadgets += r.errors();
        total_warnings += r.warnings();
    }
    if !json {
        println!(
            "lint-taint: {} program{} checked, {total_gadgets} gadgets, \
             {total_warnings} warnings",
            programs.len(),
            if programs.len() == 1 { "" } else { "s" }
        );
    }
    Ok(if total_gadgets > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim leak-audit`: the static-vs-dynamic secret-leakage audit — lint
/// the program for speculative leaks, run the dynamic taint oracle under
/// OoO/VR/DVR plus an architectural replay, and diff the views.
fn leak_audit_main(args: &[String]) -> CmdResult {
    let mut all = false;
    let mut attack = false;
    let mut bench: Option<Benchmark> = None;
    let mut size = SizeClass::Test;
    let mut seed = 42u64;
    let mut instrs = 60_000u64;
    let mut json = false;
    let mut a = Args::new("leak-audit", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--all" => all = true,
            "--attack" => attack = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.bench()?),
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--instrs" => instrs = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    if !all && !attack && bench.is_none() {
        return Err(UsageError("leak-audit needs --all, --bench NAME, or --attack".into()));
    }

    let mut reports = Vec::new();
    let benches: Vec<Benchmark> =
        if all { Benchmark::ALL.to_vec() } else { bench.into_iter().collect() };
    for b in &benches {
        reports.push(dvr_sim::leak_audit_benchmark(*b, size, seed, instrs));
    }
    if attack || all {
        reports.push(dvr_sim::leak_audit_attack(size, seed, instrs));
    }

    let mut unexplained = 0usize;
    let mut total = 0usize;
    let mut confirmed = 0usize;
    for r in &reports {
        if json {
            println!("{}", r.to_json());
        } else {
            print!("{}", r.render());
        }
        total += r.divergences.len();
        unexplained += r.unexplained();
        confirmed += r.confirmed_gadgets();
    }
    if !json {
        println!(
            "leak-audit: {} workload{} checked, {total} divergences, {unexplained} unexplained, \
             {confirmed} gadgets dynamically confirmed",
            reports.len(),
            if reports.len() == 1 { "" } else { "s" }
        );
    }
    Ok(if unexplained > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `dvrsim sample`: checkpointed sampled simulation — functional
/// fast-forward with warming between seeded detailed intervals, reported
/// with a 95% confidence interval and (by default) validated against an
/// exact run of the same region.
fn sample_main(args: &[String]) -> CmdResult {
    let mut all = false;
    let mut bench: Option<Benchmark> = None;
    let mut input: Option<GraphInput> = None;
    let mut techniques = vec![Technique::Baseline];
    let mut size = SizeClass::Small;
    let mut seed = 42u64;
    let mut instrs = 200_000u64;
    let mut scfg = SampleConfig::default();
    let mut no_exact = false;
    let mut json = false;
    let mut threads = 1usize;
    let mut a = Args::new("sample", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--all" => all = true,
            "--no-exact" => no_exact = true,
            "--json" => json = true,
            "--bench" => bench = Some(a.bench()?),
            "--input" => input = Some(a.input()?),
            "--technique" => techniques = a.techniques()?,
            "--size" => size = a.size()?,
            "--placement" => scfg.placement = a.placement()?,
            "--seed" => seed = a.num()?,
            "--instrs" => instrs = a.num()?,
            "--interval" => scfg.interval = a.num()?,
            "--warmup" => scfg.warmup = a.num()?,
            "--period" => scfg.period = a.num()?,
            "--sample-seed" => scfg.seed = a.num()?,
            "--threads" => threads = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    let benches: Vec<Benchmark> = if all {
        Benchmark::ALL.to_vec()
    } else if let Some(b) = bench {
        vec![b]
    } else {
        return Err(UsageError("sample needs --all or --bench NAME".into()));
    };
    scfg.with_max_instructions(instrs).validate().map_err(UsageError)?;

    // Sampled runs: the functional fast-forward pass is paid ONCE per
    // benchmark — its emitted checkpoints seed the measure phase of every
    // technique — and each technique's periods are measured on in-process
    // worker threads (--threads). The merge is deterministic, so the
    // reports are byte-identical modulo wall-clock fields.
    let mut cells: Vec<(Benchmark, Technique)> = Vec::new();
    let mut sampled_reports: Vec<SimReport> = Vec::new();
    for b in &benches {
        let wl = b.build(b.is_gap().then(|| input.unwrap_or(GraphInput::Kr)), size, seed);
        let cfg0 = SimConfig::new(techniques[0]).with_max_instructions(instrs);
        let t_emit = std::time::Instant::now();
        let emit = sample_emit(&wl, &cfg0, &scfg);
        let emit_secs = t_emit.elapsed().as_secs_f64();
        for t in &techniques {
            cells.push((*b, *t));
            let cfg = SimConfig::new(*t).with_max_instructions(instrs);
            let t0 = std::time::Instant::now();
            let measure = |emit: &dvr_sim::EmitResult| {
                measure_emitted(&wl, &cfg, &scfg, &emit.checkpoints, threads)
                    .map(|periods| merge_periods(periods, emit.total_retired, emit.halted))
            };
            let result = match &emit {
                Ok(emit) => measure(emit),
                // The shared emit failed; re-run it (deterministic) so each
                // cell reports the real typed error.
                Err(_) => sample_emit(&wl, &cfg, &scfg).and_then(|emit| measure(&emit)),
            };
            let mut report = sampled_report_from(&wl, &cfg, &scfg, result);
            report.host_seconds = emit_secs / techniques.len() as f64 + t0.elapsed().as_secs_f64();
            sampled_reports.push(report);
        }
    }

    // Exact-comparison runs stay cell-parallel: they share nothing.
    let exacts: Vec<Option<SimReport>> = if no_exact {
        (0..cells.len()).map(|_| None).collect()
    } else {
        parallel_map(cells.len(), threads, |i| {
            let (b, t) = cells[i];
            let wl = b.build(b.is_gap().then(|| input.unwrap_or(GraphInput::Kr)), size, seed);
            Some(simulate(&wl, &SimConfig::new(t).with_max_instructions(instrs)))
        })
    };

    let mut failed = 0usize;
    for (sampled, exact) in sampled_reports.iter().zip(&exacts) {
        if json {
            println!("{}", sampled.to_json());
        }
        let Some(s) = &sampled.sampling else {
            let e = sampled.outcome.error().map(|e| e.to_string()).unwrap_or_default();
            eprintln!("{} {}: sampled run failed: {e}", sampled.workload, sampled.technique.name());
            failed += 1;
            continue;
        };
        match exact {
            Some(exact) => {
                let within = (exact.ipc - s.ipc_mean).abs() <= s.ipc_ci95;
                if !json {
                    println!(
                        "{:16} {:14} exact {:.4}  sampled {:.4} +/- {:.4} (n={:3})  \
                         err {:+.2}%  {}  host speedup {:.1}x",
                        sampled.workload,
                        sampled.technique.name(),
                        exact.ipc,
                        s.ipc_mean,
                        s.ipc_ci95,
                        s.intervals,
                        100.0 * (s.ipc_mean - exact.ipc) / exact.ipc.max(1e-12),
                        if within { "within CI" } else { "OUTSIDE CI" },
                        exact.host_seconds / sampled.host_seconds.max(1e-9),
                    );
                }
                if !within || !exact.outcome.is_complete() {
                    failed += 1;
                }
            }
            None if !json => {
                println!(
                    "{:16} {:14} sampled {:.4} +/- {:.4} (n={:3})  {:.2} Minstr/s",
                    sampled.workload,
                    sampled.technique.name(),
                    s.ipc_mean,
                    s.ipc_ci95,
                    s.intervals,
                    sampled.host_minstr_per_sec(),
                );
            }
            None => {}
        }
    }
    if failed > 0 {
        eprintln!("sample: {failed} of {} runs failed or missed their CI", sampled_reports.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `dvrsim mix`: a multi-programmed mix on the discrete-event scheduler —
/// N cores with private L1/L2 over one shared L3 + DRAM, with optional solo
/// baselines for throughput/fairness metrics.
fn mix_main(args: &[String]) -> CmdResult {
    let mut spec_str: Option<&str> = None;
    let mut cores = 0usize;
    let mut technique = Technique::Dvr;
    let mut size = SizeClass::Small;
    let mut seed = 42u64;
    let mut instrs = 200_000u64;
    let mut threads = 1usize;
    let mut solo = false;
    let mut sanitize = false;
    let mut json = false;
    let mut a = Args::new("mix", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--solo" => solo = true,
            "--sanitize" => sanitize = true,
            "--json" => json = true,
            "--spec" => spec_str = Some(a.value()?),
            "--cores" => cores = a.num()?,
            "--technique" => technique = a.technique()?,
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--instrs" => instrs = a.num()?,
            "--threads" => threads = a.num()?,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    let spec = match (spec_str, cores) {
        (Some(s), _) => {
            MixSpec::parse(s, technique).map_err(|e| UsageError(format!("--spec: {e}")))?
        }
        (None, n) if n > 0 => MixSpec::round_robin(n, technique),
        _ => return Err(UsageError("mix needs --spec LIST or --cores N".into())),
    };

    let base = SimConfig::new(technique).with_max_instructions(instrs).with_sanitize(sanitize);
    let t0 = std::time::Instant::now();
    let mix = simulate_mix(&spec, size, seed, &base);
    // Solo baselines are independent single-core runs: cell-parallel.
    let solos: Option<Vec<SimReport>> = solo.then(|| {
        parallel_map(spec.cores.len(), threads, |i| {
            let c = spec.cores[i];
            let mut cfg = base;
            cfg.technique = c.technique;
            cfg.core.imp_prefetcher = c.technique == Technique::Imp;
            let wl = c.bench.build(c.input, size, seed);
            simulate(&wl, &cfg)
        })
    });
    // Wall timing lives only at this level (stderr): mix stdout is
    // byte-identical across re-runs and --threads values.
    eprintln!(
        "mix: {} cores, {} cycles in {:.2}s host",
        mix.cores.len(),
        mix.cycles,
        t0.elapsed().as_secs_f64()
    );

    let eval = solos.as_ref().map(|s| evaluate_mix(&mix, s));
    if json {
        println!("{}", mix.to_json());
        if let Some(eval) = &eval {
            let slowdowns: Vec<String> = eval.slowdowns.iter().map(|s| format!("{s:.6}")).collect();
            println!(
                "{{\"throughput\":{:.6},\"fairness\":{:.6},\"slowdowns\":[{}]}}",
                eval.throughput,
                eval.fairness,
                slowdowns.join(",")
            );
        }
    } else {
        println!("mix {} ({} cores, seed {seed})", mix.label, mix.cores.len());
        for (i, r) in mix.cores.iter().enumerate() {
            let sh = &mix.shared[i];
            let slowdown = eval
                .as_ref()
                .map(|e| format!(" | slowdown {:>5.2}x", e.slowdowns[i]))
                .unwrap_or_default();
            println!(
                "core {i}: {:24} IPC {:>7.3} | {:>9} cycles | L3 hits {:>8} | \
                 DRAM {:>8} | xcore {:>6}{slowdown}",
                spec.cores[i].label(),
                r.ipc,
                r.core.cycles,
                sh.l3_hits,
                sh.dram_reads,
                sh.cross_core_hits,
            );
        }
        println!("aggregate IPC {:.3} over {} cycles", mix.aggregate_ipc, mix.cycles);
        if let Some(eval) = &eval {
            println!(
                "throughput (STP) {:.3} of {} | fairness (hmean slowdown) {:.3}",
                eval.throughput,
                mix.cores.len(),
                eval.fairness
            );
        }
    }

    let mut failed = 0usize;
    for r in &mix.cores {
        if let Some(san) = &r.sanitizer {
            eprintln!("sanitize[{}]: {}", r.workload, san.summary());
            if !san.is_clean() {
                for m in &san.first {
                    eprintln!("sanitize[{}]:   {m}", r.workload);
                }
                failed += 1;
            }
        }
        if let Some(e) = r.outcome.error() {
            eprintln!("mix: {} failed ({}): {e}", r.workload, e.kind());
            failed += 1;
        }
    }
    if let Some(san) = &mix.shared_sanitizer {
        eprintln!("sanitize[shared L3]: {}", san.summary());
        if !san.is_clean() {
            for m in &san.first {
                eprintln!("sanitize[shared L3]:   {m}");
            }
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("mix: {failed} of {} runs failed", mix.cores.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `dvrsim sweep`: the crash-safe grid runner over the journal, the
/// result cache, and (with `--jobs`) the worker-process supervisor.
fn sweep_main(args: &[String]) -> CmdResult {
    let mut benches = Benchmark::ALL.to_vec();
    let mut inputs = vec![GraphInput::Kr];
    let mut techniques = all_techniques();
    let mut size = SizeClass::Small;
    let mut seed = 42u64;
    let mut instrs = 200_000u64;
    let mut out = std::path::PathBuf::from("sweep-out");
    let mut cache_dir: Option<std::path::PathBuf> = Some(".dvr-cache".into());
    let mut gc = false;
    let mut json = false;
    let mut opts = sim_sweep::SweepOptions::default();
    let mut a = Args::new("sweep", args);
    while let Some(flag) = a.next_arg() {
        match flag {
            "--bench" => benches = a.parse(parse_bench_list)?,
            "--input" => inputs = a.parse(parse_input_list)?,
            "--technique" => techniques = a.techniques()?,
            "--size" => size = a.size()?,
            "--seed" => seed = a.num()?,
            "--instrs" => instrs = a.num()?,
            "--out" => out = a.value()?.into(),
            "--cache" => cache_dir = Some(a.value()?.into()),
            "--no-cache" => cache_dir = None,
            "--jobs" => opts.jobs = a.num()?,
            "--timeout-ms" => opts.timeout_ms = a.num()?,
            "--retries" => opts.retries = a.num()?,
            "--backoff-ms" => opts.backoff_ms = a.num()?,
            "--backoff-seed" => opts.seed = a.num()?,
            "--keep-going" => opts.keep_going = true,
            "--gc" => gc = true,
            "--inject-sweep" => {
                opts.fault =
                    a.parse(|v| sim_sweep::SweepFault::parse(v).map_err(|e| e.to_string()))?
            }
            "--json" => json = true,
            "--help" | "-h" => return help(),
            _ => return Err(a.unknown()),
        }
    }
    let cells = dvr_sim::SweepCell::grid(&benches, &inputs, &techniques, size, seed, instrs);
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    let exe = (opts.jobs > 0).then(|| std::env::current_exe().ok()).flatten();
    let runner = dvr_sim::DvrSweepRunner::new(exe);
    let cache = match &cache_dir {
        None => None,
        Some(dir) => match sim_sweep::ResultCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
    };

    if gc {
        let Some(cache) = cache else {
            return Err(UsageError("--gc needs a cache (drop --no-cache)".into()));
        };
        use sim_sweep::CellRunner;
        let keep: std::collections::HashSet<String> =
            keys.iter().filter_map(|k| runner.cache_key(k)).map(|d| d.hex()).collect();
        return Ok(match cache.gc(&keep) {
            Ok(stats) => {
                println!(
                    "sweep gc: kept={} removed={} quarantine_purged={}",
                    stats.kept, stats.removed, stats.quarantine_purged
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        });
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: create {}: {e}", out.display());
        return Ok(ExitCode::FAILURE);
    }
    let journal = out.join("journal.dvrj");
    let run = match sim_sweep::run_sweep(&keys, &runner, &journal, cache.as_ref(), &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("sweep: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    for w in &run.warnings {
        eprintln!("sweep: warning[{}]: {w}", w.kind());
    }
    let s = &run.stats;
    eprintln!(
        "sweep: cells={} journal={} cache={} computed={} failed={} spawns={} \
         cache_hits={} cache_misses={} cache_corrupt={} cache_stores={} replay_dropped_bytes={}",
        s.total,
        s.from_journal,
        s.from_cache,
        s.computed,
        s.failed,
        s.spawns,
        s.cache.hits,
        s.cache.misses,
        s.cache.corrupt,
        s.cache.stores,
        s.replay.dropped_bytes,
    );
    let summary = sim_sweep::render_summary(&keys, &run.outcomes, &runner);
    let path = out.join("summary.json");
    if let Err(e) = sim_sweep::write_atomic(&path, &summary) {
        eprintln!("error: {e}");
        return Ok(ExitCode::FAILURE);
    }
    if json {
        print!("{summary}");
    } else {
        println!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_bench_list(spec: &str) -> Result<Vec<Benchmark>, String> {
    match spec {
        "all" => Ok(Benchmark::ALL.to_vec()),
        "gap" => Ok(Benchmark::ALL.iter().copied().filter(|b| b.is_gap()).collect()),
        "hpcdb" => Ok(Benchmark::ALL.iter().copied().filter(|b| !b.is_gap()).collect()),
        list => list
            .split(',')
            .map(|s| Benchmark::parse(s).ok_or(format!("unknown benchmark '{s}'")))
            .collect(),
    }
}

fn parse_input_list(spec: &str) -> Result<Vec<GraphInput>, String> {
    match spec {
        "all" => Ok(GraphInput::ALL.to_vec()),
        list => list
            .split(',')
            .map(|s| GraphInput::parse(s).ok_or(format!("unknown input '{s}'")))
            .collect(),
    }
}

/// `dvrsim sweep-worker CELL-KEY`: computes one sweep cell and prints the
/// one-line `SWEEPOK1`/`SWEEPFAIL1` reply the supervisor reads.
fn sweep_worker_main(args: &[String]) -> CmdResult {
    // The supervisor appends --test-hang under an injected hang fault;
    // honoring it exercises the timeout/kill path deterministically.
    if args.iter().any(|a| a == sim_sweep::WORKER_HANG_FLAG) {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }
    let mut a = Args::new("sweep-worker", args);
    let cell = match a.next_arg() {
        Some("--help" | "-h") => return help(),
        Some(flag) if flag.starts_with('-') => return Err(a.unknown()),
        Some(cell) => cell,
        None => return Err(UsageError("sweep-worker needs a CELL-KEY".into())),
    };
    if a.next_arg().is_some() {
        return Err(a.unknown());
    }
    use sim_sweep::CellRunner;
    match dvr_sim::DvrSweepRunner::new(None).run(cell) {
        Ok(payload) => println!("{}", sim_sweep::ok_line(&payload)),
        Err((kind, message)) => println!("{}", sim_sweep::fail_line(&kind, &message)),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) if !cmd.starts_with('-') => (cmd.as_str(), rest),
        _ => ("", argv.as_slice()),
    };
    let result = match cmd {
        "" => run_main(rest),
        "lint" => lint_main(rest),
        "audit" => audit_main(rest),
        "lint-taint" => lint_taint_main(rest),
        "leak-audit" => leak_audit_main(rest),
        "bounds-audit" => bounds_audit_main(rest),
        "sample" => sample_main(rest),
        "mix" => mix_main(rest),
        "sweep" => sweep_main(rest),
        "sweep-worker" => sweep_worker_main(rest),
        other => Err(UsageError(format!("unknown subcommand '{other}' (see 'dvrsim --help')"))),
    };
    result.unwrap_or_else(|e| e.exit())
}

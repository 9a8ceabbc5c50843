//! Runs one workload: set-up, a reference pass, the sanitized cells, the
//! timed passes and, when tracing, the per-layer side measurements.

use std::time::Instant;

use dvr_sim::{
    cache_key, decode_report, encode_report, measure_emitted, merge_periods, sample_emit,
    sampled_report_from, simulate, simulate_mix, SampleError, SimConfig, SimReport,
};

use crate::gate::{Gate, Report, RECORDED};
use crate::plan::{CellKind, Plan, Scale, Workload, DVR, OOO};
use crate::trace::Tracer;

/// Command-line choices for one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed passes may take in total.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Full or tiny plan.
    pub scale: Scale,
}

/// The set-up (its median is `setup_s`) runs at least `SETUPS` times, and
/// more while the repetitions total under `SETUP_SECS`, up to
/// `MAX_SETUPS`, so a millisecond set-up still gets a steady median.
const SETUPS: usize = 3;
const SETUP_SECS: f64 = 1.0;
const MAX_SETUPS: usize = 101;
/// Timed passes run even when they overrun `--seconds`.
const MIN_PASSES: usize = 4;
/// Repetitions of each report-codec call in the traced run.
const CODEC_REPS: usize = 5;

/// One cell's result from one pass.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// The report(s).
    pub report: Report,
    /// Host seconds the harness timed around the cell's simulate calls.
    pub secs: f64,
}

impl CellRun {
    /// Simulated instructions the cell covered, over every core.
    pub fn covered(&self) -> u64 {
        self.report.cores().iter().map(|r| r.simulated_instructions).sum()
    }
}

/// One cell's timing from one timed pass; its report is dropped once the
/// gate has checked it.
#[derive(Clone, Copy, Debug)]
pub struct CellTime {
    /// Host seconds the harness timed around the cell's simulate calls.
    pub secs: f64,
    /// Simulated instructions the cell covered, over every core.
    pub covered: u64,
}

/// One timed pass over every cell.
///
/// A pass keeps timings, not reports: the number of passes depends on host
/// speed, and reports kept from every pass would make `peak_rss_mb` grow
/// with it.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Per-cell timings, in plan order.
    pub cells: Vec<CellTime>,
    /// Whether spans were recorded during the pass.
    pub traced: bool,
}

impl Pass {
    /// Harness-timed seconds around the simulate calls.
    pub fn secs(&self) -> f64 {
        self.cells.iter().map(|c| c.secs).sum()
    }

    /// Host throughput in simulated Minstr/s.
    pub fn minstr_per_s(&self) -> f64 {
        self.cells.iter().map(|c| c.covered).sum::<u64>() as f64 / self.secs() / 1e6
    }
}

/// Host throughput in simulated Minstr/s of the fastest run of each cell:
/// the covered instructions of one pass over the sum, per cell, of the
/// least harness-timed seconds any of `passes` took for it.
///
/// On a shared 2-vCPU virtual machine, identical work slows by up to 2x
/// for seconds at a time when other tenants contend for the hardware (CPU
/// time rises with wall time, so the process is not descheduled; the work
/// itself runs slower). A median over the run moves with how much of it
/// was contended; the per-cell minimum measures the uncontended speed, and
/// any change to the simulated work moves it in full.
pub fn best_minstr_per_s<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    let mut covered = 0;
    for p in passes {
        if best.is_empty() {
            best = p.cells.iter().map(|c| c.secs).collect();
            covered = p.cells.iter().map(|c| c.covered).sum::<u64>();
        }
        for (b, c) in best.iter_mut().zip(&p.cells) {
            *b = b.min(c.secs);
        }
    }
    covered as f64 / best.iter().sum::<f64>() / 1e6
}

/// Period checkpoints of one sampled input (traced runs only).
#[derive(Clone, Copy, Debug)]
pub struct EmitInfo {
    /// Checkpoints emitted.
    pub periods: u64,
    /// Their serialized size.
    pub bytes: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// The plan that ran.
    pub plan: Plan,
    /// The options it ran with.
    pub opts: Options,
    /// Host seconds of each set-up.
    pub setup_secs: Vec<f64>,
    /// The untimed first pass: the hash reference and source of counts.
    pub reference: Vec<CellRun>,
    /// Timed passes.
    pub passes: Vec<Pass>,
    /// Sampled inputs' checkpoint sizes (traced runs only).
    pub emit: Vec<EmitInfo>,
    /// Instructions replayed per input by `Cpu::run` (traced runs only).
    pub replayed: u64,
    /// Encoded report sizes seen by the codec probe (traced runs only).
    pub report_bytes: Vec<usize>,
    /// Cell executions checked by the gate.
    pub attempted: u64,
    /// Why each failed execution failed.
    pub failures: Vec<String>,
    /// One line per sanitized cell.
    pub sanitize: Vec<String>,
    /// Hashes recorded for this workload and seed.
    pub recorded_cells: usize,
    /// First-pass hashes by cell label (for re-recording).
    pub hashes: Vec<(String, String)>,
    /// The spans (empty unless tracing).
    pub tracer: Tracer,
}

/// Builds a workload's inputs (one per planned benchmark).
pub fn build_inputs(plan: &Plan, seed: u64, t: &mut Tracer) -> Vec<dvr_sim::Workload> {
    plan.benches
        .iter()
        .map(|b| t.span("workloads::Benchmark::build", None, |_| b.build(None, plan.size, seed)))
        .collect()
}

fn cfg(plan: &Plan, technique: dvr_sim::Technique) -> SimConfig {
    SimConfig::new(technique).with_max_instructions(plan.roi)
}

/// Runs every cell once; with `emit` given, also records each sampled
/// input's checkpoint sizes.
fn run_pass(
    plan: &Plan,
    inputs: &[dvr_sim::Workload],
    seed: u64,
    t: &mut Tracer,
    mut emit: Option<&mut Vec<EmitInfo>>,
) -> Vec<CellRun> {
    let mut out = Vec::with_capacity(plan.cells.len());
    let mut emitted = None;
    for (i, cell) in plan.cells.iter().enumerate() {
        let clock = Instant::now();
        let report = match &cell.kind {
            CellKind::Exact { input, technique } => {
                let cfg = cfg(plan, *technique);
                Report::Single(Box::new(
                    t.span("dvr_sim::simulate", Some(i), |_| simulate(&inputs[*input], &cfg)),
                ))
            }
            CellKind::Sampled { input, technique } => {
                let (wl, cfg) = (&inputs[*input], cfg(plan, *technique));
                let scfg = plan.sample.expect("sampled cells have a sampling plan");
                if emitted.as_ref().map(|(j, _)| j) != Some(input) {
                    let e =
                        t.span("dvr_sim::sample_emit", Some(i), |_| sample_emit(wl, &cfg, &scfg));
                    if let (Some(info), Ok(e)) = (emit.as_deref_mut(), &e) {
                        info.push(EmitInfo {
                            periods: e.checkpoints.len() as u64,
                            bytes: e.checkpoints.iter().map(|c| c.to_bytes().len() as u64).sum(),
                        });
                    }
                    emitted = Some((*input, e));
                }
                let result = match &emitted.as_ref().expect("emitted above").1 {
                    Ok(e) => {
                        let threads = sample_threads();
                        t.span("dvr_sim::measure_emitted", Some(i), |_| {
                            measure_emitted(wl, &cfg, &scfg, &e.checkpoints, threads)
                        })
                        .map(|periods| {
                            t.span("sim_sample::merge_periods", Some(i), |_| {
                                merge_periods(periods, e.total_retired, e.halted)
                            })
                        })
                    }
                    Err(e) => Err(SampleError::Worker(format!("emit failed: {e}"))),
                };
                Report::Single(Box::new(t.span("dvr_sim::sampled_report_from", Some(i), |_| {
                    sampled_report_from(wl, &cfg, &scfg, result)
                })))
            }
            CellKind::Mix { spec, .. } => {
                let base = cfg(plan, OOO);
                Report::Mix(t.span("dvr_sim::simulate_mix", Some(i), |_| {
                    simulate_mix(spec, plan.size, seed, &base)
                }))
            }
        };
        out.push(CellRun { report, secs: clock.elapsed().as_secs_f64() });
    }
    out
}

/// Threads the sampled measure phase fans out to: `min(2, nproc)`.
pub fn sample_threads() -> usize {
    nproc().min(2)
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one sanitized cell per technique (one mix for `mix-paper`, which
/// has both) and returns `(label, problem)` per cell. Where the sanitized
/// cell repeats a plain cell, its report must also be byte-identical to
/// the reference (the sanitizer is timing-neutral).
fn sanitize(
    plan: &Plan,
    inputs: &[dvr_sim::Workload],
    seed: u64,
    reference: &[CellRun],
    t: &mut Tracer,
) -> Vec<(String, Option<String>)> {
    let neutral = |report: &Report, cell: usize| -> Option<String> {
        let (a, b) = (report.hash().ok()?, reference[cell].report.hash().ok()?);
        (a != b).then(|| format!("sanitized report hash {a} differs from the plain run's {b}"))
    };
    let mut out = Vec::new();
    if let Some(CellKind::Mix { spec, .. }) = plan.cells.first().map(|c| &c.kind) {
        let base = SimConfig::new(OOO).with_max_instructions(plan.sanitize_roi).with_sanitize(true);
        let m = t
            .span("dvr_sim::simulate_mix", Some(0), |_| simulate_mix(spec, plan.size, seed, &base));
        let ledgers =
            m.cores.iter().map(|r| r.sanitizer.clone()).chain([m.shared_sanitizer.clone()]);
        let problem = ledger_problem(ledgers)
            .or_else(|| Report::Mix(m.clone()).failure())
            .or_else(|| neutral(&Report::Mix(m), 0));
        out.push((format!("{} (sanitized)", plan.cells[0].label), problem));
        return out;
    }
    for (k, technique) in [OOO, DVR].into_iter().enumerate() {
        let cfg =
            SimConfig::new(technique).with_max_instructions(plan.sanitize_roi).with_sanitize(true);
        let r = t.span("dvr_sim::simulate", Some(k), |_| simulate(&inputs[0], &cfg));
        let exact_twin = plan.sample.is_none() && plan.sanitize_roi == plan.roi;
        let report = Report::Single(Box::new(r.clone()));
        let problem = ledger_problem([r.sanitizer]).or_else(|| report.failure()).or_else(|| {
            if exact_twin {
                neutral(&report, k)
            } else {
                None
            }
        });
        out.push((
            format!(
                "{}/{} (sanitized, {} instrs)",
                inputs[0].name,
                technique.name(),
                plan.sanitize_roi
            ),
            problem,
        ));
    }
    out
}

fn ledger_problem(
    ledgers: impl IntoIterator<Item = Option<dvr_sim::SanitizeReport>>,
) -> Option<String> {
    for l in ledgers {
        match l {
            None => return Some("no sanitizer ledger".into()),
            Some(l) if !l.is_clean() || l.checks == 0 => return Some(l.summary()),
            Some(_) => {}
        }
    }
    None
}

/// Runs `opts.workload` and returns every measurement.
pub fn run(opts: &Options) -> Run {
    // The recorded hashes are of the full plan; a tiny one checks only
    // that its passes agree.
    run_with(opts, if opts.scale == Scale::Full { RECORDED } else { "" })
}

/// [`run`] against `recorded` hashes (the format of [`RECORDED`]).
pub fn run_with(opts: &Options, recorded: &str) -> Run {
    let plan = Plan::new(opts.workload, opts.scale);
    let mut tracer = Tracer::new(opts.trace);
    let mut gate = Gate::new(recorded, opts.workload.name(), opts.seed, plan.cells.len());
    let mut run = Run {
        plan: plan.clone(),
        opts: opts.clone(),
        setup_secs: Vec::new(),
        reference: Vec::new(),
        passes: Vec::new(),
        emit: Vec::new(),
        replayed: 0,
        report_bytes: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        sanitize: Vec::new(),
        recorded_cells: gate.recorded_cells(),
        hashes: Vec::new(),
        tracer: Tracer::new(false),
    };
    let seed = opts.seed;

    tracer.span("perfbench", None, |t| {
        let mut inputs = Vec::new();
        while run.setup_secs.len() < SETUPS
            || (run.setup_secs.iter().sum::<f64>() < SETUP_SECS
                && run.setup_secs.len() < MAX_SETUPS)
        {
            drop(std::mem::take(&mut inputs));
            let clock = Instant::now();
            inputs = t.span("setup", None, |t| build_inputs(&plan, seed, t));
            run.setup_secs.push(clock.elapsed().as_secs_f64());
        }

        let mut emit = Vec::new();
        run.reference = t.span("warmup", None, |t| {
            run_pass(&plan, &inputs, seed, t, Some(&mut emit).filter(|_| opts.trace))
        });
        run.emit = emit;
        check_pass(&plan, &mut gate, &run.reference, &mut run.attempted, &mut run.failures);

        for (label, problem) in
            t.span("sanitize", None, |t| sanitize(&plan, &inputs, seed, &run.reference, t))
        {
            run.attempted += 1;
            match problem {
                None => run.sanitize.push(format!("{label}: clean")),
                Some(p) => {
                    run.sanitize.push(format!("{label}: {p}"));
                    run.failures.push(format!("{label}: {p}"));
                }
            }
        }

        // Timed passes; a traced run alternates untraced and traced ones so
        // their difference is the tracing overhead.
        let start = Instant::now();
        let mut longest = 0.0f64;
        while run.passes.len() < MIN_PASSES
            || start.elapsed().as_secs_f64() + longest <= opts.seconds
        {
            let traced = opts.trace && run.passes.len() % 2 == 1;
            let clock = Instant::now();
            let cells = if traced {
                t.span("pass", None, |t| run_pass(&plan, &inputs, seed, t, None))
            } else {
                t.opaque("untraced pass", |t| run_pass(&plan, &inputs, seed, t, None))
            };
            longest = longest.max(clock.elapsed().as_secs_f64());
            check_pass(&plan, &mut gate, &cells, &mut run.attempted, &mut run.failures);
            let cells =
                cells.iter().map(|c| CellTime { secs: c.secs, covered: c.covered() }).collect();
            run.passes.push(Pass { cells, traced });
        }

        if opts.trace {
            t.span("functional replay", None, |t| {
                run.replayed = replay(&plan, &inputs, &run.reference, t, &mut run.failures);
            });
            t.span("report codec", None, |t| {
                codec(
                    &plan,
                    &inputs,
                    &run.reference,
                    t,
                    &mut run.report_bytes,
                    &mut run.attempted,
                    &mut run.failures,
                );
            });
        }
    });

    run.hashes = plan
        .cells
        .iter()
        .zip(gate.first_hashes())
        .filter_map(|(c, h)| Some((c.label.clone(), h.clone()?)))
        .collect();
    run.tracer = tracer;
    run
}

fn check_pass(
    plan: &Plan,
    gate: &mut Gate,
    cells: &[CellRun],
    attempted: &mut u64,
    failures: &mut Vec<String>,
) {
    for (i, (cell, r)) in plan.cells.iter().zip(cells).enumerate() {
        *attempted += 1;
        if let Err(e) = gate.check(i, &cell.label, &r.report) {
            failures.push(e);
        }
    }
}

/// Replays each input's region on the functional executor, as long as the
/// longest cell on it covered; returns the instructions replayed.
fn replay(
    plan: &Plan,
    inputs: &[dvr_sim::Workload],
    reference: &[CellRun],
    t: &mut Tracer,
    failures: &mut Vec<String>,
) -> u64 {
    let mut total = 0;
    for (j, wl) in inputs.iter().enumerate() {
        let (first_cell, steps) = match plan.workload {
            // A mix core covers at most the region, and halts no earlier
            // than its functional replay does.
            Workload::MixPaper => (None, plan.roi),
            _ => {
                let cells: Vec<usize> = (0..plan.cells.len())
                    .filter(|&i| matches!(plan.cells[i].kind, CellKind::Exact { input, .. } | CellKind::Sampled { input, .. } if input == j))
                    .collect();
                let steps = cells.iter().map(|&i| reference[i].covered()).max().unwrap_or(0);
                (cells.first().copied(), steps)
            }
        };
        let mut mem = wl.mem.clone();
        let mut cpu = sim_isa::Cpu::new();
        match t.span("sim_isa::Cpu::run", first_cell, |_| cpu.run(&wl.prog, &mut mem, steps)) {
            Ok(n) => total += n,
            Err(e) => failures.push(format!("{}: functional replay faulted: {e}", wl.name)),
        }
    }
    total
}

/// Times the report codec and cache-key calls on every reference report;
/// a report that does not survive encode → decode → encode is a failed
/// check.
fn codec(
    plan: &Plan,
    inputs: &[dvr_sim::Workload],
    reference: &[CellRun],
    t: &mut Tracer,
    bytes: &mut Vec<usize>,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) {
    for (i, cell) in reference.iter().enumerate() {
        for r in cell.report.cores() {
            let wl = inputs
                .iter()
                .find(|w| w.name == r.workload)
                .expect("every report names a planned input");
            let cfg = cfg(plan, r.technique);
            for rep in 0..CODEC_REPS {
                let Ok(enc) = t.span("dvr_sim::encode_report", Some(i), |_| encode_report(r))
                else {
                    continue; // a failed report; the gate already counted it
                };
                let dec = t.span("dvr_sim::decode_report", Some(i), |_| decode_report(&enc));
                if rep == 0 {
                    *attempted += 1;
                    if dec.as_ref().ok().and_then(|d| encode_report(d).ok()).as_ref() != Some(&enc)
                    {
                        failures.push(format!(
                            "{}: report does not survive encode/decode",
                            plan.cells[i].label
                        ));
                    }
                }
                std::hint::black_box(t.span("SimReport::to_json", Some(i), |_| r.to_json()));
                bytes.push(enc.len());
            }
            // Tens of milliseconds on a paper-size input: once per report.
            std::hint::black_box(t.span("dvr_sim::cache_key", Some(i), |_| {
                cache_key(wl, &cfg, plan.sample.as_ref())
            }));
        }
    }
}

/// Harmonic mean; `0.0` for an empty or non-positive input.
pub fn hmean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut inv) = (0usize, 0.0);
    for x in xs {
        if x <= 0.0 {
            return 0.0;
        }
        n += 1;
        inv += 1.0 / x;
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / inv
    }
}

/// Median; `0.0` for an empty input.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The reports of the reference pass under `technique`, over every core.
pub fn reports_of<'a>(
    reference: &'a [CellRun],
    technique: dvr_sim::Technique,
) -> impl Iterator<Item = &'a SimReport> + 'a {
    reference.iter().flat_map(|c| c.report.cores()).filter(move |r| r.technique == technique)
}

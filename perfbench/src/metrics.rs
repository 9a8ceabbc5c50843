//! The metric catalogue and how each metric is computed from a [`Run`].
//!
//! End-to-end metrics come from untraced runs; per-layer metrics from the
//! traced run. A per-layer metric whose layer a workload never calls reads
//! 0 (e.g. `sim-sample.*` on the exact workloads).

use std::collections::BTreeMap;

use dvr_sim::{PrefetchSource, SimReport, Technique};

use crate::plan::{CellKind, DVR, OOO};
use crate::run::{best_minstr_per_s, hmean, median, reports_of, Run};
use crate::trace::Span;

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics (untraced runs).
pub const END_TO_END: &[Metric] = &[
    m("sim_minstr_per_s", "Minstr/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("completed_frac", "frac", "higher"),
    m("sim_ipc_hmean", "instr/cycle", "higher"),
    m("dvr_speedup_hmean", "x", "higher"),
];

/// Per-layer metrics (traced run).
pub const PER_LAYER: &[Metric] = &[
    m("workloads.build_s", "s", "lower"),
    m("sim-isa.functional_minstr_per_s", "Minstr/s", "higher"),
    m("sim-sample.emit_s", "s", "lower"),
    m("sim-sample.measure_s", "s", "lower"),
    m("sim-sample.merge_s", "s", "lower"),
    m("sim-sample.checkpoint_bytes", "bytes", "lower"),
    m("sim-sample.periods", "count", "lower"),
    m("sim-sample.detailed_frac", "frac", "lower"),
    m("dvr-sim.simulate_s.ooo", "s", "lower"),
    m("dvr-sim.simulate_s.dvr", "s", "lower"),
    m("dvr-sim.host_ns_per_cycle.ooo", "ns", "lower"),
    m("dvr-sim.host_ns_per_cycle.dvr", "ns", "lower"),
    m("dvr-sim.host_ns_per_instr.ooo", "ns", "lower"),
    m("dvr-sim.host_ns_per_instr.dvr", "ns", "lower"),
    m("sim-ooo.cycles.ooo", "count", "lower"),
    m("sim-ooo.cycles.dvr", "count", "lower"),
    m("sim-ooo.committed.ooo", "count", "higher"),
    m("sim-ooo.committed.dvr", "count", "higher"),
    m("sim-ooo.rob_full_frac.ooo", "frac", "lower"),
    m("sim-ooo.rob_full_frac.dvr", "frac", "lower"),
    m("sim-ooo.branch_mpki.ooo", "1/kinstr", "lower"),
    m("sim-ooo.branch_mpki.dvr", "1/kinstr", "lower"),
    m("sim-mem.demand_loads.ooo", "count", "higher"),
    m("sim-mem.demand_loads.dvr", "count", "higher"),
    m("sim-mem.llc_mpki.ooo", "1/kinstr", "lower"),
    m("sim-mem.llc_mpki.dvr", "1/kinstr", "lower"),
    m("sim-mem.dram_reads.ooo", "count", "lower"),
    m("sim-mem.dram_reads.dvr", "count", "lower"),
    m("sim-mem.mlp.ooo", "mshrs", "higher"),
    m("sim-mem.mlp.dvr", "mshrs", "higher"),
    m("sim-mem.avg_demand_latency.ooo", "cycles", "lower"),
    m("sim-mem.avg_demand_latency.dvr", "cycles", "lower"),
    m("sim-mem.prefetch_accuracy.dvr", "frac", "higher"),
    m("sim-mem.prefetch_issued.dvr", "count", "higher"),
    m("dvr-core.episodes", "count", "higher"),
    m("dvr-core.runahead_loads", "count", "higher"),
    m("dvr-core.nested_episodes", "count", "higher"),
    m("dvr-core.lanes_lost", "count", "lower"),
    m("sim-mem.shared.l3_hits", "count", "higher"),
    m("sim-mem.shared.dram_reads", "count", "lower"),
    m("sim-mem.shared.cross_core_hits", "count", "higher"),
    m("dvr-sim.mix_s", "s", "lower"),
    m("dvr-sim.mix_host_ns_per_cycle", "ns", "lower"),
    m("report.encode_us", "us", "lower"),
    m("report.decode_us", "us", "lower"),
    m("report.to_json_us", "us", "lower"),
    m("report.cache_key_ms", "ms", "lower"),
    m("report.bytes", "bytes", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
];

/// The paper's Fig. 7 harmonic-mean DVR speed-up over OoO.
pub const PAPER_FIG7_HMEAN: f64 = 2.4;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Harmonic mean over every reference-pass report's IPC.
pub fn ipc_hmean(run: &Run) -> f64 {
    hmean(run.reference.iter().flat_map(|c| c.report.cores()).map(|r| r.ipc))
}

/// Harmonic mean of DVR IPC over OoO IPC: per input for single-core
/// workloads, per DVR core against the same core of the mix's all-OoO
/// twin for `mix-paper`.
pub fn dvr_speedup_hmean(run: &Run) -> f64 {
    let refs = &run.reference;
    let mut speedups = Vec::new();
    for (i, cell) in run.plan.cells.iter().enumerate() {
        match &cell.kind {
            CellKind::Exact { input, technique } | CellKind::Sampled { input, technique }
                if *technique == DVR =>
            {
                let base = run.plan.cells.iter().position(|c| {
                    matches!(c.kind, CellKind::Exact { input: j, technique: OOO } | CellKind::Sampled { input: j, technique: OOO } if j == *input)
                });
                if let Some(b) = base {
                    speedups
                        .push(ratio(refs[i].report.cores()[0].ipc, refs[b].report.cores()[0].ipc));
                }
            }
            CellKind::Mix { twin_of: Some(mixed), .. } => {
                let mixed_cores = refs[*mixed].report.cores();
                for (m, b) in mixed_cores.iter().zip(refs[i].report.cores()) {
                    if m.technique == DVR {
                        speedups.push(ratio(m.ipc, b.ipc));
                    }
                }
            }
            _ => {}
        }
    }
    hmean(speedups)
}

/// Peak resident memory of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Values {
    let mut v = Values::new();
    v.insert("sim_minstr_per_s", best_minstr_per_s(&run.passes));
    v.insert("setup_s", median(run.setup_secs.clone()));
    v.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    let failed = run.failures.len() as f64;
    v.insert("completed_frac", ratio(run.attempted as f64 - failed, run.attempted as f64));
    v.insert("sim_ipc_hmean", ipc_hmean(run));
    v.insert("dvr_speedup_hmean", dvr_speedup_hmean(run));
    v
}

/// The catalogued per-layer name `{base}.{ooo|dvr}`.
fn per_tech(base: &str, t: Technique) -> &'static str {
    let suffix = if t == DVR { "dvr" } else { "ooo" };
    PER_LAYER
        .iter()
        .find(|m| m.name.strip_suffix(suffix).and_then(|p| p.strip_suffix('.')) == Some(base))
        .unwrap_or_else(|| panic!("{base}.{suffix} is not catalogued"))
        .name
}

/// Per traced pass, the summed seconds of `name` spans directly under the
/// pass that satisfy `keep`; the median over passes.
fn per_pass(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    let passes: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].name == "pass").collect();
    median(
        passes
            .iter()
            .map(|&p| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(p) && s.name == name && keep(s))
                    .map(Span::secs)
                    .sum()
            })
            .collect(),
    )
}

/// Median duration of `name` spans, in seconds.
fn per_call(spans: &[Span], name: &str) -> f64 {
    median(spans.iter().filter(|s| s.name == name).map(Span::secs).collect())
}

fn core_counts(v: &mut Values, reports: &[&SimReport], t: Technique) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cycles = sum(&|r| r.core.cycles);
    let committed = sum(&|r| r.core.committed);
    let mut put = |base: &str, x: f64| {
        v.insert(per_tech(base, t), x);
    };
    put("sim-ooo.cycles", cycles);
    put("sim-ooo.committed", committed);
    put("sim-ooo.rob_full_frac", ratio(sum(&|r| r.core.rob_full_stall_cycles), cycles));
    put("sim-ooo.branch_mpki", 1000.0 * ratio(sum(&|r| r.core.branch_mispredicts), committed));
    put("sim-mem.demand_loads", sum(&|r| r.mem.demand_loads));
    put("sim-mem.llc_mpki", 1000.0 * ratio(sum(&|r| r.mem.dram_demand), committed));
    put("sim-mem.dram_reads", sum(&|r| r.mem.dram_reads()));
    put("sim-mem.mlp", ratio(reports.iter().map(|r| r.mlp * r.core.cycles as f64).sum(), cycles));
    put(
        "sim-mem.avg_demand_latency",
        ratio(sum(&|r| r.mem.demand_latency_sum), sum(&|r| r.mem.demand_loads)),
    );
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Run) -> Values {
    let mut v = Values::new();
    let spans = run.tracer.spans();
    let plan = &run.plan;

    v.insert(
        "workloads.build_s",
        median(
            (0..spans.len())
                .filter(|&i| spans[i].name == "setup")
                .map(|p| spans.iter().filter(|s| s.parent == Some(p)).map(Span::secs).sum())
                .collect(),
        ),
    );
    let replay_s: f64 = run.tracer.named("sim_isa::Cpu::run").map(Span::secs).sum();
    v.insert("sim-isa.functional_minstr_per_s", ratio(run.replayed as f64, replay_s) / 1e6);

    v.insert("sim-sample.emit_s", per_pass(spans, "dvr_sim::sample_emit", |_| true));
    v.insert("sim-sample.measure_s", per_pass(spans, "dvr_sim::measure_emitted", |_| true));
    v.insert(
        "sim-sample.merge_s",
        per_pass(spans, "sim_sample::merge_periods", |_| true)
            + per_pass(spans, "dvr_sim::sampled_report_from", |_| true),
    );
    v.insert("sim-sample.checkpoint_bytes", run.emit.iter().map(|e| e.bytes).sum::<u64>() as f64);
    v.insert("sim-sample.periods", run.emit.iter().map(|e| e.periods).sum::<u64>() as f64);
    let sampling: Vec<_> = run
        .reference
        .iter()
        .flat_map(|c| c.report.cores())
        .filter_map(|r| r.sampling.as_ref())
        .collect();
    let detailed: u64 =
        sampling.iter().map(|s| s.detailed_instructions + s.warmup_instructions).sum();
    let covered: u64 = sampling
        .iter()
        .map(|s| s.detailed_instructions + s.warmup_instructions + s.ffwd_instructions)
        .sum();
    v.insert("sim-sample.detailed_frac", ratio(detailed as f64, covered as f64));

    for t in [OOO, DVR] {
        let reports: Vec<&SimReport> = reports_of(&run.reference, t).collect();
        core_counts(&mut v, &reports, t);
        let sim_s = per_pass(spans, "dvr_sim::simulate", |s| {
            s.cell.and_then(|c| plan.technique(c)) == Some(t)
        });
        // Workloads that never call `simulate` time 0 s here, so their
        // cycle and instruction rates read 0 too.
        let cycles: u64 = reports.iter().map(|r| r.core.cycles).sum();
        let committed: u64 = reports.iter().map(|r| r.core.committed).sum();
        v.insert(per_tech("dvr-sim.simulate_s", t), sim_s);
        v.insert(per_tech("dvr-sim.host_ns_per_cycle", t), 1e9 * ratio(sim_s, cycles as f64));
        v.insert(per_tech("dvr-sim.host_ns_per_instr", t), 1e9 * ratio(sim_s, committed as f64));
    }

    let dvr: Vec<&SimReport> = reports_of(&run.reference, DVR).collect();
    let src = PrefetchSource::Dvr.index();
    let issued: u64 = dvr.iter().map(|r| r.mem.prefetch_issued[src]).sum();
    let found: u64 = dvr.iter().map(|r| r.mem.prefetch_found[src].iter().sum::<u64>()).sum();
    v.insert("sim-mem.prefetch_accuracy.dvr", ratio(found as f64, issued as f64));
    v.insert("sim-mem.prefetch_issued.dvr", issued as f64);
    v.insert("dvr-core.episodes", dvr.iter().map(|r| r.engine.episodes).sum::<u64>() as f64);
    v.insert(
        "dvr-core.runahead_loads",
        dvr.iter().map(|r| r.engine.runahead_loads).sum::<u64>() as f64,
    );
    v.insert(
        "dvr-core.nested_episodes",
        dvr.iter().map(|r| r.engine.nested_episodes).sum::<u64>() as f64,
    );
    v.insert("dvr-core.lanes_lost", dvr.iter().map(|r| r.engine.lanes_lost).sum::<u64>() as f64);

    let mixes: Vec<&dvr_sim::MixReport> = run
        .reference
        .iter()
        .filter_map(|c| match &c.report {
            crate::gate::Report::Mix(m) => Some(m),
            crate::gate::Report::Single(_) => None,
        })
        .collect();
    let shared =
        |f: &dyn Fn(&dvr_sim::MixReport) -> u64| mixes.iter().map(|m| f(m)).sum::<u64>() as f64;
    v.insert("sim-mem.shared.l3_hits", shared(&|m| m.shared.iter().map(|c| c.l3_hits).sum()));
    v.insert("sim-mem.shared.dram_reads", shared(&|m| m.shared.iter().map(|c| c.dram_reads).sum()));
    v.insert(
        "sim-mem.shared.cross_core_hits",
        shared(&|m| m.shared.iter().map(|c| c.cross_core_hits).sum()),
    );
    let mix_s = per_pass(spans, "dvr_sim::simulate_mix", |_| true);
    v.insert("dvr-sim.mix_s", mix_s);
    v.insert("dvr-sim.mix_host_ns_per_cycle", 1e9 * ratio(mix_s, shared(&|m| m.cycles)));

    v.insert("report.encode_us", 1e6 * per_call(spans, "dvr_sim::encode_report"));
    v.insert("report.decode_us", 1e6 * per_call(spans, "dvr_sim::decode_report"));
    v.insert("report.to_json_us", 1e6 * per_call(spans, "SimReport::to_json"));
    v.insert("report.cache_key_ms", 1e3 * per_call(spans, "dvr_sim::cache_key"));
    let bytes = &run.report_bytes;
    v.insert("report.bytes", ratio(bytes.iter().sum::<usize>() as f64, bytes.len() as f64));

    let best = |traced: bool| best_minstr_per_s(run.passes.iter().filter(|p| p.traced == traced));
    v.insert("trace.overhead_frac", ratio(best(false), best(true)) - 1.0);
    v
}

/// Renders `values` in catalogue order as the result line's `metrics`
/// object.
///
/// # Panics
///
/// If a catalogued metric is missing (a bug in this benchmark).
pub fn metrics_json(catalogue: &[Metric], values: &Values) -> String {
    let rows: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let x =
                values.get(m.name).unwrap_or_else(|| panic!("metric {} was not computed", m.name));
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            let x = if x.is_finite() { *x + 0.0 } else { 0.0 };
            format!("\"{}\": {{\"value\": {x:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

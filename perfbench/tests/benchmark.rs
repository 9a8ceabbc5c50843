//! The benchmark's own tests, on tiny plans (test-size inputs, short
//! regions) that take the same code path as the timed ones.

use std::collections::BTreeSet;

use perfbench::gate::{self, Gate, RECORDED};
use perfbench::metrics::{self, Metric, END_TO_END, PER_LAYER};
use perfbench::plan::{Plan, Scale, Workload};
use perfbench::run::{build_inputs, run, run_with, Options};
use perfbench::trace::Tracer;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
    Options { workload, seed, seconds: 0.0, trace, scale: Scale::Tiny }
}

fn names(v: &metrics::Values) -> BTreeSet<&'static str> {
    v.keys().copied().collect()
}

fn catalogue(c: &[Metric]) -> BTreeSet<&'static str> {
    c.iter().map(|m| m.name).collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let ok = |s: &str, extra: &str| {
        s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    };
    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
    for m in &all {
        assert!(!m.name.is_empty() && m.name.len() <= 64 && ok(m.name, ""), "bad name {}", m.name);
        assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "bad start {}", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16 && ok(m.unit, "/%"),
            "bad unit {}",
            m.unit
        );
        assert!(m.better == "higher" || m.better == "lower", "bad direction for {}", m.name);
    }
    let unique: BTreeSet<&str> = all.iter().map(|m| m.name).collect();
    assert_eq!(unique.len(), all.len(), "metric names repeat");
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let quoted = |s: &str| format!("\"name\": \"{s}\"");
    for w in Workload::ALL {
        assert!(json.contains(&quoted(w.name())), "BENCHMARK.json lacks workload {}", w.name());
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(json.contains(&quoted(m.name)), "BENCHMARK.json lacks metric {}", m.name);
        assert!(json.contains(&format!("\"unit\": \"{}\"", m.unit)));
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(declared, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_emits_every_metric_and_passes_the_gate() {
    for w in Workload::ALL {
        let r = run(&tiny(w, 1, false));
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        let e2e = metrics::end_to_end(&r);
        assert_eq!(names(&e2e), catalogue(END_TO_END), "{}", w.name());
        for (name, v) in &e2e {
            assert!(*v > 0.0 && v.is_finite(), "{}: {name} = {v}", w.name());
        }
        let r = run(&tiny(w, 1, true));
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        assert_eq!(names(&metrics::per_layer(&r)), catalogue(PER_LAYER), "{}", w.name());
        assert!(r.passes.iter().any(|p| p.traced) && r.passes.iter().any(|p| !p.traced));
    }
}

#[test]
fn traced_self_times_sum_to_wall_time() {
    let r = run(&tiny(Workload::SampledPaper, 1, true));
    let spans = r.tracer.spans();
    let wall = spans[0].secs();
    assert_eq!(spans[0].name, "perfbench");
    assert!(spans[1..].iter().all(|s| s.parent.is_some()));
    let sum: f64 = perfbench::trace::self_times(spans).values().sum();
    assert!((sum - wall).abs() < 1e-6, "rows {sum} vs wall {wall}");
    for name in [
        "dvr_sim::sample_emit",
        "dvr_sim::measure_emitted",
        "sim_isa::Cpu::run",
        "dvr_sim::cache_key",
    ] {
        assert!(r.tracer.named(name).next().is_some(), "no {name} span");
    }
}

#[test]
fn a_perturbed_report_hash_is_a_failure() {
    let opts = tiny(Workload::ExactResident, 1, false);
    let clean = run(&opts);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);
    let (label, hash) = clean.hashes[0].clone();

    // The recorded hash itself passes.
    let good = gate::rerecord("", "exact-resident", 1, &clean.hashes);
    assert!(run_with(&opts, &good).failures.is_empty());

    // One flipped digit fails that cell on every pass, and only that cell.
    let flipped = if hash.starts_with('0') { "1" } else { "0" };
    let bad_hashes: Vec<_> = clean
        .hashes
        .iter()
        .map(|(l, h)| {
            (l.clone(), if *l == label { format!("{flipped}{}", &h[1..]) } else { h.clone() })
        })
        .collect();
    let bad = run_with(&opts, &gate::rerecord("", "exact-resident", 1, &bad_hashes));
    assert_eq!(bad.failures.len(), 1 + bad.passes.len(), "{:?}", bad.failures);
    assert!(bad.failures.iter().all(|f| f.starts_with(&label)));
    assert!(metrics::end_to_end(&bad)["completed_frac"] < 1.0);

    // A hash that changes between passes fails too, recorded or not.
    let mut g = Gate::new("", "exact-resident", 1, 1);
    assert!(g.check_hash(0, &label, &hash).is_ok());
    assert!(g.check_hash(0, &label, &hash).is_ok());
    assert!(g.check_hash(0, &label, &format!("{flipped}{}", &hash[1..])).is_err());
}

#[test]
fn another_seed_changes_inputs_but_not_the_metric_set() {
    for w in [Workload::ExactResident, Workload::MixPaper] {
        let plan = Plan::new(w, Scale::Tiny);
        let mut t = Tracer::new(false);
        let a = build_inputs(&plan, 1, &mut t);
        let b = build_inputs(&plan, 2, &mut t);
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.mem.checksum() != y.mem.checksum()),
            "{}: seed does not reach the inputs",
            w.name()
        );
        let (ra, rb) = (run(&tiny(w, 1, false)), run(&tiny(w, 2, false)));
        assert_eq!(names(&metrics::end_to_end(&ra)), names(&metrics::end_to_end(&rb)));
        assert_ne!(ra.hashes, rb.hashes, "{}: reports ignore the seed", w.name());
    }
}

#[test]
fn recorded_hashes_name_planned_cells() {
    let recorded = gate::parse(RECORDED);
    assert!(!recorded.is_empty(), "no hashes recorded");
    for (w, _, label, hash) in recorded {
        let w = Workload::parse(&w).unwrap_or_else(|| panic!("unknown workload {w}"));
        let plan = Plan::new(w, Scale::Full);
        assert!(
            plan.cells.iter().any(|c| c.label == label),
            "{label} is not a cell of {}",
            w.name()
        );
        assert_eq!(hash.len(), 32, "{label}: not a 128-bit hex digest");
    }
}

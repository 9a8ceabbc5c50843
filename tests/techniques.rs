//! Behavioural contracts of the runahead techniques — the paper's key
//! qualitative claims, asserted as tests.

use dvr_sim::{encode_report, simulate, SimConfig, Technique};
use workloads::{Benchmark, GraphInput, SizeClass};

fn run(b: Benchmark, g: Option<GraphInput>, t: Technique, instrs: u64) -> dvr_sim::SimReport {
    let wl = b.build(g, SizeClass::Small, 42);
    simulate(&wl, &SimConfig::new(t).with_max_instructions(instrs))
}

/// Section 1: DVR outperforms both the baseline and VR on deep indirect
/// chains.
#[test]
fn dvr_beats_baseline_and_vr_on_deep_chains() {
    let base = run(Benchmark::Hj8, None, Technique::Baseline, 150_000);
    let vr = run(Benchmark::Hj8, None, Technique::Vr, 150_000);
    let dvr = run(Benchmark::Hj8, None, Technique::Dvr, 150_000);
    assert!(
        dvr.ipc > 1.5 * base.ipc,
        "DVR {:.3} must clearly beat OoO {:.3} on HJ8",
        dvr.ipc,
        base.ipc
    );
    assert!(dvr.ipc > vr.ipc, "DVR {:.3} must beat VR {:.3}", dvr.ipc, vr.ipc);
}

/// Figure 9: DVR sustains more outstanding misses than the baseline.
#[test]
fn dvr_raises_mlp() {
    let base = run(Benchmark::Hj8, None, Technique::Baseline, 100_000);
    let dvr = run(Benchmark::Hj8, None, Technique::Dvr, 100_000);
    assert!(
        dvr.mlp > 2.0 * base.mlp,
        "DVR MLP {:.1} must dwarf baseline {:.1} on a serial chain",
        dvr.mlp,
        base.mlp
    );
}

/// Figure 10: DVR's Discovery Mode keeps total DRAM traffic near demand;
/// VR (no loop bounds) over-fetches more.
#[test]
fn dvr_is_more_accurate_than_vr() {
    let vr = run(Benchmark::Bfs, Some(GraphInput::Ur), Technique::Vr, 100_000);
    let dvr = run(Benchmark::Bfs, Some(GraphInput::Ur), Technique::Dvr, 100_000);
    let vr_acc = vr.mem.accuracy(dvr_sim::PrefetchSource::Vr);
    let dvr_acc = dvr.mem.accuracy(dvr_sim::PrefetchSource::Dvr);
    if let (Some(v), Some(d)) = (vr_acc, dvr_acc) {
        assert!(d >= v - 0.05, "DVR accuracy {d:.2} must not trail VR {v:.2} on short-loop UR");
    }
}

/// Section 2.2: PRE cannot prefetch past the first level of indirection —
/// its runahead loads at deeper levels are poisoned.
#[test]
fn pre_is_poisoned_beyond_first_indirection() {
    let wl = Benchmark::Camel.build(None, SizeClass::Small, 42);
    let mut mem = wl.mem.clone();
    let mut hier = dvr_sim::MemoryHierarchy::new(dvr_sim::HierarchyConfig::default());
    let mut core = dvr_sim::OooCore::new(dvr_sim::CoreConfig::default());
    let mut pre = dvr_sim::PreEngine::default();
    core.run(&wl.prog, &mut mem, &mut hier, &mut pre, 100_000).expect("run failed");
    let s = pre.stats();
    assert!(s.episodes > 0, "PRE must trigger on Camel");
    assert!(s.poisoned_loads > 0, "Camel's second-level loads must be INV-poisoned in PRE");
}

/// Section 3 observation 2: VR's delayed termination blocks commit; DVR
/// never blocks commit.
#[test]
fn only_vr_blocks_commit() {
    let vr = run(Benchmark::Camel, None, Technique::Vr, 100_000);
    let dvr = run(Benchmark::Camel, None, Technique::Dvr, 100_000);
    assert!(vr.core.commit_blocked_engine_cycles > 0, "VR must show delayed termination");
    assert_eq!(dvr.core.commit_blocked_engine_cycles, 0, "DVR is decoupled from commit");
}

/// IMP learns affine indirection (NAS-IS) but not hashed chains (Camel).
#[test]
fn imp_selectivity_matches_paper() {
    let is_base = run(Benchmark::NasIs, None, Technique::Baseline, 100_000);
    let is_imp = run(Benchmark::NasIs, None, Technique::Imp, 100_000);
    assert!(
        is_imp.ipc > 1.05 * is_base.ipc,
        "IMP must speed up NAS-IS ({:.3} vs {:.3})",
        is_imp.ipc,
        is_base.ipc
    );
    let cm_base = run(Benchmark::Camel, None, Technique::Baseline, 100_000);
    let cm_imp = run(Benchmark::Camel, None, Technique::Imp, 100_000);
    assert!(
        cm_imp.ipc < 1.1 * cm_base.ipc,
        "IMP must not learn Camel's hashed chain ({:.3} vs {:.3})",
        cm_imp.ipc,
        cm_base.ipc
    );
}

/// Figure 8's ordering: full DVR is at least as good as its ablations on
/// short-inner-loop inputs where NDM matters.
#[test]
fn fig8_breakdown_ordering_on_short_loops() {
    let b = Benchmark::Pr;
    let g = Some(GraphInput::Ur);
    let base = run(b, g, Technique::Baseline, 100_000);
    let offload = run(b, g, Technique::DvrOffload, 100_000).speedup_over(&base);
    let full = run(b, g, Technique::Dvr, 100_000).speedup_over(&base);
    assert!(
        full >= 0.9 * offload,
        "full DVR ({full:.2}) must not collapse versus offload-only ({offload:.2})"
    );
    assert!(full > 1.0, "full DVR must beat the baseline on pr_UR");
}

/// The Oracle is an upper bound for the baseline.
#[test]
fn oracle_dominates_baseline() {
    for (b, g) in [(Benchmark::Camel, None), (Benchmark::Bfs, Some(GraphInput::Kr))] {
        let base = run(b, g, Technique::Baseline, 80_000);
        let oracle = run(b, g, Technique::Oracle, 80_000);
        assert!(
            oracle.ipc >= base.ipc,
            "Oracle ({:.3}) must dominate OoO ({:.3}) on {}",
            oracle.ipc,
            base.ipc,
            b.name()
        );
    }
}

/// DVR must use Nested Vector Runahead on short-inner-loop graph inputs.
#[test]
fn ndm_engages_on_uniform_graphs() {
    let wl = Benchmark::Pr.build(Some(GraphInput::Ur), SizeClass::Small, 42);
    let r = simulate(&wl, &SimConfig::new(Technique::Dvr).with_max_instructions(100_000));
    assert!(
        r.engine.nested_episodes > 0,
        "UR's short inner loops must trigger NDM: {:?}",
        r.engine
    );
}

/// Idle-cycle skipping is invisible: under every technique the plain run
/// (which jumps over quiescent cycles) and the sanitized run (which steps
/// through each of them and checks it is idle) encode to the same bytes,
/// and the sanitizer finds nothing.
#[test]
fn skipping_matches_the_sanitized_lock_step_run_for_every_technique() {
    for bench in [Benchmark::NasCg, Benchmark::Bfs, Benchmark::Camel] {
        let wl = bench.build(None, SizeClass::Test, 42);
        for t in dvr_sim::sweep::ALL_TECHNIQUES {
            let cfg = SimConfig::new(t).with_max_instructions(30_000);
            let plain = simulate(&wl, &cfg);
            let sane = simulate(&wl, &cfg.with_sanitize(true));
            let label = format!("{}/{}", wl.name, t.name());
            let ledger = sane.sanitizer.as_ref().expect("sanitized run has a ledger");
            assert!(ledger.is_clean(), "{label}: {:?}", ledger.first);
            assert_eq!(
                encode_report(&plain).expect("plain run completes"),
                encode_report(&sane).expect("sanitized run completes"),
                "{label}: skipping changed the report"
            );
        }
    }
}

//! Checkpoint-parallel sampling acceptance tests: the sequential driver,
//! the in-process thread fan-out, and the split-phase path `dvrsim sample`
//! takes (one shared emit, then a threaded measure phase) must produce
//! byte-identical reports on every benchmark.

use std::sync::OnceLock;

use dvr_sim::{
    measure_emitted, sample_emit, sampled_report_from, simulate_sampled, simulate_sampled_threads,
    Placement, SampleConfig, SimConfig, SimReport, Technique,
};
use proptest::prelude::*;
use sim_sample::merge_periods;
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

/// Region of interest: 3 periods of the default sampling configuration.
const INSTRS: u64 = 60_000;

fn suite() -> &'static Vec<Workload> {
    static SUITE: OnceLock<Vec<Workload>> = OnceLock::new();
    SUITE.get_or_init(|| {
        Benchmark::ALL
            .into_iter()
            .map(|b| b.build(b.is_gap().then_some(GraphInput::Kr), SizeClass::Small, 42))
            .collect()
    })
}

/// Reports with the wall-clock fields zeroed: everything that remains
/// must be bit-identical across dispatch strategies.
fn normalized_json(mut r: SimReport) -> String {
    r.host_seconds = 0.0;
    r.to_json()
}

/// The split-phase path `dvrsim sample` takes: one shared emit, the
/// measure phase on `threads` threads, then the merge.
fn sampled_split_phase(
    wl: &Workload,
    cfg: &SimConfig,
    scfg: &SampleConfig,
    threads: usize,
) -> SimReport {
    let result = sample_emit(wl, cfg, scfg).and_then(|emit| {
        let periods = measure_emitted(wl, cfg, scfg, &emit.checkpoints, threads)?;
        Ok(merge_periods(periods, emit.total_retired, emit.halted))
    });
    sampled_report_from(wl, cfg, scfg, result)
}

/// Acceptance criterion: on all 13 benchmarks, the sequential driver, the
/// 4-thread in-process fan-out, and the 2-thread split-phase path produce
/// byte-identical reports once wall-clock fields are stripped.
#[test]
fn all_three_dispatch_paths_are_byte_identical_on_every_benchmark() {
    let scfg = SampleConfig::default();
    for wl in suite() {
        let cfg = SimConfig::new(Technique::Baseline).with_max_instructions(INSTRS);
        let seq = normalized_json(simulate_sampled(wl, &cfg, &scfg));
        let threaded = normalized_json(simulate_sampled_threads(wl, &cfg, &scfg, 4));
        let split = normalized_json(sampled_split_phase(wl, &cfg, &scfg, 2));
        assert_eq!(seq, threaded, "{}: threads diverged from sequential", wl.name);
        assert_eq!(seq, split, "{}: split-phase path diverged from sequential", wl.name);
    }
}

proptest! {
    // Every case runs two full sampled simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity is a property of *any* sampling configuration, not
    /// just the default: random benchmark, placement policy, placement
    /// seed, and thread count all agree with the sequential driver.
    #[test]
    fn dispatch_paths_agree_on_random_configs(
        which in 0usize..13,
        random_placement in any::<bool>(),
        sample_seed in 1u64..1000,
        threads in 1usize..5,
    ) {
        let wl = &suite()[which];
        let technique = if which % 2 == 0 { Technique::Baseline } else { Technique::Dvr };
        let cfg = SimConfig::new(technique).with_max_instructions(INSTRS);
        let placement =
            if random_placement { Placement::Random } else { Placement::Systematic };
        let scfg = SampleConfig::default().with_placement(placement).with_seed(sample_seed);

        let seq = normalized_json(simulate_sampled(wl, &cfg, &scfg));
        let threaded = normalized_json(simulate_sampled_threads(wl, &cfg, &scfg, threads));
        prop_assert_eq!(&seq, &threaded, "{}: threads diverged", wl.name);
    }
}

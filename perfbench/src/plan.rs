//! The four workloads: which inputs each builds and which cells it runs.
//!
//! A *cell* is one call into a simulate entry point (`simulate`, the
//! sampled emit/measure/merge chain, or `simulate_mix`) whose report is
//! checked and hashed. One *pass* runs every cell of the plan once.

use dvr_sim::{Benchmark, MixCore, MixSpec, SampleConfig, SizeClass, Technique};

/// The benchmark's named workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Exact single-core runs at paper size, cold caches, working sets
    /// beyond the LLC: the cycle loop dominates and most cycles are idle.
    ExactPaper,
    /// The same exact path on cache-resident inputs: busy cycles dominate.
    ExactResident,
    /// All 13 benchmarks under checkpoint-parallel SMARTS sampling:
    /// functional fast-forward, checkpoint emit/restore and the thread
    /// pool dominate.
    SampledPaper,
    /// 2-core mixes on the event scheduler with a shared L3/DRAM.
    MixPaper,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::ExactPaper, Workload::ExactResident, Workload::SampledPaper, Workload::MixPaper];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactPaper => "exact-paper",
            Workload::ExactResident => "exact-resident",
            Workload::SampledPaper => "sampled-paper",
            Workload::MixPaper => "mix-paper",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The two techniques every workload compares.
pub const OOO: Technique = Technique::Baseline;
/// See [`OOO`].
pub const DVR: Technique = Technique::Dvr;

/// How big a plan is: the real one, or a tiny one for the benchmark's own
/// tests (same code path, test-size inputs and short regions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The sizes the benchmark times.
    Full,
    /// Test-size inputs and regions of a few thousand instructions.
    Tiny,
}

/// What one cell runs.
#[derive(Clone, Debug)]
pub enum CellKind {
    /// `simulate` on input `input` under `technique`.
    Exact {
        /// Index into [`Plan::benches`].
        input: usize,
        /// OoO or DVR.
        technique: Technique,
    },
    /// The sampled chain on input `input` under `technique`; both
    /// techniques of an input share one `sample_emit`.
    Sampled {
        /// Index into [`Plan::benches`].
        input: usize,
        /// OoO or DVR.
        technique: Technique,
    },
    /// `simulate_mix` on `spec`. A mix that runs DVR on some core is
    /// followed by its all-OoO twin (`twin_of` = the mixed cell), which
    /// is the baseline for the per-core DVR speed-up.
    Mix {
        /// The per-core benchmarks and techniques.
        spec: MixSpec,
        /// For an all-OoO twin, the index of the cell it is the baseline of.
        twin_of: Option<usize>,
    },
}

/// One cell with its stable label (the key of its recorded hash).
#[derive(Clone, Debug)]
pub struct Cell {
    /// Stable label, e.g. `bfs/OoO` or `HJ8:OoO+Kangaroo:DVR`.
    pub label: String,
    /// What the cell runs.
    pub kind: CellKind,
}

/// A workload's inputs, cells and region sizes.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Input size class.
    pub size: SizeClass,
    /// Region of interest per cell (per core for mixes), in instructions.
    pub roi: u64,
    /// Inputs built at set-up (GAP benchmarks on the KR graph).
    pub benches: Vec<Benchmark>,
    /// Sampling plan (`Some` only for `sampled-paper`).
    pub sample: Option<SampleConfig>,
    /// Region of the sanitized cells run once outside the timed passes.
    pub sanitize_roi: u64,
    /// The cells of one pass, in run order.
    pub cells: Vec<Cell>,
}

const MIXES: [&str; 3] =
    ["HJ8:ooo,Kangaroo:dvr", "NAS-CG:dvr,RandomAccess:ooo", "Camel:dvr,HJ2:dvr"];

impl Plan {
    /// The plan of `workload` at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Plan {
        use Benchmark::*;
        let tiny = scale == Scale::Tiny;
        let paper = if tiny { SizeClass::Test } else { SizeClass::Paper };
        let (size, roi, benches) = match workload {
            Workload::ExactPaper => {
                (paper, 120_000, vec![Bfs, Camel, Hj8, Kangaroo, NasCg, RandomAccess])
            }
            // Test-size inputs are the cache-resident ones (LLC MPKI <= 2.1);
            // their programs halt before the region ends.
            Workload::ExactResident => (SizeClass::Test, 500_000, vec![Cc, Pr, NasCg, NasIs]),
            Workload::SampledPaper => (paper, 2_000_000, Benchmark::ALL.to_vec()),
            Workload::MixPaper => {
                (paper, 150_000, vec![Hj8, Kangaroo, NasCg, RandomAccess, Camel, Hj2])
            }
        };
        let roi = if tiny { 8_000 } else { roi };
        // Ten periods per region, as the sampler's defaults have at their
        // 200k-instruction region. Twenty halve how far the sampled DVR
        // speed-up moves between input seeds but double the checkpoints,
        // which halves host throughput and lifts peak memory by 40%.
        let detail = if tiny { 200 } else { 2_000 };
        let sample = (workload == Workload::SampledPaper).then(|| {
            SampleConfig::default().with_period(roi / 10).with_warmup(detail).with_interval(detail)
        });
        let sanitize_roi = if workload == Workload::SampledPaper { roi / 20 } else { roi };

        let mut cells = Vec::new();
        match workload {
            Workload::MixPaper => {
                for m in MIXES {
                    let spec = MixSpec::parse(m, OOO).expect("the mix table parses");
                    let twin = MixSpec {
                        cores: spec
                            .cores
                            .iter()
                            .map(|c| MixCore { technique: OOO, ..*c })
                            .collect(),
                    };
                    let mixed = cells.len();
                    cells.push(Cell {
                        label: spec.label(),
                        kind: CellKind::Mix { spec, twin_of: None },
                    });
                    cells.push(Cell {
                        label: twin.label(),
                        kind: CellKind::Mix { spec: twin, twin_of: Some(mixed) },
                    });
                }
            }
            _ => {
                for (input, b) in benches.iter().enumerate() {
                    for technique in [OOO, DVR] {
                        let kind = if sample.is_some() {
                            CellKind::Sampled { input, technique }
                        } else {
                            CellKind::Exact { input, technique }
                        };
                        cells.push(Cell {
                            label: format!("{}/{}", b.name(), technique.name()),
                            kind,
                        });
                    }
                }
            }
        }
        Plan { workload, size, roi, benches, sample, sanitize_roi, cells }
    }

    /// The technique of a single-core cell (`None` for mixes).
    pub fn technique(&self, cell: usize) -> Option<Technique> {
        match self.cells[cell].kind {
            CellKind::Exact { technique, .. } | CellKind::Sampled { technique, .. } => {
                Some(technique)
            }
            CellKind::Mix { .. } => None,
        }
    }
}

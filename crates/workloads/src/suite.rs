//! The benchmark registry and shared workload plumbing.

use sim_isa::{Program, SparseMemory};

use crate::graphs::GraphInput;

/// A ready-to-simulate workload: a program plus its initialized memory
/// image.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (paper spelling, e.g. `"bfs"`, `"HJ8"`).
    pub name: String,
    /// The assembled kernel.
    pub prog: Program,
    /// The initialized data memory.
    pub mem: SparseMemory,
    /// One-line description of the access pattern exercised.
    pub description: String,
    /// Named data regions `(name, base_address)` for host-side validation.
    pub regions: Vec<(String, u64)>,
}

impl Workload {
    /// Base address of a named data region.
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist (a workload-construction bug).
    pub fn region(&self, name: &str) -> u64 {
        self.regions
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("workload {} has no region {name}", self.name))
            .1
    }
}

/// A simple bump allocator for laying out workload data regions.
///
/// Regions are 4 KiB-aligned and spaced so distinct arrays never share a
/// cache line.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    next: u64,
}

impl Default for Layout {
    fn default() -> Self {
        Layout::new()
    }
}

impl Layout {
    /// Starts allocating at 1 MiB (clear of the zero page).
    pub fn new() -> Self {
        Layout { next: 0x10_0000 }
    }

    /// Reserves `bytes`, returning the region's base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next = (self.next + bytes + 0xFFF) & !0xFFF;
        base
    }

    /// Reserves space for `n` 8-byte words.
    pub fn alloc_words(&mut self, n: usize) -> u64 {
        self.alloc(8 * n as u64)
    }
}

/// The paper's size class for a workload build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SizeClass {
    /// Tiny inputs for unit/integration tests (fast, cache-resident).
    Test,
    /// Reduced inputs for Criterion benches.
    Small,
    /// The DESIGN.md "paper" scale: working sets exceeding the 8 MB LLC.
    #[default]
    Paper,
}

impl SizeClass {
    /// Parses the CLI spelling `test`, `small` or `paper` (also the
    /// sweep cell-key token). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<SizeClass> {
        Some(match s {
            "test" => SizeClass::Test,
            "small" => SizeClass::Small,
            "paper" => SizeClass::Paper,
            _ => return None,
        })
    }

    /// How many powers of two to shave off graph sizes.
    pub fn graph_scale_shift(self) -> u32 {
        match self {
            SizeClass::Test => 8,
            SizeClass::Small => 5,
            SizeClass::Paper => 0,
        }
    }

    /// Element-count scale for the hpc-db array workloads.
    pub fn elems(self, paper: usize) -> usize {
        match self {
            SizeClass::Test => (paper / 256).max(256),
            SizeClass::Small => (paper / 32).max(1024),
            SizeClass::Paper => paper,
        }
    }
}

/// The 13 evaluated benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum Benchmark {
    Bc,
    Bfs,
    Cc,
    Pr,
    Sssp,
    Camel,
    Graph500,
    Hj2,
    Hj8,
    Kangaroo,
    NasCg,
    NasIs,
    RandomAccess,
}

impl Benchmark {
    /// All benchmarks, GAP first then hpc-db, in the paper's order.
    pub const ALL: [Benchmark; 13] = [
        Benchmark::Bc,
        Benchmark::Bfs,
        Benchmark::Cc,
        Benchmark::Pr,
        Benchmark::Sssp,
        Benchmark::Camel,
        Benchmark::Graph500,
        Benchmark::Hj2,
        Benchmark::Hj8,
        Benchmark::Kangaroo,
        Benchmark::NasCg,
        Benchmark::NasIs,
        Benchmark::RandomAccess,
    ];

    /// The five GAP benchmarks (evaluated on all five graph inputs).
    pub const GAP: [Benchmark; 5] =
        [Benchmark::Bc, Benchmark::Bfs, Benchmark::Cc, Benchmark::Pr, Benchmark::Sssp];

    /// The eight hpc-db benchmarks.
    pub const HPC_DB: [Benchmark; 8] = [
        Benchmark::Camel,
        Benchmark::Graph500,
        Benchmark::Hj2,
        Benchmark::Hj8,
        Benchmark::Kangaroo,
        Benchmark::NasCg,
        Benchmark::NasIs,
        Benchmark::RandomAccess,
    ];

    /// Parses a benchmark name (the [`Benchmark::name`] spelling,
    /// case-insensitively). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name().eq_ignore_ascii_case(s))
    }

    /// Paper spelling of the name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bc => "bc",
            Benchmark::Bfs => "bfs",
            Benchmark::Cc => "cc",
            Benchmark::Pr => "pr",
            Benchmark::Sssp => "sssp",
            Benchmark::Camel => "Camel",
            Benchmark::Graph500 => "Graph500",
            Benchmark::Hj2 => "HJ2",
            Benchmark::Hj8 => "HJ8",
            Benchmark::Kangaroo => "Kangaroo",
            Benchmark::NasCg => "NAS-CG",
            Benchmark::NasIs => "NAS-IS",
            Benchmark::RandomAccess => "RandomAccess",
        }
    }

    /// Whether the benchmark takes a GAP graph input.
    pub fn is_gap(self) -> bool {
        Benchmark::GAP.contains(&self)
    }

    /// Builds the workload.
    ///
    /// GAP benchmarks use `input` (defaulting to KR); hpc-db benchmarks
    /// ignore it. `seed` controls all synthetic data.
    pub fn build(self, input: Option<GraphInput>, size: SizeClass, seed: u64) -> Workload {
        let g = input.unwrap_or(GraphInput::Kr);
        match self {
            Benchmark::Bc => crate::gap::bc(g, size, seed),
            Benchmark::Bfs => crate::gap::bfs(g, size, seed),
            Benchmark::Cc => crate::gap::cc(g, size, seed),
            Benchmark::Pr => crate::gap::pr(g, size, seed),
            Benchmark::Sssp => crate::gap::sssp(g, size, seed),
            Benchmark::Camel => crate::hpcdb::camel(size, seed),
            Benchmark::Graph500 => crate::hpcdb::graph500(size, seed),
            Benchmark::Hj2 => crate::hpcdb::hashjoin(2, size, seed),
            Benchmark::Hj8 => crate::hpcdb::hashjoin(8, size, seed),
            Benchmark::Kangaroo => crate::hpcdb::kangaroo(size, seed),
            Benchmark::NasCg => crate::hpcdb::nas_cg(size, seed),
            Benchmark::NasIs => crate::hpcdb::nas_is(size, seed),
            Benchmark::RandomAccess => crate::hpcdb::random_access(size, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shape() {
        assert_eq!(Benchmark::ALL.len(), 13);
        assert_eq!(Benchmark::GAP.len(), 5);
        assert_eq!(Benchmark::HPC_DB.len(), 8);
        for b in Benchmark::GAP {
            assert!(b.is_gap());
        }
        for b in Benchmark::HPC_DB {
            assert!(!b.is_gap());
        }
    }

    #[test]
    fn layout_is_page_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.alloc(100);
        let b = l.alloc(100);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn size_class_scaling() {
        assert_eq!(SizeClass::Paper.elems(1 << 20), 1 << 20);
        assert!(SizeClass::Test.elems(1 << 20) < 1 << 13);
        assert!(SizeClass::Test.graph_scale_shift() > SizeClass::Paper.graph_scale_shift());
    }
}

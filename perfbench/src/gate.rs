//! The correctness gate: every cell must complete, and its deterministic
//! report must hash the same on every pass and, for the default seed, match
//! the hash recorded in `golden/report-hashes.txt`.

use std::collections::BTreeMap;

use dvr_sim::sim_sweep::digest_bytes;
use dvr_sim::{encode_report, MixReport, SimReport};

/// The seed whose report hashes are recorded.
pub const DEFAULT_SEED: u64 = 1;

/// The recorded hashes: `workload seed label hash` per line, `#` comments.
pub const RECORDED: &str = include_str!("../golden/report-hashes.txt");

/// A cell's result: one report, or a mix of per-core reports.
#[derive(Clone, Debug)]
pub enum Report {
    /// `simulate` or the sampled chain.
    Single(Box<SimReport>),
    /// `simulate_mix`.
    Mix(MixReport),
}

impl Report {
    /// The per-core reports (one for a single-core cell).
    pub fn cores(&self) -> &[SimReport] {
        match self {
            Report::Single(r) => std::slice::from_ref(&**r),
            Report::Mix(m) => &m.cores,
        }
    }

    /// Why the cell failed to complete, if it did.
    pub fn failure(&self) -> Option<String> {
        self.cores().iter().find_map(|r| r.outcome.error().map(|e| format!("{}: {e}", r.workload)))
    }

    /// Hex digest of the cell's deterministic bytes: every core's
    /// `encode_report` (which zeroes `host_seconds`) plus, for a mix, the
    /// mix JSON with its shared-L3/DRAM counters.
    ///
    /// # Errors
    ///
    /// A failed report (which `encode_report` refuses).
    pub fn hash(&self) -> Result<String, String> {
        let mut bytes = Vec::new();
        for r in self.cores() {
            bytes.extend(encode_report(r)?);
        }
        if let Report::Mix(m) = self {
            bytes.extend(m.to_json().into_bytes());
        }
        Ok(digest_bytes(&bytes).hex())
    }
}

/// Checks cell hashes against the recorded ones and against the first
/// pass of this run.
#[derive(Debug)]
pub struct Gate {
    recorded: BTreeMap<String, String>,
    first: Vec<Option<String>>,
}

impl Gate {
    /// A gate for `cells` cells of `workload` at `seed`, reading recorded
    /// hashes from `recorded` (the format of [`RECORDED`]).
    pub fn new(recorded: &str, workload: &str, seed: u64, cells: usize) -> Gate {
        let recorded = parse(recorded)
            .into_iter()
            .filter(|(w, s, _, _)| w == workload && *s == seed)
            .map(|(_, _, label, hash)| (label, hash))
            .collect();
        Gate { recorded, first: vec![None; cells] }
    }

    /// Checks one cell's report from one pass.
    ///
    /// # Errors
    ///
    /// Why the cell counts as failed.
    pub fn check(&mut self, cell: usize, label: &str, report: &Report) -> Result<(), String> {
        if let Some(why) = report.failure() {
            return Err(format!("{label}: outcome not complete ({why})"));
        }
        let hash = report.hash().map_err(|e| format!("{label}: {e}"))?;
        self.check_hash(cell, label, &hash)
    }

    /// Checks one cell's report hash.
    ///
    /// # Errors
    ///
    /// The hash differs from the recorded one or from this run's first pass.
    pub fn check_hash(&mut self, cell: usize, label: &str, hash: &str) -> Result<(), String> {
        let first = self.first[cell].get_or_insert_with(|| hash.to_string());
        if first != hash {
            return Err(format!(
                "{label}: report hash {hash} differs from this run's first pass {first}"
            ));
        }
        match self.recorded.get(label) {
            Some(want) if want != hash => {
                Err(format!("{label}: report hash {hash} differs from recorded {want}"))
            }
            _ => Ok(()),
        }
    }

    /// How many cells have a recorded hash for this workload and seed.
    pub fn recorded_cells(&self) -> usize {
        self.recorded.len()
    }

    /// The first-pass hashes, in cell order (for re-recording).
    pub fn first_hashes(&self) -> &[Option<String>] {
        &self.first
    }
}

/// Parses the recorded-hash format into `(workload, seed, label, hash)`.
pub fn parse(text: &str) -> Vec<(String, u64, String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [w, s, label, hash] => {
                    Some((w.to_string(), s.parse().ok()?, label.to_string(), hash.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

/// Replaces the recorded lines of `workload` at `seed` in `text` with
/// `hashes` (label, hash), keeping every other line.
pub fn rerecord(text: &str, workload: &str, seed: u64, hashes: &[(String, String)]) -> String {
    let mut out: Vec<String> = text
        .lines()
        .filter(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            !(f.len() == 4 && f[0] == workload && f[1] == seed.to_string())
        })
        .map(str::to_string)
        .collect();
    out.extend(hashes.iter().map(|(label, hash)| format!("{workload} {seed} {label} {hash}")));
    out.join("\n") + "\n"
}

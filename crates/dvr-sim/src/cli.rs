//! The one command-line argument cursor.
//!
//! Every `dvrsim` subcommand and the `figures` harness walk their
//! arguments with an [`Args`] cursor, so a malformed command line has one
//! shape everywhere: a [`UsageError`] naming the flag, which the binary
//! reports as a single `error: …` line on stderr with exit status 2
//! ([`UsageError::exit`]).
//!
//! ```
//! use dvr_sim::cli::Args;
//!
//! let argv: Vec<String> = ["--size", "test", "--instrs", "1e5"].map(String::from).to_vec();
//! let mut a = Args::new("demo", &argv);
//! assert_eq!(a.next_arg(), Some("--size"));
//! assert_eq!(a.size().unwrap(), workloads::SizeClass::Test);
//! assert_eq!(a.next_arg(), Some("--instrs"));
//! let err = a.num::<u64>().unwrap_err();
//! assert_eq!(err.to_string(), "--instrs: invalid digit found in string");
//! ```

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

use sim_sample::Placement;
use workloads::{Benchmark, GraphInput, SizeClass};

use crate::config::Technique;

/// A malformed command line; the message names the offending flag.
#[derive(Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl UsageError {
    /// Prints the single `error: …` line on stderr and returns exit
    /// status 2.
    pub fn exit(&self) -> ExitCode {
        eprintln!("error: {self}");
        ExitCode::from(2)
    }
}

/// A cursor over one command's arguments: [`Args::next_arg`] yields each flag
/// (or positional operand) in turn, and the typed accessors consume the
/// flag's value.
pub struct Args<'a> {
    cmd: &'a str,
    args: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    /// A cursor over `args` for the command named `cmd` (used in the
    /// unknown-flag message).
    pub fn new(cmd: &'a str, args: &'a [String]) -> Self {
        Args { cmd, args, pos: 0 }
    }

    /// Advances to the next argument.
    pub fn next_arg(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.pos)?;
        self.pos += 1;
        Some(arg)
    }

    /// The argument [`Args::next_arg`] returned last.
    fn flag(&self) -> &'a str {
        self.pos.checked_sub(1).map_or("", |i| &self.args[i])
    }

    /// Takes the current flag's value.
    ///
    /// # Errors
    ///
    /// The flag is the last argument.
    pub fn value(&mut self) -> Result<&'a str, UsageError> {
        let flag = self.flag();
        self.next_arg().ok_or_else(|| UsageError(format!("{flag} needs a value")))
    }

    /// Takes the current flag's value through `parse`; a rejection is
    /// reported as `<flag>: <reason>`.
    ///
    /// # Errors
    ///
    /// The value is missing or `parse` rejects it.
    pub fn parse<T>(
        &mut self,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, UsageError> {
        let flag = self.flag();
        let v = self.value()?;
        parse(v).map_err(|e| UsageError(format!("{flag}: {e}")))
    }

    /// Takes the current flag's value as a number.
    ///
    /// # Errors
    ///
    /// The value is missing or not a number of type `T`.
    pub fn num<T: FromStr>(&mut self) -> Result<T, UsageError>
    where
        T::Err: fmt::Display,
    {
        self.parse(|v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// Takes a benchmark name ([`Benchmark::parse`]).
    ///
    /// # Errors
    ///
    /// The value is missing or names no benchmark.
    pub fn bench(&mut self) -> Result<Benchmark, UsageError> {
        self.parse(|v| Benchmark::parse(v).ok_or(format!("unknown benchmark '{v}'")))
    }

    /// Takes a graph-input name ([`GraphInput::parse`]).
    ///
    /// # Errors
    ///
    /// The value is missing or names no input.
    pub fn input(&mut self) -> Result<GraphInput, UsageError> {
        self.parse(|v| GraphInput::parse(v).ok_or(format!("unknown input '{v}'")))
    }

    /// Takes one technique ([`Technique::parse`]).
    ///
    /// # Errors
    ///
    /// The value is missing or is not a single technique.
    pub fn technique(&mut self) -> Result<Technique, UsageError> {
        self.parse(|v| Technique::parse(v).ok_or(format!("'{v}' is not a single technique")))
    }

    /// Takes a technique list: comma-separated techniques, where `all`
    /// stands for the baseline plus the Figure 7 set; duplicates are
    /// dropped, first occurrence wins.
    ///
    /// # Errors
    ///
    /// The value is missing, empty, or names an unknown technique.
    pub fn techniques(&mut self) -> Result<Vec<Technique>, UsageError> {
        self.parse(|v| {
            let mut out = Vec::new();
            for part in v.split(',').filter(|p| !p.is_empty()) {
                let ts = match Technique::parse(part) {
                    Some(t) => vec![t],
                    None if part == "all" => all_techniques(),
                    None => return Err(format!("unknown technique '{part}'")),
                };
                for t in ts {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
            if out.is_empty() {
                return Err(format!("no techniques in '{v}'"));
            }
            Ok(out)
        })
    }

    /// Takes a size class ([`SizeClass::parse`]).
    ///
    /// # Errors
    ///
    /// The value is missing or names no size class.
    pub fn size(&mut self) -> Result<SizeClass, UsageError> {
        self.parse(|v| SizeClass::parse(v).ok_or(format!("unknown size '{v}'")))
    }

    /// Takes a sampling placement: `systematic` or `random`.
    ///
    /// # Errors
    ///
    /// The value is missing or names no placement.
    pub fn placement(&mut self) -> Result<Placement, UsageError> {
        self.parse(|v| match v {
            "systematic" => Ok(Placement::Systematic),
            "random" => Ok(Placement::Random),
            _ => Err(format!("unknown placement '{v}'")),
        })
    }

    /// The error for an argument the command does not accept.
    pub fn unknown(&self) -> UsageError {
        UsageError(format!("unknown {} option '{}'", self.cmd, self.flag()))
    }
}

/// What `--technique all` means: the baseline plus the Figure 7 set.
pub fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::FIG7);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn errors_name_the_flag() {
        let v = argv(&["--seed", "x", "--bench", "nope", "--size"]);
        let mut a = Args::new("demo", &v);
        a.next_arg();
        assert_eq!(a.num::<u64>().unwrap_err().0, "--seed: invalid digit found in string");
        a.next_arg();
        assert_eq!(a.bench().unwrap_err().0, "--bench: unknown benchmark 'nope'");
        a.next_arg();
        assert_eq!(a.size().unwrap_err().0, "--size needs a value");
        assert_eq!(a.unknown().0, "unknown demo option '--size'");
        assert_eq!(a.next_arg(), None);
    }

    #[test]
    fn technique_lists_expand_all_and_deduplicate() {
        let v = argv(&["--technique", "dvr,all,ooo", "--technique", "all"]);
        let mut a = Args::new("demo", &v);
        a.next_arg();
        let ts = a.techniques().unwrap();
        assert_eq!(ts[0], Technique::Dvr);
        assert_eq!(ts.len(), all_techniques().len());
        a.next_arg();
        assert!(a.technique().is_err(), "'all' is not a single technique");
    }
}

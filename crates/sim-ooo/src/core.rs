//! The cycle-level out-of-order core timing model.
//!
//! Execution-driven, execute-at-fetch: the functional [`Cpu`] runs the
//! architecturally correct path at the fetch frontier; the timing model
//! tracks register dependencies, structural hazards (ROB/IQ/LSQ capacity,
//! functional units, L1 ports), memory latencies through the shared
//! [`MemoryHierarchy`], and branch-misprediction redirects (fetch stalls
//! from resolution plus the 15-cycle front-end refill).

use std::collections::VecDeque;

use sim_isa::{AluOp, Cpu, FxHashMap, Instr, MemAccess, Program, SparseMemory, NUM_REGS};
use sim_mem::{
    AccessClass, HitLevel, ImpConfig, ImpPrefetcher, MemoryHierarchy, PrefetchSource,
    StridePrefetcher,
};

use crate::branch::TagePredictor;
use crate::config::CoreConfig;
use crate::engine::{ArchSnapshot, EngineCtx, RunaheadEngine};
use crate::error::{DeadlockSnapshot, SimError};
use crate::sanitize::SanitizeReport;
use crate::stats::CoreStats;

/// A dynamic (fetched) instruction, carrying both functional outcomes and
/// timing state.
#[derive(Clone, Copy, Debug)]
pub struct DynInst {
    /// Global sequence number (program order).
    pub seq: u64,
    /// Static PC.
    pub pc: usize,
    /// The instruction.
    pub instr: Instr,
    /// Memory access performed (loads/stores).
    pub mem: Option<MemAccess>,
    /// Branch outcome for conditional branches.
    pub branch_taken: Option<bool>,
    /// Operand values, aligned with [`Instr::srcs`] order.
    pub src_values: [u64; 3],
    /// Value written to the destination register, if any.
    pub dst_value: Option<u64>,
    /// Whether the direction predictor mispredicted this branch.
    pub mispredicted: bool,
    /// Producer sequence numbers for each source operand.
    deps: [Option<u64>; 3],
    /// Functional-unit class, computed once at fetch (the issue scan reads
    /// it every cycle).
    class: FuClass,
    /// Issued to execution.
    issued: bool,
    /// Completion cycle (`u64::MAX` until issued).
    complete_at: u64,
}

impl DynInst {
    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.instr.is_load()
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        self.instr.is_store()
    }

    /// Completion cycle (meaningful once issued).
    pub fn complete_at(&self) -> u64 {
        self.complete_at
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FuClass {
    Alu,
    Mul,
    Div,
    Load,
    Store,
}

fn fu_class(instr: &Instr) -> FuClass {
    match instr {
        Instr::Load { .. } => FuClass::Load,
        Instr::Store { .. } => FuClass::Store,
        Instr::Alu { op, .. } | Instr::AluImm { op, .. } => match op {
            AluOp::Mul => FuClass::Mul,
            AluOp::Div | AluOp::Rem => FuClass::Div,
            _ => FuClass::Alu,
        },
        _ => FuClass::Alu,
    }
}

fn exec_latency(instr: &Instr) -> u64 {
    match instr {
        Instr::Alu { op, .. } | Instr::AluImm { op, .. } => op.latency() as u64,
        _ => 1,
    }
}

/// Live bookkeeping for an in-progress stepwise run: the state
/// [`OooCore::run`] used to keep on its own stack (instruction target,
/// wall-clock anchor, watchdog reference cycle), externalized so a
/// discrete-event scheduler can interleave cores cycle by cycle.
/// Obtain one from [`OooCore::begin_run`]; feed it to every
/// [`OooCore::step_cycle`] call for that run.
#[derive(Debug)]
pub struct StepSession {
    /// Stop once `stats.committed` reaches this absolute count.
    target: u64,
    /// Wall-clock anchor for the amortized budget check (`None` when the
    /// budget is disabled, so unbudgeted runs never touch the clock).
    wall_start: Option<std::time::Instant>,
    /// Cycle of the most recent commit, for the forward-progress watchdog.
    last_commit_cycle: u64,
}

/// Outcome of one [`OooCore::step_cycle`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// The core wants another cycle.
    Running,
    /// The instruction target was reached or the program halted and the
    /// pipeline drained; stop stepping this session.
    Done,
}

/// The out-of-order core.
///
/// Drive it with [`OooCore::run`], which simulates until the program halts
/// or an instruction budget is reached.
///
/// # Example
///
/// ```
/// use sim_isa::{Asm, Reg, SparseMemory};
/// use sim_mem::{HierarchyConfig, MemoryHierarchy};
/// use sim_ooo::{CoreConfig, NullEngine, OooCore};
///
/// let mut asm = Asm::new();
/// asm.li(Reg::R1, 4);
/// let top = asm.here();
/// asm.addi(Reg::R1, Reg::R1, -1);
/// asm.bnz(Reg::R1, top);
/// asm.halt();
/// let prog = asm.finish()?;
///
/// let mut core = OooCore::new(CoreConfig::default());
/// let mut mem = SparseMemory::new();
/// let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
/// let stats = core.run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000_000)?;
/// assert_eq!(stats.committed, 10); // li + 4x(addi+bnz) + halt
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    cpu: Cpu,
    bp: TagePredictor,
    stride_pf: Option<StridePrefetcher>,
    imp: Option<ImpPrefetcher>,

    cycle: u64,
    seq_next: u64,
    head_seq: u64,
    rob: VecDeque<DynInst>,
    /// Completion calendar aligned with `rob` (same push/pop order):
    /// `complete_at` once issued, `u64::MAX` before. Dependency checks walk
    /// this compact table instead of the full [`DynInst`] entries.
    sched: VecDeque<u64>,
    /// Issue-queue scan list: `(seq, blocking)` where `blocking` memoizes
    /// the producer that failed the last wakeup check (`u64::MAX` = none
    /// known). While that producer is still incomplete the scan skips the
    /// full dependency walk for this entry.
    unissued: Vec<(u64, u64)>,
    fetchq: VecDeque<DynInst>,
    rename: [Option<u64>; NUM_REGS],
    /// In-flight stores `(seq, addr, width)` for forwarding, in program order.
    pending_stores: VecDeque<(u64, u64, u64)>,
    /// Post-commit store buffer: recently retired store addresses still
    /// forwardable to younger loads (drained write combining).
    retired_stores: VecDeque<u64>,
    /// Multiplicity index over `retired_stores` so the forwarding check is
    /// a hash probe, not a 64-entry scan.
    retired_index: FxHashMap<u64, u32>,
    loads_in_rob: usize,
    stores_in_rob: usize,

    fetch_blocked_on: Option<u64>,
    fetch_stall_until: u64,
    commit_block_until: u64,
    stall_episode_armed: bool,
    rob_full_counted_this_cycle: bool,
    /// Cycle bodies actually executed by [`OooCore::step_cycle`]; equals
    /// the cycle count minus the quiescent cycles skipped.
    stepped: u64,
    /// Sanitizer only: the wake-up cycle predicted after the last
    /// quiescent cycle and the stall counters that ticked on it. Every
    /// cycle before the wake-up is checked to repeat that cycle exactly.
    idle_until: (u64, [u64; 2]),
    /// Set once [`OooCore::run`] returns; a second call fails with
    /// [`SimError::CoreReused`] instead of silently corrupting stats.
    finished: bool,

    /// Invariant-sanitizer ledger (populated when `cfg.sanitize` is set).
    san: SanitizeReport,
    stats: CoreStats,
}

impl OooCore {
    /// Creates a core in its reset state.
    pub fn new(cfg: CoreConfig) -> Self {
        OooCore {
            cfg,
            cpu: Cpu::new(),
            bp: TagePredictor::default(),
            stride_pf: cfg.stride_prefetcher.then(StridePrefetcher::paper_default),
            imp: cfg.imp_prefetcher.then(|| ImpPrefetcher::new(ImpConfig::default())),
            cycle: 0,
            seq_next: 0,
            head_seq: 0,
            rob: VecDeque::with_capacity(cfg.rob_size + 1),
            sched: VecDeque::with_capacity(cfg.rob_size + 1),
            unissued: Vec::with_capacity(cfg.rob_size + 1),
            fetchq: VecDeque::new(),
            rename: [None; NUM_REGS],
            pending_stores: VecDeque::new(),
            retired_stores: VecDeque::new(),
            retired_index: FxHashMap::default(),
            loads_in_rob: 0,
            stores_in_rob: 0,
            fetch_blocked_on: None,
            fetch_stall_until: 0,
            commit_block_until: 0,
            stall_episode_armed: true,
            rob_full_counted_this_cycle: false,
            stepped: 0,
            idle_until: (0, [0; 2]),
            finished: false,
            san: SanitizeReport::default(),
            stats: CoreStats::default(),
        }
    }

    /// Creates a core whose architectural CPU and branch predictor start
    /// from the given (typically checkpointed or warmed) state instead of
    /// reset. Microarchitectural state (ROB, queues, cycle counter) still
    /// starts empty — this is how the sampling driver threads one
    /// architectural thread through a sequence of detailed intervals.
    pub fn with_state(cfg: CoreConfig, cpu: Cpu, bp: TagePredictor) -> Self {
        OooCore { cpu, bp, ..OooCore::new(cfg) }
    }

    /// Consumes the core and returns the architectural CPU and branch
    /// predictor, so a sampling driver can carry them into the next
    /// fast-forward or detailed interval.
    pub fn into_state(self) -> (Cpu, TagePredictor) {
        (self.cpu, self.bp)
    }

    /// The configuration in use.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The branch predictor (for inspection).
    pub fn branch_predictor(&self) -> &TagePredictor {
        &self.bp
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles whose pipeline stages were actually simulated. Quiescent
    /// spans the core jumps over are not counted, so this is at most
    /// [`OooCore::cycle`], and equal to it under [`CoreConfig::sanitize`],
    /// which steps every cycle. A deterministic host-work counter; it is
    /// not part of [`CoreStats`].
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped
    }

    /// Seals the core and opens a [`StepSession`] covering `max_instrs`
    /// committed instructions, for scheduler-driven execution: a
    /// discrete-event harness calls [`OooCore::step_cycle`] once per event,
    /// re-arming the core at [`OooCore::cycle`], and
    /// [`OooCore::finish_run`] when the session reports [`Step::Done`].
    /// [`OooCore::run`] is exactly this sequence, so a stepped core is
    /// cycle-identical to a looped one.
    ///
    /// # Errors
    ///
    /// [`SimError::CoreReused`] if the core already completed a sealed run.
    pub fn begin_run(&mut self, max_instrs: u64) -> Result<StepSession, SimError> {
        if self.finished {
            return Err(SimError::CoreReused);
        }
        self.finished = true;
        Ok(self.open_session(max_instrs))
    }

    fn open_session(&self, target: u64) -> StepSession {
        StepSession {
            target,
            wall_start: (self.cfg.max_wall_ms != 0).then(std::time::Instant::now),
            // Starts at the current cycle (not 0) so a resumed segment
            // doesn't inherit phantom commit-free cycles from earlier
            // segments.
            last_commit_cycle: self.cycle,
        }
    }

    /// End-of-run accounting for a stepped run: the deep sanitizer sweep,
    /// the final cycle count, and [`MemoryHierarchy::finalize`]. Call once
    /// per core when its [`StepSession`] ends (on [`Step::Done`] or an
    /// error); [`OooCore::run`] does this itself.
    pub fn finish_run(&mut self, hier: &mut MemoryHierarchy) {
        if self.cfg.sanitize {
            self.sanitize_deep(hier);
        }
        self.stats.cycles = self.cycle;
        hier.finalize();
    }

    /// Runs the program until it halts or `max_instrs` commit.
    ///
    /// Returns the accumulated statistics.
    ///
    /// # Errors
    ///
    /// Every failure mode is reported as a [`SimError`] instead of a
    /// panic: a functional executor fault ([`SimError::ExecFault`]), a
    /// wedged pipeline caught by the forward-progress watchdog
    /// ([`SimError::Deadlock`], with a diagnostic snapshot), an exceeded
    /// cycle/wall-clock/memory budget, a fatal injected fault from the
    /// fault-injection harness, or a second call on the same core
    /// ([`SimError::CoreReused`]). Statistics up to the failure point stay
    /// readable through [`OooCore::stats`] either way.
    pub fn run<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        max_instrs: u64,
    ) -> Result<&CoreStats, SimError> {
        let mut session = self.begin_run(max_instrs)?;
        let result = self.drive(prog, mem, hier, engine, &mut session);
        // Finalization happens on both paths so partial statistics are
        // coherent (cycles set, unused prefetches accounted) even when the
        // run failed.
        self.finish_run(hier);
        result.map(|()| &self.stats)
    }

    /// Like [`OooCore::run`], but **resumable**: commits `max_instrs`
    /// *more* instructions (or fewer, if the program halts) and returns
    /// with the pipeline live, so a later `run_segment` call continues the
    /// same warm pipeline and cycle stream. Sampled simulation measures an
    /// interval in the very pipeline its detailed warmup filled — tearing
    /// the core down between warmup and measurement would charge every
    /// interval a pipeline refill the uninterrupted run never pays.
    ///
    /// Statistics are cumulative across segments; callers measure a
    /// segment by diffing [`OooCore::stats`] snapshots. End-of-run
    /// accounting ([`MemoryHierarchy::finalize`]) is *not* performed here —
    /// run it once when detailed execution for the region ends.
    ///
    /// # Errors
    ///
    /// Exactly the failure modes of [`OooCore::run`], except that only a
    /// core sealed by a completed [`OooCore::run`] reports
    /// [`SimError::CoreReused`].
    pub fn run_segment<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        max_instrs: u64,
    ) -> Result<&CoreStats, SimError> {
        if self.finished {
            return Err(SimError::CoreReused);
        }
        let target = self.stats.committed.saturating_add(max_instrs);
        let mut session = self.open_session(target);
        let result = self.drive(prog, mem, hier, engine, &mut session);
        if self.cfg.sanitize {
            self.sanitize_deep(hier);
        }
        self.stats.cycles = self.cycle;
        result.map(|()| &self.stats)
    }

    /// Steps the session to completion over [`OooCore::step_cycle`], which
    /// also skips the quiescent spans, so `run` and `run_segment` get the
    /// same idle-cycle fast-forward as a scheduler-driven core.
    fn drive<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        session: &mut StepSession,
    ) -> Result<(), SimError> {
        loop {
            match self.step_cycle(prog, mem, hier, engine, session)? {
                Step::Running => {}
                Step::Done => return Ok(()),
            }
        }
    }

    /// Advances the core by one cycle under an open [`StepSession`], then
    /// past any quiescent span that follows it.
    ///
    /// The pipeline walks stages in reverse order (commit → issue →
    /// dispatch → fetch) so a value produced this cycle is consumed next
    /// cycle, then polls faults, sanitizer sweeps, the forward-progress
    /// watchdog, and the cycle/wall/memory budgets. A cycle in which
    /// nothing committed, issued, dispatched or fetched and no engine hook
    /// fired is *quiescent*: every following cycle repeats it until the
    /// earliest cycle at which a pending event lands (an instruction
    /// completes, a commit block or redirect stall ends, a watchdog or
    /// budget deadline, or the next amortized wall-clock probe), so the
    /// core jumps straight to the cycle before that wake-up and bulk-adds
    /// the stall counters the quiescent cycle ticked. Afterwards
    /// [`OooCore::cycle`] is the last cycle simulated, and the next call
    /// simulates `cycle() + 1`. Under [`CoreConfig::sanitize`] the core does
    /// not jump: it steps through the span and checks that every cycle of
    /// it really is quiescent.
    ///
    /// A discrete-event scheduler calls this once per `(tick, core)` event
    /// and re-arms the core at tick [`OooCore::cycle`]; interleaving cores
    /// between calls is safe because all cross-core state lives in the
    /// shared LLC.
    ///
    /// Returns [`Step::Done`] when the session's instruction target is
    /// reached or the program has halted and drained; the caller must then
    /// run [`OooCore::finish_run`] (or stop stepping, for segments).
    ///
    /// # Errors
    ///
    /// The failure modes of [`OooCore::run`]; the session is dead after an
    /// error.
    pub fn step_cycle<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
        session: &mut StepSession,
    ) -> Result<Step, SimError> {
        if self.stats.committed >= session.target {
            return Ok(Step::Done);
        }
        self.cycle += 1;
        self.stepped += 1;
        self.rob_full_counted_this_cycle = false;
        let committed_before = self.stats.committed;
        let progress_before = self.progress();
        let stalls_before = self.stall_counters();

        self.commit(hier);
        self.issue(prog, mem, hier, engine);
        self.dispatch(prog, mem, hier, engine);
        self.fetch(prog, mem)?;

        if let Some(ev) = hier.take_fault() {
            return Err(SimError::InjectedFault(ev));
        }

        if self.cfg.sanitize {
            self.sanitize_cycle(hier);
            // The per-set cache sweeps walk every way; amortize them.
            if self.cycle & 0xFFF == 0 {
                self.sanitize_deep(hier);
            }
        }

        if self.stats.committed > committed_before {
            session.last_commit_cycle = self.cycle;
        } else if self.cfg.watchdog_cycles != 0
            && self.cycle - session.last_commit_cycle >= self.cfg.watchdog_cycles
        {
            return Err(SimError::Deadlock(Box::new(
                self.snapshot(hier, session.last_commit_cycle),
            )));
        }

        if self.cfg.max_cycles != 0 && self.cycle >= self.cfg.max_cycles {
            return Err(SimError::CycleBudgetExceeded {
                cycle: self.cycle,
                budget: self.cfg.max_cycles,
            });
        }
        // The wall-clock and footprint checks are amortized: both cost
        // more than a cycle of simulation, so probing every cycle would
        // dominate the hot loop.
        if self.cycle & 0xFFFF == 0 {
            if let Some(start) = session.wall_start {
                let elapsed_ms = start.elapsed().as_millis() as u64;
                if elapsed_ms > self.cfg.max_wall_ms {
                    return Err(SimError::WallClockExceeded {
                        elapsed_ms,
                        budget_ms: self.cfg.max_wall_ms,
                    });
                }
            }
            if self.cfg.mem_cap_bytes != 0 {
                let bytes = mem.footprint_bytes() as u64;
                if bytes > self.cfg.mem_cap_bytes {
                    return Err(SimError::MemoryCapExceeded { bytes, cap: self.cfg.mem_cap_bytes });
                }
            }
        }

        if self.cpu.is_halted() && self.fetchq.is_empty() && self.rob.is_empty() {
            return Ok(Step::Done);
        }

        let quiescent = self.progress() == progress_before;
        let after = self.stall_counters();
        let ticked = [after[0] - stalls_before[0], after[1] - stalls_before[1]];
        let wake = if quiescent { self.wake_cycle(session) } else { 0 };
        if self.cfg.sanitize {
            // Lock-step oracle for the skip below: a cycle inside a
            // predicted quiescent span must be quiescent, tick the same
            // stall counters, and predict the same wake-up.
            let (until, expect) = self.idle_until;
            if self.cycle < until {
                let cycle = self.cycle;
                self.san.check(quiescent && ticked == expect && wake == until, || {
                    format!(
                        "cycle {cycle}: predicted quiescent until {until}, but the core \
                         progressed, ticked stall counters {ticked:?} (expected {expect:?}) \
                         or predicted wake-up {wake}"
                    )
                });
            }
            if quiescent {
                self.idle_until = (wake, ticked);
            }
        } else if quiescent {
            let skipped = wake - 1 - self.cycle;
            self.cycle = wake - 1;
            self.stats.rob_full_stall_cycles += ticked[0] * skipped;
            self.stats.commit_blocked_engine_cycles += ticked[1] * skipped;
        }
        Ok(Step::Running)
    }

    /// Markers of pipeline progress. A cycle that leaves all of them
    /// unchanged committed, fetched, dispatched and issued nothing and
    /// fired no engine hook: `on_dispatch` and `override_load` only run
    /// alongside a dispatch or an issue, and `on_full_rob_stall` bumps
    /// `full_rob_stall_events`. Commit moves the head and the ROB length
    /// in step, so their sum moves only on dispatch; with no dispatch, the
    /// scan list shrinks only on issue.
    fn progress(&self) -> [u64; 5] {
        [
            self.stats.committed,
            self.seq_next,
            self.head_seq + self.rob.len() as u64,
            self.unissued.len() as u64,
            self.stats.full_rob_stall_events,
        ]
    }

    /// The stall counters a quiescent cycle can tick, in the order the
    /// skip bulk-adds them.
    fn stall_counters(&self) -> [u64; 2] {
        [self.stats.rob_full_stall_cycles, self.stats.commit_blocked_engine_cycles]
    }

    /// After a quiescent cycle, the earliest later cycle at which anything
    /// can change. Every condition the stages test against the clock flips
    /// at one of these: an instruction completes (the calendar), the
    /// engine's commit block or the redirect stall ends, the watchdog or
    /// the cycle budget fires, or the amortized wall-clock and memory-cap
    /// probes run. Memory completion times are fixed when a request is
    /// made and engines act only from pipeline hooks, so nothing else can
    /// land in between — not even another core sharing the LLC.
    fn wake_cycle(&self, session: &StepSession) -> u64 {
        let now = self.cycle;
        let mut wake = (now | 0xFFFF) + 1;
        for &t in self.sched.iter().chain([&self.commit_block_until, &self.fetch_stall_until]) {
            if t > now {
                wake = wake.min(t);
            }
        }
        if self.cfg.watchdog_cycles != 0 {
            wake = wake.min(session.last_commit_cycle.saturating_add(self.cfg.watchdog_cycles));
        }
        if self.cfg.max_cycles != 0 {
            wake = wake.min(self.cfg.max_cycles);
        }
        wake
    }

    /// The invariant-sanitizer ledger (populated when
    /// [`CoreConfig::sanitize`] is set).
    pub fn sanitize_report(&self) -> &SanitizeReport {
        &self.san
    }

    /// Mutable ledger access, for folding in checks the core cannot run
    /// itself (the runner's architectural-state digest diff).
    pub fn sanitize_report_mut(&mut self) -> &mut SanitizeReport {
        &mut self.san
    }

    /// Instructions the functional executor has retired at the fetch
    /// frontier (the replay length for the digest check).
    pub fn functional_retired(&self) -> u64 {
        self.cpu.retired()
    }

    /// The functional executor's architectural register file.
    pub fn functional_regs(&self) -> [u64; NUM_REGS] {
        self.cpu.regs()
    }

    /// One read-only structural sweep of the pipeline. Every condition is
    /// computed from `&self` state; findings go to the ledger only, so the
    /// sweep cannot perturb timing.
    fn sanitize_cycle(&mut self, hier: &MemoryHierarchy) {
        // Take the ledger out so the checks below can borrow `self` freely.
        let mut san = std::mem::take(&mut self.san);
        let cycle = self.cycle;

        // ROB / completion-calendar alignment and capacity.
        san.check(self.rob.len() == self.sched.len(), || {
            format!(
                "cycle {cycle}: rob len {} != completion calendar len {}",
                self.rob.len(),
                self.sched.len()
            )
        });
        san.check(self.rob.len() <= self.cfg.rob_size, || {
            format!("cycle {cycle}: rob holds {} > {} entries", self.rob.len(), self.cfg.rob_size)
        });

        // Age ordering: sequence numbers are contiguous from the head, the
        // calendar mirrors each entry's completion time, and nothing is
        // "complete" without having issued.
        let mut loads = 0usize;
        let mut stores = 0usize;
        let mut unissued_in_rob = 0usize;
        for (i, di) in self.rob.iter().enumerate() {
            san.check(di.seq == self.head_seq + i as u64, || {
                format!(
                    "cycle {cycle}: rob[{i}] seq {} breaks age order (head seq {})",
                    di.seq, self.head_seq
                )
            });
            san.check(self.sched[i] == di.complete_at, || {
                format!(
                    "cycle {cycle}: calendar[{i}] = {} but rob entry completes at {}",
                    self.sched[i], di.complete_at
                )
            });
            san.check(di.issued || di.complete_at == u64::MAX, || {
                format!("cycle {cycle}: rob[{i}] has a completion time but never issued")
            });
            loads += di.is_load() as usize;
            stores += di.is_store() as usize;
            unissued_in_rob += !di.issued as usize;
        }

        // LQ/SQ counters balance against the ROB contents and capacity.
        san.check(loads == self.loads_in_rob, || {
            format!("cycle {cycle}: LQ counter {} but {loads} loads in rob", self.loads_in_rob)
        });
        san.check(stores == self.stores_in_rob, || {
            format!("cycle {cycle}: SQ counter {} but {stores} stores in rob", self.stores_in_rob)
        });
        san.check(self.loads_in_rob <= self.cfg.lq_size, || {
            format!("cycle {cycle}: LQ over capacity: {} > {}", self.loads_in_rob, self.cfg.lq_size)
        });
        san.check(self.stores_in_rob <= self.cfg.sq_size, || {
            format!(
                "cycle {cycle}: SQ over capacity: {} > {}",
                self.stores_in_rob, self.cfg.sq_size
            )
        });

        // The issue-queue scan list holds exactly the unissued ROB entries.
        san.check(unissued_in_rob == self.unissued.len(), || {
            format!(
                "cycle {cycle}: {} unissued rob entries but {} scan-list entries",
                unissued_in_rob,
                self.unissued.len()
            )
        });
        for &(seq, _) in &self.unissued {
            let idx = seq.wrapping_sub(self.head_seq) as usize;
            let ok = seq >= self.head_seq && idx < self.rob.len() && !self.rob[idx].issued;
            san.check(ok, || {
                format!("cycle {cycle}: scan-list seq {seq} is not a live unissued entry")
            });
        }

        // Rename table points at live producers of the right register.
        for (r, slot) in self.rename.iter().enumerate() {
            if let Some(seq) = *slot {
                let idx = seq.wrapping_sub(self.head_seq) as usize;
                let ok = seq >= self.head_seq
                    && idx < self.rob.len()
                    && self.rob[idx].instr.dst().map(|d| d.index()) == Some(r);
                san.check(ok, || {
                    format!("cycle {cycle}: rename[r{r}] = {seq} is not a live producer of r{r}")
                });
            }
        }

        // In-flight stores: program order, alive, and actually stores.
        let mut prev: Option<u64> = None;
        for &(seq, _, _) in &self.pending_stores {
            let idx = seq.wrapping_sub(self.head_seq) as usize;
            let ok = seq >= self.head_seq && idx < self.rob.len() && self.rob[idx].is_store();
            san.check(ok, || format!("cycle {cycle}: pending store seq {seq} is not a live store"));
            san.check(prev.is_none_or(|p| p < seq), || {
                format!("cycle {cycle}: pending stores out of program order at seq {seq}")
            });
            prev = Some(seq);
        }

        // Post-commit store buffer and its multiplicity index agree.
        san.check(self.retired_stores.len() <= 64, || {
            format!("cycle {cycle}: post-commit store buffer overflow")
        });
        let indexed: u32 = self.retired_index.values().sum();
        san.check(indexed as usize == self.retired_stores.len(), || {
            format!(
                "cycle {cycle}: retired-store index counts {indexed} but buffer holds {}",
                self.retired_stores.len()
            )
        });

        // MSHR allocate/release balance.
        san.absorb(hier.check_invariants(cycle, false));
        self.san = san;
    }

    /// The amortized sweep: per-set cache consistency on top of the MSHR
    /// balance. Run every 4 Ki cycles and once at the end of the run.
    fn sanitize_deep(&mut self, hier: &MemoryHierarchy) {
        let mut san = std::mem::take(&mut self.san);
        san.absorb(hier.check_invariants(self.cycle, true));
        self.san = san;
    }

    /// Captures the pipeline state for a deadlock diagnostic.
    fn snapshot(&self, hier: &MemoryHierarchy, last_commit_cycle: u64) -> DeadlockSnapshot {
        DeadlockSnapshot {
            cycle: self.cycle,
            last_commit_cycle,
            committed: self.stats.committed,
            rob_len: self.rob.len(),
            rob_head: self.rob.front().map(|di| {
                format!(
                    "seq {} pc {} {:?} (issued: {}, complete_at: {})",
                    di.seq, di.pc, di.instr, di.issued, di.complete_at
                )
            }),
            iq_unissued: self.unissued.len(),
            fetchq_len: self.fetchq.len(),
            mshrs_in_use: hier.mshrs_in_use(self.cycle),
            dram_calendar_depth: hier.dram_calendar_depth(),
        }
    }

    fn commit(&mut self, hier: &mut MemoryHierarchy) {
        // Engine-imposed commit block (VR delayed termination).
        if self.commit_block_until > self.cycle {
            if let Some(head) = self.rob.front() {
                if head.issued && head.complete_at <= self.cycle {
                    self.stats.commit_blocked_engine_cycles += 1;
                }
            }
            return;
        }
        let mut n = 0;
        while n < self.cfg.width {
            let Some(head) = self.rob.front() else { break };
            if !head.issued || head.complete_at > self.cycle {
                break;
            }
            let di = self.rob.pop_front().expect("head exists");
            self.sched.pop_front();
            self.head_seq += 1;
            if let Some(dst) = di.instr.dst() {
                if self.rename[dst.index()] == Some(di.seq) {
                    self.rename[dst.index()] = None;
                }
            }
            if di.is_load() {
                self.loads_in_rob -= 1;
            }
            if di.is_store() {
                self.stores_in_rob -= 1;
                let m = di.mem.expect("store has a memory access");
                hier.store(self.cycle, m.addr, AccessClass::Demand);
                // Stores commit in order; move the forwarding entry into the
                // post-commit store buffer.
                if let Some(pos) = self.pending_stores.iter().position(|(s, _, _)| *s == di.seq) {
                    self.pending_stores.remove(pos);
                }
                self.retired_stores.push_back(m.addr);
                *self.retired_index.entry(m.addr).or_insert(0) += 1;
                if self.retired_stores.len() > 64 {
                    let old = self.retired_stores.pop_front().expect("len > 64");
                    let n = self.retired_index.get_mut(&old).expect("indexed");
                    *n -= 1;
                    if *n == 0 {
                        self.retired_index.remove(&old);
                    }
                }
            }
            if di.instr.is_cond_branch() {
                self.stats.cond_branches += 1;
                if di.mispredicted {
                    self.stats.branch_mispredicts += 1;
                }
            }
            self.stats.committed += 1;
            n += 1;
        }
    }

    fn issue<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
    ) {
        let mut slots = self.cfg.issue_width;
        let mut alu = self.cfg.int_alu;
        let mut mul = self.cfg.int_mul;
        let mut div = self.cfg.int_div;
        let mut ld = self.cfg.load_ports;
        let mut st = self.cfg.store_ports;

        // Single compacting pass over the scan list: entries that stay
        // unissued are written back at `w`, issued ones are dropped. All
        // skip conditions below are side-effect-free, so the set of
        // instructions issued each cycle — and therefore every timing
        // outcome — is identical to checking them in any other order.
        let len = self.unissued.len();
        let mut r = 0;
        let mut w = 0;
        let mut scanned = 0;
        while r < len && scanned < self.cfg.iq_size && slots > 0 {
            scanned += 1;
            let (seq, blocking) = self.unissued[r];
            let idx = (seq - self.head_seq) as usize;

            // Wakeup filter: while the producer that blocked this entry on
            // the previous scan is still incomplete, the full dependency
            // walk cannot pass — skip without touching the ROB entry.
            if blocking != u64::MAX
                && blocking >= self.head_seq
                && self.sched[(blocking - self.head_seq) as usize] > self.cycle
            {
                self.unissued[w] = (seq, blocking);
                w += 1;
                r += 1;
                continue;
            }

            // Check functional-unit availability for this class.
            let class = self.rob[idx].class;
            let unit = match class {
                FuClass::Alu => &mut alu,
                FuClass::Mul => &mut mul,
                FuClass::Div => &mut div,
                FuClass::Load => &mut ld,
                FuClass::Store => &mut st,
            };
            if *unit == 0 {
                self.unissued[w] = (seq, blocking);
                w += 1;
                r += 1;
                continue;
            }

            if let Some(dep) = self.first_unready_dep(idx) {
                self.unissued[w] = (seq, dep);
                w += 1;
                r += 1;
                continue;
            }

            // Loads: memory-dependence check against older in-flight stores.
            let mut forward = false;
            if class == FuClass::Load {
                match self.store_dependence(seq, self.rob[idx].mem.expect("load access").addr) {
                    StoreDep::None => {}
                    StoreDep::Forward => forward = true,
                    StoreDep::NotReady => {
                        self.unissued[w] = (seq, blocking);
                        w += 1;
                        r += 1;
                        continue;
                    }
                }
            }

            // Issue it.
            *unit -= 1;
            slots -= 1;
            r += 1;
            let cycle = self.cycle;
            let di = &mut self.rob[idx];
            di.issued = true;
            let instr = di.instr;
            let m = di.mem;
            let pcv = di.pc;
            let complete_at = if class == FuClass::Load {
                let m = m.expect("load access");
                self.stats.loads += 1;
                if forward {
                    self.stats.store_forwards += 1;
                    cycle + 1
                } else {
                    let mut ctx =
                        EngineCtx { cycle, prog, frontier: ArchSnapshot::of(&self.cpu), mem, hier };
                    match engine.override_load(&mut ctx, m.addr) {
                        Some(lat) => cycle + lat,
                        None => {
                            let acc = hier.load(cycle, m.addr, AccessClass::Demand);
                            // Hardware prefetchers train on demand loads.
                            if let Some(sp) = &mut self.stride_pf {
                                for &p in sp.train(pcv, m.addr).prefetches() {
                                    hier.prefetch(cycle, p, PrefetchSource::Stride);
                                }
                            }
                            if let Some(imp) = &mut self.imp {
                                let was_miss = acc.level != HitLevel::L1;
                                for p in
                                    imp.observe_load(pcv, m.addr, m.value, m.width, was_miss, mem)
                                {
                                    hier.prefetch(cycle, p, PrefetchSource::Imp);
                                }
                            }
                            acc.complete_at
                        }
                    }
                }
            } else if class == FuClass::Store {
                self.stats.stores += 1;
                cycle + 1
            } else {
                cycle + exec_latency(&instr)
            };
            let di = &mut self.rob[idx];
            di.complete_at = complete_at;
            self.sched[idx] = complete_at;

            // A resolving mispredicted branch redirects fetch.
            if di.mispredicted && self.fetch_blocked_on == Some(seq) {
                self.fetch_stall_until = complete_at + self.cfg.frontend_penalty;
                self.fetch_blocked_on = None;
            }
        }
        if r > w {
            self.unissued.copy_within(r..len, w);
            self.unissued.truncate(w + (len - r));
        }
    }

    /// First source operand whose producer has not completed, if any
    /// (`None` means the instruction is ready to issue).
    fn first_unready_dep(&self, idx: usize) -> Option<u64> {
        for dep in self.rob[idx].deps.iter().flatten() {
            if *dep >= self.head_seq && self.sched[(*dep - self.head_seq) as usize] > self.cycle {
                return Some(*dep);
            }
        }
        None
    }

    fn store_dependence(&self, load_seq: u64, addr: u64) -> StoreDep {
        // Scan youngest-first for the most recent older store to this address.
        for (sseq, saddr, _) in self.pending_stores.iter().rev() {
            if *sseq >= load_seq {
                continue;
            }
            if *saddr == addr {
                let idx = (*sseq - self.head_seq) as usize;
                return if self.sched[idx] <= self.cycle {
                    StoreDep::Forward
                } else {
                    StoreDep::NotReady
                };
            }
        }
        if self.retired_index.contains_key(&addr) {
            return StoreDep::Forward;
        }
        StoreDep::None
    }

    fn dispatch<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
    ) {
        if self.rob.len() < self.cfg.rob_size {
            self.stall_episode_armed = true;
        }
        let mut n = 0;
        while n < self.cfg.width {
            if self.fetchq.is_empty() {
                break;
            }
            let next_is_load = self.fetchq.front().is_some_and(DynInst::is_load);
            let next_is_store = self.fetchq.front().is_some_and(DynInst::is_store);
            // The instruction window is full when the ROB — or, for
            // load-heavy code, the LQ/SQ — cannot accept the next
            // instruction. All three back-pressure dispatch and constitute
            // the classic runahead trigger when a load miss blocks the head.
            let window_full = self.rob.len() >= self.cfg.rob_size
                || (next_is_load && self.loads_in_rob >= self.cfg.lq_size)
                || (next_is_store && self.stores_in_rob >= self.cfg.sq_size);
            if window_full {
                self.note_window_full(prog, mem, hier, engine);
                break;
            }

            let mut di = self.fetchq.pop_front().expect("nonempty");
            for (k, r) in di.instr.srcs().enumerate() {
                di.deps[k] = self.rename[r.index()];
            }
            if let Some(dst) = di.instr.dst() {
                self.rename[dst.index()] = Some(di.seq);
            }
            if di.is_load() {
                self.loads_in_rob += 1;
            }
            if di.is_store() {
                self.stores_in_rob += 1;
                let m = di.mem.expect("store access");
                self.pending_stores.push_back((di.seq, m.addr, m.width));
            }

            {
                let mut ctx = EngineCtx {
                    cycle: self.cycle,
                    prog,
                    frontier: ArchSnapshot::of(&self.cpu),
                    mem,
                    hier,
                };
                engine.on_dispatch(&mut ctx, &di);
            }

            self.unissued.push((di.seq, u64::MAX));
            self.sched.push_back(u64::MAX);
            self.rob.push_back(di);
            n += 1;
        }
    }

    fn note_window_full<E: RunaheadEngine + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &SparseMemory,
        hier: &mut MemoryHierarchy,
        engine: &mut E,
    ) {
        if !self.rob_full_counted_this_cycle {
            self.stats.rob_full_stall_cycles += 1;
            self.rob_full_counted_this_cycle = true;
        }
        let Some(head) = self.rob.front() else { return };
        // The classic runahead trigger: a *long-latency* load blocks the
        // head (an L2-hit blip does not send the core into runahead).
        let head_pending_load = head.is_load() && head.issued && head.complete_at > self.cycle + 30;
        if head_pending_load && self.stall_episode_armed {
            self.stall_episode_armed = false;
            self.stats.full_rob_stall_events += 1;
            let head_complete = head.complete_at;
            let mut ctx = EngineCtx {
                cycle: self.cycle,
                prog,
                frontier: ArchSnapshot::of(&self.cpu),
                mem,
                hier,
            };
            let block = engine.on_full_rob_stall(&mut ctx, head_complete);
            self.commit_block_until = self.commit_block_until.max(block);
        }
    }

    fn fetch(&mut self, prog: &Program, mem: &mut SparseMemory) -> Result<(), SimError> {
        if self.cpu.is_halted()
            || self.fetch_blocked_on.is_some()
            || self.cycle < self.fetch_stall_until
        {
            return Ok(());
        }
        let mut n = 0;
        while n < self.cfg.width && self.fetchq.len() < self.cfg.fetch_queue {
            let pc = self.cpu.pc();
            let Some(instr) = prog.fetch(pc).copied() else {
                // Off the end: the functional step reports Halted for a
                // clean fall-through and PcOutOfRange for a wild jump.
                match self.cpu.step(prog, mem) {
                    Err(e) => {
                        return Err(SimError::ExecFault { pc, cycle: self.cycle, source: e });
                    }
                    Ok(_) => break,
                }
            };
            let mut src_values = [0u64; 3];
            for (k, r) in instr.srcs().enumerate() {
                src_values[k] = self.cpu.reg(r);
            }
            match self.cpu.step(prog, mem) {
                Ok(sim_isa::StepEvent::Executed(step)) => {
                    let mut di = DynInst {
                        seq: self.seq_next,
                        pc,
                        instr: step.instr,
                        mem: step.mem,
                        branch_taken: step.branch_taken,
                        src_values,
                        dst_value: step.dst_value,
                        mispredicted: false,
                        deps: [None; 3],
                        class: fu_class(&step.instr),
                        issued: false,
                        complete_at: u64::MAX,
                    };
                    self.seq_next += 1;
                    let mut stop = false;
                    if let Some(taken) = step.branch_taken {
                        let predicted = self.bp.predict(pc);
                        self.bp.update(pc, taken, predicted);
                        if predicted != taken {
                            di.mispredicted = true;
                            self.fetch_blocked_on = Some(di.seq);
                            stop = true;
                        }
                    }
                    self.fetchq.push_back(di);
                    n += 1;
                    if stop {
                        break;
                    }
                }
                Ok(sim_isa::StepEvent::Halted) => break,
                Err(e) => return Err(SimError::ExecFault { pc, cycle: self.cycle, source: e }),
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StoreDep {
    /// No older in-flight store to this address.
    None,
    /// An older store has executed: forward its data.
    Forward,
    /// An older store to the same address has not executed yet.
    NotReady,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use sim_isa::{Asm, Reg};
    use sim_mem::HierarchyConfig;

    fn run_program(prog: &Program, mem: &mut SparseMemory, max: u64) -> CoreStats {
        let mut core = OooCore::new(CoreConfig::default());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        *core.run(prog, mem, &mut hier, &mut NullEngine, max).expect("run failed")
    }

    #[test]
    fn straight_line_alu_reaches_high_ipc() {
        let mut asm = Asm::new();
        // 64 independent chains of adds interleaved: plenty of ILP.
        for i in 0..500 {
            let r = Reg::from_index(1 + (i % 8)).unwrap();
            asm.addi(r, r, 1);
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let stats = run_program(&prog, &mut mem, 1_000_000);
        assert_eq!(stats.committed, 501);
        assert!(stats.ipc() > 3.0, "IPC {} too low for pure ILP", stats.ipc());
    }

    #[test]
    fn serial_dependency_chain_limits_ipc() {
        let mut asm = Asm::new();
        for _ in 0..500 {
            asm.addi(Reg::R1, Reg::R1, 1); // one long chain
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let stats = run_program(&prog, &mut mem, 1_000_000);
        assert!(stats.ipc() < 1.2, "serial chain must be ~1 IPC, got {}", stats.ipc());
    }

    #[test]
    fn program_result_is_architecturally_correct() {
        // Timing model must not perturb functional results.
        let mut asm = Asm::new();
        let (acc, i, n, t, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        asm.li(acc, 0);
        asm.li(i, 0);
        asm.li(n, 100);
        let top = asm.here();
        asm.mul(t, i, i);
        asm.add(acc, acc, t);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.li(Reg::R8, 0x9000);
        asm.st8(acc, Reg::R8, 0);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        run_program(&prog, &mut mem, 10_000_000);
        let expect: u64 = (0..100u64).map(|x| x * x).sum();
        assert_eq!(mem.read_u64(0x9000), expect);
    }

    /// A pointer chase: each load depends on the previous one; misses
    /// serialize and the ROB backs up behind them.
    fn pointer_chase() -> (Program, SparseMemory) {
        let mut asm = Asm::new();
        let (p, i, n, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        asm.li(p, 0x10_0000);
        asm.li(i, 0);
        asm.li(n, 200);
        let top = asm.here();
        asm.ld8(p, p, 0);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        let prog = asm.finish().unwrap();

        // Build a pointer chain spanning many distinct lines.
        let mut mem = SparseMemory::new();
        let mut addr = 0x10_0000u64;
        let mut x: u64 = 1;
        for _ in 0..256 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let next = 0x10_0000 + ((x >> 20) & 0xFFFF) * 64;
            mem.write_u64(addr, next);
            addr = next;
        }
        (prog, mem)
    }

    #[test]
    fn dependent_misses_fill_the_rob() {
        let (prog, mut mem) = pointer_chase();
        let stats = run_program(&prog, &mut mem, 10_000_000);
        assert!(stats.ipc() < 0.5, "pointer chase should be memory-bound, IPC {}", stats.ipc());
        assert!(stats.loads >= 200);
    }

    #[test]
    fn quiescent_cycles_are_skipped_exactly() {
        // The plain run jumps over the cycles spent waiting on DRAM; the
        // sanitized run steps every one of them and checks each is idle.
        let mut runs = vec![];
        for sanitize in [false, true] {
            let (prog, mut mem) = pointer_chase();
            let mut core = OooCore::new(CoreConfig { sanitize, ..CoreConfig::default() });
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let stats = *core
                .run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000)
                .expect("run failed");
            let report = core.sanitize_report();
            assert!(report.is_clean(), "violations: {:?}", report.first);
            if sanitize {
                assert_eq!(core.stepped_cycles(), stats.cycles, "the sanitizer steps every cycle");
            } else {
                assert!(
                    core.stepped_cycles() <= stats.cycles / 2,
                    "stepped {} of {} cycles",
                    core.stepped_cycles(),
                    stats.cycles
                );
            }
            runs.push(stats);
        }
        assert_eq!(runs[0], runs[1], "skipping quiescent cycles changed the statistics");
    }

    #[test]
    fn store_forwarding_works() {
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x8000);
        asm.li(Reg::R2, 1234);
        asm.st8(Reg::R2, Reg::R1, 0);
        asm.ld8(Reg::R3, Reg::R1, 0); // should forward, not miss to DRAM
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let stats = run_program(&prog, &mut mem, 1000);
        assert_eq!(stats.store_forwards, 1);
        assert!(stats.cycles < 100, "forwarded load must not wait for DRAM");
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        // Data-dependent unpredictable branches vs. perfectly biased ones.
        let run_with_pattern = |values: &[u64]| -> (u64, u64) {
            let mut asm = Asm::new();
            let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(base, 0x4_0000);
            asm.li(i, 0);
            asm.li(n, values.len() as i64);
            let top = asm.here();
            let skip = asm.label();
            asm.ld8_idx(v, base, i, 3);
            asm.bez(v, skip);
            asm.addi(Reg::R6, Reg::R6, 1);
            asm.bind(skip);
            asm.addi(i, i, 1);
            asm.slt(c, i, n);
            asm.bnz(c, top);
            asm.halt();
            let prog = asm.finish().unwrap();
            let mut mem = SparseMemory::new();
            mem.write_u64_slice(0x4_0000, values);
            let stats = run_program(&prog, &mut mem, 10_000_000);
            (stats.cycles, stats.branch_mispredicts)
        };

        let biased: Vec<u64> = vec![1; 4096];
        let mut x: u64 = 88172645463325252;
        let random: Vec<u64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1
            })
            .collect();
        let (cycles_biased, mp_biased) = run_with_pattern(&biased);
        let (cycles_random, mp_random) = run_with_pattern(&random);
        assert!(mp_random > mp_biased * 10, "{mp_random} vs {mp_biased}");
        assert!(cycles_random > cycles_biased, "{cycles_random} vs {cycles_biased}");
    }

    #[test]
    fn rob_full_stall_detected_on_memory_bound_code() {
        let mut asm = Asm::new();
        let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        asm.li(base, 0x20_0000);
        asm.li(i, 0);
        asm.li(n, 2000);
        let top = asm.here();
        // A dependent chain long enough to block the ROB head.
        asm.ld8_idx(v, base, i, 3);
        asm.ld8_idx(v, base, v, 3);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        // Pseudo-random in-range indices over a DRAM-sized region.
        let mut x: u64 = 7;
        let vals: Vec<u64> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(25214903917).wrapping_add(11);
                (x >> 16) % 4096
            })
            .collect();
        mem.write_u64_slice(0x20_0000, &vals);

        let mut core = OooCore::new(CoreConfig::default());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let stats =
            *core.run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000).expect("run failed");
        assert!(stats.full_rob_stall_events > 0, "expected full-ROB stalls");
        assert!(stats.rob_full_stall_cycles > 0);
    }

    /// Drops every demand-miss response: the first load never completes,
    /// commit wedges at the ROB head, and the independent adds behind it
    /// fill the window, so full-ROB stall cycles accrue until the watchdog
    /// or the cycle budget fires. Runs with the sanitizer off and on and
    /// returns `(error, partial stats, ledger)` for each.
    fn wedged_runs(cfg: CoreConfig) -> Vec<(SimError, CoreStats, SanitizeReport)> {
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x10_0000);
        asm.ld8(Reg::R2, Reg::R1, 0);
        asm.addi(Reg::R2, Reg::R2, 1);
        for i in 0..400 {
            let r = Reg::from_index(3 + (i % 8)).unwrap();
            asm.addi(r, r, 1);
        }
        asm.halt();
        let prog = asm.finish().unwrap();
        [false, true]
            .into_iter()
            .map(|sanitize| {
                let mut mem = SparseMemory::new();
                let mut core = OooCore::new(CoreConfig { sanitize, ..cfg });
                let fault = Some(sim_mem::FaultConfig::seeded(1).with_drop(1));
                let mut hier =
                    MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
                let err = core
                    .run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000_000)
                    .expect_err("dropped response must wedge the pipeline");
                (err, *core.stats(), core.sanitize_report().clone())
            })
            .collect()
    }

    #[test]
    fn watchdog_reports_deadlock_with_snapshot() {
        // The watchdog must return a structured diagnostic instead of
        // panicking, on exactly its deadline even when the core skips the
        // idle cycles leading up to it.
        let cfg = CoreConfig { watchdog_cycles: 10_000, ..CoreConfig::default() };
        let runs = wedged_runs(cfg);
        for (err, stats, san) in &runs {
            let SimError::Deadlock(snap) = err else {
                panic!("expected Deadlock, got {err:?}");
            };
            assert_eq!(snap.cycle, snap.last_commit_cycle + 10_000);
            assert!(snap.rob_len >= 1);
            let head = snap.rob_head.as_deref().expect("a load blocks the head");
            assert!(head.contains("Load"), "head should be the wedged load: {head}");
            assert!(snap.mshrs_in_use >= 1, "the dropped miss still holds its MSHR");
            // Partial stats stay coherent after the failure.
            assert_eq!(stats.cycles, snap.cycle);
            assert!(stats.rob_full_stall_cycles > 0, "the adds must fill the window");
            assert!(san.is_clean(), "violations: {:?}", san.first);
        }
        assert_eq!(runs[0].0, runs[1].0, "sanitizer moved the deadlock");
        assert_eq!(runs[0].1, runs[1].1, "partial stats differ with the sanitizer on");
    }

    #[test]
    fn watchdog_can_be_disabled_but_cycle_budget_still_binds() {
        let cfg = CoreConfig { watchdog_cycles: 0, max_cycles: 30_000, ..CoreConfig::default() };
        let runs = wedged_runs(cfg);
        for (err, stats, san) in &runs {
            assert!(
                matches!(err, SimError::CycleBudgetExceeded { cycle: 30_000, budget: 30_000 }),
                "{err:?}"
            );
            assert_eq!(stats.cycles, 30_000);
            assert!(stats.rob_full_stall_cycles > 0, "the adds must fill the window");
            assert!(san.is_clean(), "violations: {:?}", san.first);
        }
        assert_eq!(runs[0].1, runs[1].1, "partial stats differ with the sanitizer on");
    }

    #[test]
    fn reusing_a_core_is_an_error() {
        let mut asm = Asm::new();
        asm.addi(Reg::R1, Reg::R1, 1);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        let mut core = OooCore::new(CoreConfig::default());
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        core.run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000).expect("first run");
        let committed = core.stats().committed;
        let err = core
            .run(&prog, &mut mem, &mut hier, &mut NullEngine, 1_000)
            .expect_err("second run must be rejected");
        assert_eq!(err, crate::SimError::CoreReused);
        assert_eq!(core.stats().committed, committed, "stats untouched by the rejected call");
    }

    #[test]
    fn sanitizer_is_clean_and_timing_neutral() {
        let build = || {
            let mut asm = Asm::new();
            let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(base, 0x20_0000);
            asm.li(i, 0);
            asm.li(n, 500);
            let top = asm.here();
            asm.ld8_idx(v, base, i, 3);
            asm.ld8_idx(v, base, v, 3);
            asm.st8(v, base, 0x8000);
            asm.addi(i, i, 1);
            asm.slt(c, i, n);
            asm.bnz(c, top);
            asm.halt();
            asm.finish().unwrap()
        };
        let build_mem = || {
            let mut mem = SparseMemory::new();
            let mut x: u64 = 7;
            let vals: Vec<u64> = (0..4096)
                .map(|_| {
                    x = x.wrapping_mul(25214903917).wrapping_add(11);
                    (x >> 16) % 4096
                })
                .collect();
            mem.write_u64_slice(0x20_0000, &vals);
            mem
        };
        let mut results = vec![];
        for sanitize in [false, true] {
            let prog = build();
            let mut mem = build_mem();
            let mut core = OooCore::new(CoreConfig { sanitize, ..CoreConfig::default() });
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let stats = *core
                .run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000)
                .expect("run failed");
            if sanitize {
                let report = core.sanitize_report();
                assert!(report.is_clean(), "violations: {:?}", report.first);
                assert!(report.checks > 0);
            } else {
                assert_eq!(core.sanitize_report().checks, 0, "sanitizer must stay off");
            }
            results.push((stats.cycles, stats.committed, stats.loads, stats.branch_mispredicts));
        }
        assert_eq!(results[0], results[1], "sanitizer changed timing");
    }

    #[test]
    fn smaller_rob_stalls_more() {
        let build = || {
            let mut asm = Asm::new();
            let (base, i, n, v, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
            asm.li(base, 0x20_0000);
            asm.li(i, 0);
            asm.li(n, 1000);
            let top = asm.here();
            asm.ld8_idx(v, base, i, 3);
            asm.ld8_idx(v, base, v, 3);
            asm.addi(i, i, 1);
            asm.slt(c, i, n);
            asm.bnz(c, top);
            asm.halt();
            asm.finish().unwrap()
        };
        let mut fractions = vec![];
        for rob in [64usize, 350] {
            let prog = build();
            let mut mem = SparseMemory::new();
            let mut x: u64 = 7;
            let vals: Vec<u64> = (0..4096)
                .map(|_| {
                    x = x.wrapping_mul(25214903917).wrapping_add(11);
                    (x >> 16) % 4096
                })
                .collect();
            mem.write_u64_slice(0x20_0000, &vals);
            let mut core = OooCore::new(CoreConfig::with_rob(rob));
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let stats = *core
                .run(&prog, &mut mem, &mut hier, &mut NullEngine, 10_000_000)
                .expect("run failed");
            fractions.push(stats.rob_full_stall_fraction());
        }
        assert!(
            fractions[0] > fractions[1],
            "64-entry ROB should stall more than 350: {fractions:?}"
        );
    }
}

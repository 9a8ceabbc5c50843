//! Property-based tests: the timing model must never change architectural
//! behaviour, for arbitrary generated programs.

use proptest::prelude::*;
use sim_isa::{AluOp, Asm, Cpu, Reg, SparseMemory};
use sim_mem::{HierarchyConfig, MemoryHierarchy};
use sim_ooo::{CoreConfig, NullEngine, OooCore};

/// A tiny structured program generator: a loop over an array with random
/// ALU ops, loads, stores, and a data-dependent branch.
#[derive(Clone, Debug)]
enum BodyOp {
    Alu(AluOp, u8, u8, u8),
    AluImm(AluOp, u8, u8, i16),
    Load(u8, u8),
    Store(u8, u8),
    SkipIfZero(u8),
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    let op = prop::sample::select(vec![
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Slt,
        AluOp::Min,
        AluOp::Max,
    ]);
    let op2 = prop::sample::select(vec![AluOp::Add, AluOp::Xor, AluOp::Shr, AluOp::Shl]);
    prop_oneof![
        (op, 4u8..12, 4u8..12, 4u8..12).prop_map(|(o, d, a, b)| BodyOp::Alu(o, d, a, b)),
        (op2, 4u8..12, 4u8..12, any::<i16>()).prop_map(|(o, d, a, i)| BodyOp::AluImm(o, d, a, i)),
        (4u8..12, 4u8..12).prop_map(|(d, ix)| BodyOp::Load(d, ix)),
        (4u8..12, 4u8..12).prop_map(|(s, ix)| BodyOp::Store(s, ix)),
        (4u8..12).prop_map(BodyOp::SkipIfZero),
    ]
}

/// Builds a loop program over a 256-word array using the generated body.
fn build(body: &[BodyOp], iters: i64) -> sim_isa::Program {
    let base = Reg::R1;
    let i = Reg::R2;
    let n = Reg::R3;
    let c = Reg::R13;
    let mut asm = Asm::new();
    asm.li(base, 0x10_0000);
    asm.li(i, 0);
    asm.li(n, iters);
    let top = asm.here();
    // A striding load feeds the body.
    asm.ld8_idx(Reg::R4, base, i, 3);
    for op in body {
        match *op {
            BodyOp::Alu(o, d, a, b) => asm.alu(
                o,
                Reg::from_index(d as usize).unwrap(),
                Reg::from_index(a as usize).unwrap(),
                Reg::from_index(b as usize).unwrap(),
            ),
            BodyOp::AluImm(o, d, a, imm) => asm.alui(
                o,
                Reg::from_index(d as usize).unwrap(),
                Reg::from_index(a as usize).unwrap(),
                imm as i64,
            ),
            BodyOp::Load(d, ix) => {
                // Constrain the index into the array.
                let ixr = Reg::from_index(ix as usize).unwrap();
                let dr = Reg::from_index(d as usize).unwrap();
                asm.andi(Reg::R14, ixr, 255);
                asm.ld8_idx(dr, base, Reg::R14, 3);
            }
            BodyOp::Store(s, ix) => {
                let ixr = Reg::from_index(ix as usize).unwrap();
                let sr = Reg::from_index(s as usize).unwrap();
                asm.andi(Reg::R14, ixr, 255);
                asm.st8_idx(sr, base, Reg::R14, 3);
            }
            BodyOp::SkipIfZero(r) => {
                let rr = Reg::from_index(r as usize).unwrap();
                let skip = asm.label();
                asm.bez(rr, skip);
                asm.addi(Reg::R15, Reg::R15, 1);
                asm.bind(skip);
            }
        }
    }
    asm.addi(i, i, 1);
    asm.slt(c, i, n);
    asm.bnz(c, top);
    asm.halt();
    asm.finish().unwrap()
}

fn init_mem() -> SparseMemory {
    let mut mem = SparseMemory::new();
    let mut x: u64 = 0xABCD_EF01;
    for k in 0..256u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        mem.write_u64(0x10_0000 + 8 * k, x >> 16);
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The OoO timing model commits exactly the functional execution:
    /// same final registers-visible memory, same instruction count.
    #[test]
    fn timing_matches_functional_semantics(
        body in prop::collection::vec(body_op(), 0..10),
        iters in 1i64..40,
    ) {
        let prog = build(&body, iters);

        // Functional reference.
        let mut fmem = init_mem();
        let mut cpu = Cpu::new();
        let fsteps = cpu.run(&prog, &mut fmem, 10_000_000).unwrap();
        prop_assert!(cpu.is_halted());

        // Timed run.
        let mut tmem = init_mem();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let mut core = OooCore::new(CoreConfig::default());
        let stats = *core.run(&prog, &mut tmem, &mut hier, &mut NullEngine, u64::MAX).unwrap();

        // The sanitizer steps every cycle the plain run skips as quiescent,
        // and must land on the very same statistics with a clean ledger.
        let mut smem = init_mem();
        let mut shier = MemoryHierarchy::new(HierarchyConfig::default());
        let mut score = OooCore::new(CoreConfig { sanitize: true, ..CoreConfig::default() });
        let sstats = *score.run(&prog, &mut smem, &mut shier, &mut NullEngine, u64::MAX).unwrap();
        prop_assert_eq!(sstats, stats);
        prop_assert!(score.sanitize_report().is_clean(), "{:?}", score.sanitize_report().first);
        prop_assert_eq!(score.stepped_cycles(), sstats.cycles);

        prop_assert_eq!(stats.committed, fsteps);
        for k in 0..256u64 {
            prop_assert_eq!(
                tmem.read_u64(0x10_0000 + 8 * k),
                fmem.read_u64(0x10_0000 + 8 * k),
                "memory diverged at word {}", k
            );
        }
        // Sanity: cycles within physically plausible bounds.
        prop_assert!(stats.cycles >= stats.committed / 8);
    }

    /// Smaller ROBs never commit more IPC than larger ones on the same
    /// memory-bound program (monotonicity within noise).
    #[test]
    fn rob_size_monotonicity(iters in 30i64..60) {
        let body = vec![BodyOp::Load(5, 4), BodyOp::Load(6, 5), BodyOp::Alu(AluOp::Add, 7, 6, 5)];
        let prog = build(&body, iters);
        let run = |rob: usize| {
            let mut mem = init_mem();
            let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
            let mut core = OooCore::new(CoreConfig::with_rob(rob));
            core.run(&prog, &mut mem, &mut hier, &mut NullEngine, u64::MAX).unwrap().ipc()
        };
        let small = run(32);
        let big = run(350);
        prop_assert!(big >= small * 0.95, "ROB 350 ({big}) slower than ROB 32 ({small})");
    }
}

//! Register-file compaction, the tier between fusion and packing.
//!
//! Codegen allocates one register per variable and temporary, and the
//! fuser ([`crate::fuse`]) vacates the slots of the temporaries it folds
//! into superinstructions. [`optimize`] squeezes the unused slots out
//! with a dense renumbering of each register file, so pooled
//! [`crate::vm::Machine`]s allocate smaller register files on every
//! arena checkout. It runs when [`crate::compile::CompileOptions::cfg`]
//! is set (the default).
//!
//! The tier is unobservable: it moves no instruction and only renames
//! registers, so return values, output arguments, traps, dispatch counts
//! and every shadow measurement (per-pc samples, per-variable tables,
//! divergence reports) are the same with or without it. The
//! `cfg_differential` suites pin that on every app kernel and pin the
//! compacted output by fingerprint. Renumbering only lowers register
//! indices, so a function that packed before compaction still packs.
//!
//! Every register access goes through [`crate::bytecode::Instr`]'s
//! operand visitor, generated from the opcode table (`opcodes.rs`), the
//! one the fuser and [`crate::vm::validate_function`] also use.

use crate::bytecode::{CompiledFunction, RegClass};

/// Version of the compaction tier, hashed into [`crate::store::content_key`]
/// so a persisted variant compiled by a different tier revision can
/// never warm-hit.
pub const CFG_TIER_VERSION: u32 = 2;

/// What [`optimize`] did to one function.
#[derive(Clone, Debug, Default)]
pub struct CfgStats {
    /// Always 0: the tier moves no instruction. Kept for perfbench's
    /// `exec.licm_hoisted`, which reads it, until the benchmark drops
    /// that metric.
    pub hoisted: u32,
    /// Register slots eliminated by compaction (all three files).
    pub regs_compacted: u32,
}

/// Densely renumbers the three register files, dropping slots that are
/// neither referenced by an instruction, a parameter home, nor a named
/// variable (names are kept so shadow attribution and trap naming are
/// unchanged). Returns the number of slots eliminated.
fn compact_registers(func: &mut CompiledFunction) -> u32 {
    use RegClass::{A, F};
    // Indexed by `RegClass as usize`: F, I, A.
    let sizes = [func.n_fregs, func.n_iregs, func.n_aregs];
    let mut used = sizes.map(|n| vec![false; n as usize]);
    for ins in &func.instrs {
        ins.visit_regs(|class, r, _w| used[class as usize][r as usize] = true);
    }
    for p in &func.params {
        used[p.kind.class() as usize][p.reg as usize] = true;
    }
    for (r, _) in &func.fvar_names {
        used[F as usize][*r as usize] = true;
    }
    for (r, _) in &func.avar_names {
        used[A as usize][*r as usize] = true;
    }
    // Dense renumbering per file: `map[c][old]` is the new index.
    let mut len = [0u32; 3];
    let map: Vec<Vec<u32>> = (0..3)
        .map(|c| {
            let n = &mut len[c];
            used[c]
                .iter()
                .map(|&u| std::mem::replace(n, *n + u32::from(u)))
                .collect()
        })
        .collect();
    let saved: u32 = (0..3).map(|c| sizes[c] - len[c]).sum();
    if saved == 0 {
        return 0;
    }
    for ins in &mut func.instrs {
        ins.visit_regs_mut(|class, r, _w| *r = map[class as usize][*r as usize]);
    }
    for p in &mut func.params {
        p.reg = map[p.kind.class() as usize][p.reg as usize];
    }
    for (r, _) in &mut func.fvar_names {
        *r = map[F as usize][*r as usize];
    }
    for (r, _) in &mut func.avar_names {
        *r = map[A as usize][*r as usize];
    }
    [func.n_fregs, func.n_iregs, func.n_aregs] = len;
    saved
}

/// Runs the tier on a (typically post-fusion) function: register
/// compaction. Invalidates `func.packed` — [`crate::compile::compile`]
/// re-packs afterwards.
pub fn optimize(func: &mut CompiledFunction) -> CfgStats {
    func.packed = None;
    let stats = CfgStats {
        hoisted: 0,
        regs_compacted: compact_registers(func),
    };
    chef_telemetry::counter("exec.regs.compacted").add(stats.regs_compacted as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, IReg, Instr, ParamKind, ParamSpec, RetKind};
    use crate::value::ArgValue;
    use chef_ir::span::Span;

    /// Packs `f` (hand-built streams and `optimize` output carry no
    /// packed form) and runs it under a 10k-instruction budget, so a
    /// miscompiled loop traps with `InstrBudgetExhausted` instead of
    /// hanging the suite.
    fn run_budgeted(f: &CompiledFunction, args: Vec<ArgValue>) -> crate::vm::CallOutcome {
        let mut f = f.clone();
        f.packed = crate::pack::pack_function(&f);
        let opts = crate::vm::ExecOptions {
            max_instrs: Some(10_000),
            ..Default::default()
        };
        crate::vm::run_with(&f, args, &opts).unwrap()
    }

    fn int_func(instrs: Vec<Instr>, n_iregs: u32) -> CompiledFunction {
        let spans = vec![Span::default(); instrs.len()];
        CompiledFunction {
            name: "hand".into(),
            instrs,
            spans,
            n_fregs: 0,
            n_iregs,
            n_aregs: 0,
            params: vec![ParamSpec {
                name: "p".into(),
                kind: ParamKind::I,
                by_ref: false,
                reg: 0,
            }],
            ret: RetKind::I,
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        }
    }

    /// Hand-built doubly nested counting loop.
    fn nested_func() -> CompiledFunction {
        use Instr::*;
        int_func(
            vec![
                // E: s = 0; i = 0
                IConst { dst: IReg(1), v: 0 }, // 0: s
                IConst { dst: IReg(2), v: 0 }, // 1: i
                // H1: i < p ? fall : exit
                ICmpJmpFalse {
                    op: CmpOp::Lt,
                    a: IReg(2),
                    b: IReg(0),
                    target: 10,
                }, // 2
                // j = 0
                IConst { dst: IReg(3), v: 0 }, // 3
                // H2: j < p ? fall : latch1
                ICmpJmpFalse {
                    op: CmpOp::Lt,
                    a: IReg(3),
                    b: IReg(0),
                    target: 8,
                }, // 4
                // body2: s += 1; j += 1
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 1,
                }, // 5
                IAddImm {
                    dst: IReg(3),
                    a: IReg(3),
                    imm: 1,
                }, // 6
                Jmp { target: 4 }, // 7
                // latch1: i += 1
                IAddImm {
                    dst: IReg(2),
                    a: IReg(2),
                    imm: 1,
                }, // 8
                Jmp { target: 2 }, // 9
                // exit
                RetI { src: IReg(1) }, // 10
            ],
            4,
        )
    }

    #[test]
    fn nested_hand_loop_runs_identically_after_optimize() {
        let func = nested_func();
        let mut opt = func.clone();
        optimize(&mut opt);
        for n in [0i64, 1, 2, 7] {
            let a = run_budgeted(&func, vec![ArgValue::I(n)]);
            let b = run_budgeted(&opt, vec![ArgValue::I(n)]);
            assert_eq!(a.ret, b.ret, "n={n}");
        }
    }

    #[test]
    fn compaction_drops_dead_registers_and_preserves_behavior() {
        use Instr::*;
        // Registers 5/9 are allocated but never touched.
        let mut func = int_func(
            vec![
                IAddImm {
                    dst: IReg(7),
                    a: IReg(0),
                    imm: 3,
                },
                RetI { src: IReg(7) },
            ],
            10,
        );
        let before = run_budgeted(&func, vec![ArgValue::I(4)]);
        let saved = compact_registers(&mut func);
        assert!(
            saved >= 7,
            "expected most of the 10 iregs dropped, saved {saved}"
        );
        assert_eq!(func.n_iregs, 2);
        let after = run_budgeted(&func, vec![ArgValue::I(4)]);
        assert_eq!(before.ret, after.ret);
    }
}

//! Regression: reducible loops whose body blocks precede the header in
//! pc order. LICM hoists from the early block, so `apply_plan` must
//! remap jump targets below the header too. When it only counted
//! deletions from the header onward, the latch's `Jmp` skipped the
//! header's `i += 1` and the loop never ended.
//!
//! Every run packs the stream and goes through `vm::run_with` under an
//! instruction budget, so a miscompile traps with `InstrBudgetExhausted`
//! instead of hanging.

use chef_exec::bytecode::{CmpOp, CompiledFunction, IReg, Instr, ParamKind, ParamSpec, RetKind};
use chef_exec::value::ArgValue;
use chef_exec::vm::{run_with, CallOutcome, ExecOptions};
use chef_ir::span::Span;

fn func(instrs: Vec<Instr>) -> CompiledFunction {
    let spans = vec![Span::default(); instrs.len()];
    CompiledFunction {
        name: "body_before_header".into(),
        instrs,
        spans,
        n_fregs: 0,
        n_iregs: 4,
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

/// Packs `f` (hand-built streams and `optimize` output carry no packed
/// form, and only packed code runs), then runs it under the budget.
fn run(f: &CompiledFunction, p: i64) -> CallOutcome {
    let f = CompiledFunction {
        packed: Some(chef_exec::pack::pack_function(f).expect("stream packs")),
        ..f.clone()
    };
    let opts = ExecOptions {
        max_instrs: Some(10_000),
        ..Default::default()
    };
    run_with(&f, vec![ArgValue::I(p)], &opts).unwrap_or_else(|t| panic!("{t}\n{}", f.disassemble()))
}

/// Optimizes `base`, requires at least one hoist, and checks the result
/// returns what the unoptimized stream returns.
fn assert_preserved(base: CompiledFunction) {
    let mut opt = base.clone();
    let stats = chef_exec::cfg::optimize(&mut opt);
    assert!(
        stats.hoisted >= 1,
        "the invariant op must hoist\n{}",
        base.disassemble()
    );
    for p in [0, 1, 9] {
        let a = run(&base, p);
        let b = run(&opt, p);
        assert_eq!(
            a.ret,
            b.ret,
            "p={p}\nbefore:\n{}\nafter:\n{}",
            base.disassemble(),
            opt.disassemble()
        );
    }
}

#[test]
fn body_before_header_loop_is_preserved() {
    use Instr::*;
    assert_preserved(func(vec![
        // entry: jump forward to the header
        Jmp { target: 3 },
        // B (loop body, textually BEFORE the header): invariant op
        IAddImm {
            dst: IReg(3),
            a: IReg(0),
            imm: 5,
        },
        // latch: back edge B -> H
        Jmp { target: 3 },
        // H: i += 1
        IAddImm {
            dst: IReg(1),
            a: IReg(1),
            imm: 1,
        },
        // H terminator: while (i < 3) goto B
        ICmpImmJmpTrue {
            op: CmpOp::Lt,
            a: IReg(1),
            imm: 3,
            target: 1,
        },
        RetI { src: IReg(1) },
    ]));
}

#[test]
fn body_before_header_falling_into_the_header_is_preserved() {
    use Instr::*;
    assert_preserved(func(vec![
        // entry: jump forward to the header
        Jmp { target: 3 },
        // B, before the header: an invariant op, then a loop-carried
        // one; B falls through into H instead of jumping back
        IAddImm {
            dst: IReg(3),
            a: IReg(0),
            imm: 5,
        },
        IAdd {
            dst: IReg(2),
            a: IReg(2),
            b: IReg(3),
        },
        // H: i += 1
        IAddImm {
            dst: IReg(1),
            a: IReg(1),
            imm: 1,
        },
        // H terminator: while (i < 3) goto B
        ICmpImmJmpTrue {
            op: CmpOp::Lt,
            a: IReg(1),
            imm: 3,
            target: 1,
        },
        RetI { src: IReg(2) },
    ]));
}

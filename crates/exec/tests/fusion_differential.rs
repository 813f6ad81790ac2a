//! Differential test: bytecode fusion must be unobservable.
//!
//! Every `chef-apps` kernel is compiled twice — fusion off and fusion
//! on — and executed on the same workload, in three configurations:
//!
//! 1. the primal kernel at declared precisions,
//! 2. the primal kernel with **every** float variable demoted to `f32`
//!    (maximal `F*Round` fusion pressure),
//! 3. the reverse-AD adjoint of the kernel (tape pushes/pops, the
//!    analysis hot path).
//!
//! The two compilations must agree **bit-for-bit** on the return value
//! and every output argument, and exactly on the tape/memory counters
//! (`tape_peak_bytes`, `tape_total_pushes`, `local_array_bytes`,
//! `arg_array_bytes`). Only `instrs_executed` may differ — fusion's whole
//! point — and it must not grow.

use chef_exec::bytecode::Instr;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_ir::ast::{Function, Program};
use chef_ir::types::FloatTy;

/// One app kernel with a representative (small) workload.
fn kernels() -> Vec<(&'static str, Program, &'static str, Vec<ArgValue>)> {
    vec![
        (
            "arclen",
            chef_apps::arclen::program(),
            chef_apps::arclen::NAME,
            chef_apps::arclen::args(500),
        ),
        (
            "simpsons",
            chef_apps::simpsons::program(),
            chef_apps::simpsons::NAME,
            chef_apps::simpsons::args(500),
        ),
        (
            "kmeans",
            chef_apps::kmeans::program(),
            chef_apps::kmeans::NAME,
            chef_apps::kmeans::args(&chef_apps::kmeans::workload(100, 5, 4, 42)),
        ),
        (
            "blackscholes",
            chef_apps::blackscholes::program(),
            chef_apps::blackscholes::NAME,
            chef_apps::blackscholes::args(&chef_apps::blackscholes::workload(50, 42)),
        ),
        (
            "hpccg",
            chef_apps::hpccg::program(),
            chef_apps::hpccg::NAME,
            chef_apps::hpccg::args(&chef_apps::hpccg::problem(4, 4, 4)),
        ),
    ]
}

fn inlined_kernel(program: &Program, func: &str) -> Function {
    chef_passes::inline_program(program)
        .expect("kernel inlines")
        .function(func)
        .expect("kernel exists")
        .clone()
}

/// Runs `func` compiled with fusion off and on; asserts the outcomes are
/// indistinguishable except for a (never larger) instruction count.
fn assert_fusion_unobservable(label: &str, func: &Function, pm: &PrecisionMap, args: &[ArgValue]) {
    let unfused = compile(
        func,
        &CompileOptions {
            precisions: pm.clone(),
            fuse: false,
            ..Default::default()
        },
    )
    .expect("unfused compiles");
    let fused = compile(
        func,
        &CompileOptions {
            precisions: pm.clone(),
            fuse: true,
            ..Default::default()
        },
    )
    .expect("fused compiles");

    let opts = ExecOptions {
        max_instrs: Some(500_000_000),
        ..Default::default()
    };
    let a = run_with(&unfused, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: unfused trapped: {t}"));
    let b = run_with(&fused, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: fused trapped: {t}"));

    // Return value: bit-identical.
    match (&a.ret, &b.ret) {
        (Some(Value::F(x)), Some(Value::F(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: float return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: return differs"),
    }
    // Every output argument (by-ref scalars, arrays): bit-identical.
    assert_eq!(a.args.len(), b.args.len(), "{label}: arg count");
    for (i, (x, y)) in a.args.iter().zip(&b.args).enumerate() {
        match (x, y) {
            (ArgValue::F(x), ArgValue::F(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: scalar arg {i}")
            }
            (ArgValue::FArr(x), ArgValue::FArr(y)) => {
                assert_eq!(x.len(), y.len(), "{label}: array arg {i} length");
                for (k, (xv, yv)) in x.iter().zip(y).enumerate() {
                    assert_eq!(xv.to_bits(), yv.to_bits(), "{label}: array arg {i}[{k}]");
                }
            }
            (x, y) => assert_eq!(x, y, "{label}: arg {i}"),
        }
    }
    // Tape and memory counters: identical. Instruction count: not larger.
    assert_eq!(
        a.stats.tape_peak_bytes, b.stats.tape_peak_bytes,
        "{label}: tape peak"
    );
    assert_eq!(
        a.stats.tape_total_pushes, b.stats.tape_total_pushes,
        "{label}: tape traffic"
    );
    assert_eq!(
        a.stats.local_array_bytes, b.stats.local_array_bytes,
        "{label}: local arrays"
    );
    assert_eq!(
        a.stats.arg_array_bytes, b.stats.arg_array_bytes,
        "{label}: arg arrays"
    );
    assert!(
        b.stats.instrs_executed <= a.stats.instrs_executed,
        "{label}: fusion increased instruction count ({} > {})",
        b.stats.instrs_executed,
        a.stats.instrs_executed
    );
}

#[test]
fn primal_kernels_are_bit_identical_fused_vs_unfused() {
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        assert_fusion_unobservable(label, &func, &PrecisionMap::empty(), &args);
    }
}

#[test]
fn fully_demoted_kernels_are_bit_identical_fused_vs_unfused() {
    // Demoting every float variable floods the instruction stream with
    // rounds, exercising the F*Round fused forms.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = PrecisionMap::demote_all(&func, FloatTy::F32);
        let fused = compile(
            &func,
            &CompileOptions {
                precisions: pm.clone(),
                fuse: true,
                ..Default::default()
            },
        )
        .expect("compiles");
        let has_fused_round = fused.instrs.iter().any(|i| {
            use chef_exec::bytecode::Instr;
            matches!(
                i,
                Instr::FAddRound { .. }
                    | Instr::FSubRound { .. }
                    | Instr::FMulRound { .. }
                    | Instr::FDivRound { .. }
            )
        });
        assert!(
            has_fused_round,
            "{label}: demotion produced no fused rounds"
        );
        assert_fusion_unobservable(&format!("{label}/demoted"), &func, &pm, &args);
    }
}

#[test]
fn adjoint_kernels_are_bit_identical_fused_vs_unfused() {
    // The analysis hot path: reverse-AD adjoints with tape traffic.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = match chef_ad::reverse::reverse_diff(&func) {
            Ok(g) => g,
            Err(e) => panic!("{label}: reverse_diff failed: {e}"),
        };
        // Adjoint signature: each float scalar param gains `_d_x`, each
        // float array param gains `_d_a[]` (zero-seeded here; the sweep
        // structure, not the seed, is what fusion must preserve).
        let mut grad_args = args.to_vec();
        for a in &args {
            match a {
                ArgValue::F(_) => grad_args.push(ArgValue::F(0.0)),
                ArgValue::FArr(v) => grad_args.push(ArgValue::FArr(vec![0.0; v.len()])),
                _ => {}
            }
        }
        let unfused = compile(
            &grad,
            &CompileOptions {
                precisions: PrecisionMap::empty(),
                fuse: false,
                ..Default::default()
            },
        )
        .expect("adjoint compiles");
        let probe = run_with(
            &unfused,
            grad_args.clone(),
            &ExecOptions {
                max_instrs: Some(500_000_000),
                ..Default::default()
            },
        )
        .unwrap_or_else(|t| panic!("{label}: adjoint trapped: {t}"));
        assert!(
            probe.stats.tape_total_pushes > 0,
            "{label}: adjoint exercises no tape traffic — test is vacuous"
        );
        assert_fusion_unobservable(
            &format!("{label}/adjoint"),
            &grad,
            &PrecisionMap::empty(),
            &grad_args,
        );
    }
    let (grad, grad_args) = hpccg_profiler_adjoint();
    assert_fusion_unobservable(
        "hpccg/profiler-adjoint",
        &grad,
        &PrecisionMap::empty(),
        &grad_args,
    );
}

/// The Table IV sensitivity profiler's adjoint of hpccg, built exactly as
/// `chef_core::sensitivity::profile_sensitivity` builds it for the repro
/// smoke's `problem(20, 30, 10)` (tracked `r`/`p`/`Ap`, 200 ticks), with
/// arguments laid out the way that call lays them out. The function does
/// not depend on the problem size, so it runs here on the small
/// `problem(4, 4, 4)` the other kernels use. Its
/// `_sens_out[slot * 200 + tick]` updates carry constant offsets of 200
/// and 400, which do not fit a packed `FLoadOff`/`FStoreOff`: the fuser
/// must decline those forms for the function to pack.
fn hpccg_profiler_adjoint() -> (Function, Vec<ArgValue>) {
    let cfg = chef_core::sensitivity::SensitivityConfig {
        tracked: vec!["r".into(), "p".into(), "Ap".into()],
        tick_on: "rtrans".into(),
        max_ticks: 200,
    };
    let grad = chef_core::sensitivity::profiler_adjoint(
        &chef_apps::hpccg::program(),
        chef_apps::hpccg::NAME,
        &cfg,
    )
    .expect("profiler adjoint builds");
    let mut args = chef_apps::hpccg::args(&chef_apps::hpccg::problem(4, 4, 4));
    let seeds: Vec<ArgValue> = args
        .iter()
        .filter_map(|a| match a {
            ArgValue::F(_) => Some(ArgValue::F(0.0)),
            ArgValue::FArr(v) => Some(ArgValue::FArr(vec![0.0; v.len()])),
            _ => None,
        })
        .collect();
    args.extend(seeds);
    args.push(ArgValue::FArr(vec![0.0; cfg.tracked.len() * cfg.max_ticks]));
    (grad, args)
}

#[test]
fn hpccg_profiler_adjoint_compiles_packed() {
    let (grad, _) = hpccg_profiler_adjoint();
    for fuse in [false, true] {
        let compiled = compile(
            &grad,
            &CompileOptions {
                fuse,
                ..Default::default()
            },
        )
        .expect("profiler adjoint compiles");
        assert!(compiled.packed.is_some(), "fuse={fuse}: left unpacked");
        assert!(
            compiled.instrs.iter().all(chef_exec::pack::fits),
            "fuse={fuse}: an instruction has no packed form"
        );
    }
}

// ------------------------------------------------ fused accumulate traps

/// `a[i] += v` at a register index and `a[2] += v` at a constant one,
/// compiled unfused and fused; the fused stream must hold the
/// accumulate form under test.
fn accumulate_pair(
    src: &str,
    fused_form: fn(&chef_exec::bytecode::Instr) -> bool,
) -> [CompiledFunction; 2] {
    let mut p = chef_ir::parser::parse_program(src).expect("parses");
    chef_ir::typeck::check_program(&mut p).expect("typechecks");
    let [unfused, fused] = [false, true].map(|fuse| {
        compile(
            &p.functions[0],
            &CompileOptions {
                fuse,
                ..Default::default()
            },
        )
        .expect("compiles")
    });
    assert!(
        fused.instrs.iter().any(fused_form),
        "{}",
        fused.disassemble()
    );
    [unfused, fused]
}

fn accumulates() -> [([CompiledFunction; 2], Vec<ArgValue>); 2] {
    use chef_exec::bytecode::Instr;
    let at_reg = accumulate_pair("void f(double a[], int i, double v) { a[i] += v; }", |i| {
        matches!(i, Instr::FAddTo { .. })
    });
    let at_const = accumulate_pair("void f(double a[], int i, double v) { a[2] += v; }", |i| {
        matches!(i, Instr::FAddToK { k: 2, .. })
    });
    [
        (at_reg, vec![ArgValue::I(2)]),
        (at_const, vec![ArgValue::I(0)]),
    ]
}

/// Runs both compilations of `pair` on `a`, `i` and `v` and returns
/// their traps.
fn both_trap(pair: &[CompiledFunction; 2], a: Vec<f64>, i: &[ArgValue], v: f64) -> [Trap; 2] {
    let opts = ExecOptions {
        trap_on_nonfinite: true,
        ..Default::default()
    };
    pair.each_ref().map(|f| {
        let args = vec![ArgValue::FArr(a.clone()), i[0].clone(), ArgValue::F(v)];
        run_with(f, args, &opts).expect_err("traps")
    })
}

#[test]
fn fused_accumulate_traps_out_of_bounds_like_unfused() {
    for (pair, i) in accumulates() {
        let [unfused, fused] = both_trap(&pair, vec![1.0, 2.0], &i, 0.5);
        assert_eq!(unfused.kind, TrapKind::OobIndex { idx: 2, len: 2 });
        assert_eq!(fused.kind, unfused.kind);
    }
}

#[test]
fn fused_accumulate_traps_non_finite_like_unfused() {
    let nonfinite = |t: &Trap| match &t.kind {
        TrapKind::NonFinite { value, var, .. } => (value.to_bits(), var.clone()),
        other => panic!("expected NonFinite, got {other:?}"),
    };
    for (pair, i) in accumulates() {
        // The sum overflows; then a non-finite element is loaded: ∞ plus
        // −∞ traps on the loaded ∞, not on the NaN sum.
        for (elem, v) in [
            (1e308, 1e308),
            (f64::INFINITY, f64::NEG_INFINITY),
            (f64::NAN, 1.0),
        ] {
            let [unfused, fused] = both_trap(&pair, vec![0.0, 0.0, elem], &i, v);
            assert_eq!(nonfinite(&fused), nonfinite(&unfused), "elem {elem}, v {v}");
        }
    }
}

// ------------------------------------------------ fused error term traps

/// `f` with each `FAbsMulC`/`FAddAccK` expanded back into the window it
/// fused (through fresh unnamed registers), re-packed: the fused stream
/// as it was before these two fusions, with copy elimination and the
/// other fusions kept. `f` must be straight-line code.
fn error_forms_expanded(f: &CompiledFunction) -> CompiledFunction {
    use chef_exec::bytecode::FReg;
    assert!(!f.disassemble().contains("target"), "{}", f.disassemble());
    let (u, w) = (FReg(f.n_fregs), FReg(f.n_fregs + 1));
    let mut out = f.clone();
    out.instrs.clear();
    out.spans.clear();
    for (ins, &span) in f.instrs.iter().zip(&f.spans) {
        let window = match *ins {
            Instr::FAbsMulC { dst, a, k, b } => vec![
                Instr::FMul { dst: u, a, b },
                Instr::FIntr1 {
                    dst: w,
                    intr: chef_ir::ast::Intrinsic::Fabs,
                    a: u,
                },
                Instr::FMulC { dst, a: w, k },
            ],
            Instr::FAddAccK { acc, k, src, arr } => vec![
                Instr::FAdd {
                    dst: acc,
                    a: acc,
                    b: src,
                },
                Instr::FAddToK { arr, k, src },
            ],
            ref other => vec![other.clone()],
        };
        out.spans.extend(std::iter::repeat_n(span, window.len()));
        out.instrs.extend(window);
    }
    out.n_fregs += 2;
    out.packed = chef_exec::pack::pack_function(&out);
    out
}

/// The trap's kind, and for a non-finite trap its value bits and the
/// variable it names.
fn trap_parts(t: &Trap) -> (String, Option<(u64, Option<String>)>) {
    match &t.kind {
        TrapKind::NonFinite { value, var, .. } => {
            ("NonFinite".into(), Some((value.to_bits(), var.clone())))
        }
        other => (format!("{other:?}"), None),
    }
}

/// Compiles `src` unfused and fused (the fused stream must hold a form
/// `fused_form` accepts) and runs each case of `cases` on the unfused
/// stream, the fused one and the fused one with the error forms
/// expanded, with non-finite values trapping. All three must trap with
/// the same kind and value; the fused and expanded traps must also name
/// the same variable. (The unfused stream may name none where copy
/// elimination moved a write from a temporary into the variable.)
fn assert_traps_match(src: &str, fused_form: fn(&Instr) -> bool, cases: &[Vec<ArgValue>]) {
    let [unfused, fused] = accumulate_pair(src, fused_form);
    let expanded = error_forms_expanded(&fused);
    let opts = ExecOptions {
        trap_on_nonfinite: true,
        ..Default::default()
    };
    for args in cases {
        let [u, f, e] = [&unfused, &fused, &expanded]
            .map(|c| trap_parts(&run_with(c, args.clone(), &opts).expect_err("traps")));
        assert_eq!(f, e, "{args:?}");
        assert_eq!(
            (&f.0, f.1.as_ref().map(|p| p.0)),
            (&u.0, u.1.as_ref().map(|p| p.0)),
            "{args:?}"
        );
    }
}

#[test]
fn fused_error_term_traps_non_finite_like_unfused() {
    // The estimator's `ε·|x·x̄|` with a constant large enough that the
    // last step can overflow too. The product is +∞, −∞ or NaN (an
    // intermediate, named by no variable); then the product is finite
    // and `·k` overflows (`e`).
    let cases: Vec<Vec<ArgValue>> = [
        (1e200, 1e200),
        (-1e200, 1e200),
        (f64::NAN, 1.0),
        (2.0, f64::NAN),
        (1e300, 1.0),
    ]
    .iter()
    .map(|&(x, xb)| vec![ArgValue::F(x), ArgValue::F(xb)])
    .collect();
    assert_traps_match(
        "double f(double x, double xb) { double e = 1e10 * fabs(x * xb); return e; }",
        |i| matches!(i, Instr::FAbsMulC { .. }),
        &cases,
    );
}

#[test]
fn fused_error_accumulation_traps_like_unfused() {
    // `_fp_error += _ee; _var_err[1] += _ee;` in miniature. The running
    // total overflows (it names `fp`); the slot sum overflows; the slot
    // holds ∞ or NaN before the add; the slot is out of bounds.
    let cases: Vec<Vec<ArgValue>> = [
        (vec![0.0, 0.0], 1e308, 1e308),
        (vec![0.0, 1e308], 1e308, 0.0),
        (vec![0.0, f64::INFINITY], 1.0, 0.0),
        (vec![0.0, f64::NAN], 1.0, 0.0),
        (vec![0.0], 1.0, 0.0),
    ]
    .into_iter()
    .map(|(slots, ee, fp)| vec![ArgValue::FArr(slots), ArgValue::F(ee), ArgValue::F(fp)])
    .collect();
    assert_traps_match(
        "void f(double v[], double ee, double &fp) { fp += ee; v[1] += ee; }",
        |i| matches!(i, Instr::FAddAccK { k: 1, .. }),
        &cases,
    );
}

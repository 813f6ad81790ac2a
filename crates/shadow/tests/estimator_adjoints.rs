//! The five paper kernels' error-estimating adjoints (what
//! `chef_core::estimate_error` generates and runs) under the fused
//! array accumulation and the fused error term.
//!
//! * The fused forms are unobservable in the shadow lane: the
//!   per-variable tables, the return error and the accumulated local
//!   error are bit-identical, at declared precisions and with every
//!   float scalar demoted to `f32` (the arrays stay `f64`, so the
//!   accumulations still fuse and carry pending rounding error). On the
//!   `f64` shadow, the shipped fused compilation is compared with the
//!   unfused one, both compacted as shipped. On the double-double
//!   shadow, the shipped stream (fusion and compaction on) is compared
//!   with itself with each
//!   `FAddTo`/`FAddToK` expanded back into its `FLoad` ; `FAdd` ;
//!   `FStore` window, each `FAbsMulC` into its `FMul` ; `FIntr1 Fabs` ;
//!   `FMulC` window and each `FAddAccK` into its `FAdd` ; `FAddToK`
//!   pair: other fused forms (`FMulAdd`, …) sample one local error where
//!   their unfused pair samples two, which only a shadow more precise
//!   than `f64` can tell apart.
//! * A dispatch-count gate: each adjoint's `instrs_executed` on a small
//!   fixed input is pinned exactly, below the count before the last
//!   fusion that moved it, so a lost fusion or optimization fails here
//!   without a clock; `tape_total_pushes` is pinned alongside, at or
//!   below its count then.
//! * The same gate on the primals the adjoints differentiate, compiled
//!   as shipped at their declared precisions and with every float
//!   (arrays included) demoted to `f32`, on the same inputs, run on the
//!   plain VM and on the `f64` and double-double shadows.

use chef_core::prelude::{estimate_error, ErrorEstimator, EstimateOptions};
use chef_exec::bytecode::{FReg, IReg, Instr};
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_exec::shadow::{run_shadow, ShadowNum, ShadowOutcome};
use chef_ir::ast::Program;
use chef_ir::types::{FloatTy, Type};
use chef_shadow::DD;

/// One kernel's estimator with the arguments of one run: the primal
/// inputs, then zeroed adjoint seeds, `_fp_error`, `_primal_out` and the
/// attribution table, in the order `ErrorEstimator::execute` appends
/// them.
struct Case {
    label: &'static str,
    est: ErrorEstimator,
    args: Vec<ArgValue>,
    /// The primal the estimator differentiates, and its arguments.
    primal: (chef_ir::ast::Function, Vec<ArgValue>),
}

fn cases() -> Vec<Case> {
    let kernels: [(&str, Program, &str, Vec<ArgValue>); 5] = [
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
    ];
    kernels
        .into_iter()
        .map(|(label, program, name, primal)| {
            let mut opts = EstimateOptions::default();
            if label == "kmeans" {
                opts = opts
                    .with_array_len("attributes", "npoints * nfeatures")
                    .with_array_len("clusters", "nclusters * nfeatures");
            }
            let est = estimate_error(&program, name, &opts)
                .unwrap_or_else(|e| panic!("{label}: estimator builds: {e}"));
            let function = program.function(name).expect("kernel is defined").clone();
            let mut args = primal.clone();
            args.extend(primal.iter().filter_map(|a| match a {
                ArgValue::F(_) => Some(ArgValue::F(0.0)),
                ArgValue::FArr(v) => Some(ArgValue::FArr(vec![0.0; v.len()])),
                _ => None,
            }));
            args.push(ArgValue::F(0.0));
            args.push(ArgValue::F(0.0));
            args.push(ArgValue::FArr(vec![0.0; est.slots().len()]));
            Case {
                label,
                est,
                args,
                primal: (function, primal),
            }
        })
        .collect()
}

/// The adjoint compiled as shipped (compaction and packing on), fused or
/// not.
fn compiled(case: &Case, precisions: PrecisionMap, fuse: bool) -> CompiledFunction {
    compiled_fn(case, &case.est.grad, precisions, fuse)
}

/// `func` compiled as shipped (compaction and packing on), fused or not.
fn compiled_fn(
    case: &Case,
    func: &chef_ir::ast::Function,
    precisions: PrecisionMap,
    fuse: bool,
) -> CompiledFunction {
    compile(
        func,
        &CompileOptions {
            precisions,
            fuse,
            cfg: true,
            pack: true,
        },
    )
    .unwrap_or_else(|e| panic!("{}: {} compiles: {e}", case.label, func.name))
}

/// Every float scalar of the adjoint demoted to `f32`; arrays untouched.
fn scalars_demoted(case: &Case) -> PrecisionMap {
    let mut pm = PrecisionMap::empty();
    for (id, v) in case.est.grad.vars_iter() {
        if let Type::Float(_) = v.ty {
            pm.set(id, FloatTy::F32);
        }
    }
    pm
}

/// The parts of a shadow outcome fusion must not move, with every float
/// as its bits. Left out: `samples` and the split `pc`s, indexed by pc,
/// which fusion renumbers, and `nonfinite_samples`, which counts
/// non-finite samples per instruction, so an `FMulAdd` counts once where
/// its unfused pair counts twice.
fn observable(o: &ShadowOutcome) -> impl PartialEq + std::fmt::Debug {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let args: Vec<String> = o
        .args
        .iter()
        .map(|a| match a {
            ArgValue::F(x) => format!("{:x}", x.to_bits()),
            ArgValue::FArr(v) => {
                format!("{:x?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            }
            other => format!("{other:?}"),
        })
        .collect();
    let var_error: Vec<(String, u64)> = o
        .var_error
        .iter()
        .map(|(n, e)| (n.clone(), e.to_bits()))
        .collect();
    (
        (bits(o.ret_error), bits(o.shadow_ret), args, var_error),
        o.acc_error.to_bits(),
        (o.divergence_count, o.var_divergence.clone()),
    )
}

/// The jump target of `ins`, if it has one.
fn target_mut(ins: &mut Instr) -> Option<&mut u32> {
    use Instr::*;
    match ins {
        Jmp { target }
        | JmpIfFalse { target, .. }
        | JmpIfTrue { target, .. }
        | FCmpJmpFalse { target, .. }
        | FCmpJmpTrue { target, .. }
        | ICmpJmpFalse { target, .. }
        | ICmpJmpTrue { target, .. }
        | ICmpImmJmpFalse { target, .. }
        | ICmpImmJmpTrue { target, .. } => Some(target),
        _ => None,
    }
}

/// `ins` with every fused accumulation or error term expanded back into
/// its window through the unnamed registers `u`, `w` and `t`.
fn expand(ins: &Instr, (u, w, t): (FReg, FReg, IReg)) -> Vec<Instr> {
    match *ins {
        Instr::FAddTo { arr, idx, src } => vec![
            Instr::FLoad { dst: u, arr, idx },
            Instr::FAdd {
                dst: w,
                a: u,
                b: src,
            },
            Instr::FStore { arr, idx, src: w },
        ],
        Instr::FAddToK { arr, k, src } => {
            let mut window = vec![Instr::IConst { dst: t, v: k }];
            window.extend(expand(&Instr::FAddTo { arr, idx: t, src }, (u, w, t)));
            window
        }
        Instr::FAbsMulC { dst, a, k, b } => vec![
            Instr::FMul { dst: u, a, b },
            Instr::FIntr1 {
                dst: w,
                intr: chef_ir::ast::Intrinsic::Fabs,
                a: u,
            },
            Instr::FMulC { dst, a: w, k },
        ],
        Instr::FAddAccK { acc, k, src, arr } => {
            let mut window = vec![Instr::FAdd {
                dst: acc,
                a: acc,
                b: src,
            }];
            window.extend(expand(&Instr::FAddToK { arr, k, src }, (u, w, t)));
            window
        }
        ref other => vec![other.clone()],
    }
}

/// `f` with every `FAddTo`/`FAddToK`/`FAbsMulC`/`FAddAccK` expanded back
/// into its window through fresh unnamed registers, re-packed.
fn accumulates_expanded(f: &CompiledFunction) -> CompiledFunction {
    let fresh = (FReg(f.n_fregs), FReg(f.n_fregs + 1), IReg(f.n_iregs));
    let mut out = f.clone();
    out.instrs.clear();
    out.spans.clear();
    let mut remap = Vec::with_capacity(f.instrs.len() + 1);
    for (ins, &span) in f.instrs.iter().zip(&f.spans) {
        remap.push(out.instrs.len() as u32);
        let window = expand(ins, fresh);
        out.spans.extend(std::iter::repeat_n(span, window.len()));
        out.instrs.extend(window);
    }
    remap.push(out.instrs.len() as u32);
    for ins in &mut out.instrs {
        if let Some(target) = target_mut(ins) {
            *target = remap[*target as usize];
        }
    }
    out.n_fregs += 2;
    out.n_iregs += 1;
    out.packed = chef_exec::pack::pack_function(&out);
    out
}

/// Runs `a` and `b` on the `S` shadow; asserts their outcomes agree on
/// everything fusion must not move, and returns whether any error was
/// charged to a variable.
fn assert_shadow_unmoved<S: ShadowNum>(
    case: &Case,
    [a, b]: [&CompiledFunction; 2],
    what: &str,
) -> bool {
    let opts = ExecOptions::default();
    let [a, b] = [a, b].map(|f| {
        run_shadow::<S>(f, case.args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{} {what} trapped: {t}", case.label))
    });
    assert_eq!(
        observable(&a),
        observable(&b),
        "{} {what}: shadow outcome differs",
        case.label
    );
    a.var_error.iter().any(|&(_, e)| e != 0.0)
}

#[test]
fn estimator_adjoints_shadow_identically_fused_vs_unfused() {
    for case in cases() {
        let fused = compiled(&case, PrecisionMap::empty(), true);
        for (form, fused_form) in [
            (
                "error term",
                (|i| matches!(i, Instr::FAbsMulC { .. })) as fn(&Instr) -> bool,
            ),
            ("accumulation", |i| matches!(i, Instr::FAddAccK { .. })),
        ] {
            assert!(
                fused.instrs.iter().any(fused_form),
                "{}: no {form} fused — test is vacuous",
                case.label
            );
        }
        let demoted = scalars_demoted(&case);
        for (pm, what) in [(PrecisionMap::empty(), "declared"), (demoted, "demoted")] {
            let [unfused, shipped] = [false, true].map(|fuse| compiled(&case, pm.clone(), fuse));
            assert_shadow_unmoved::<f64>(&case, [&shipped, &unfused], &format!("{what}/f64"));
            let expanded = accumulates_expanded(&shipped);
            let charged =
                assert_shadow_unmoved::<DD>(&case, [&shipped, &expanded], &format!("{what}/dd"));
            assert!(charged, "{} {what}/dd: nothing charged", case.label);
        }
    }
}

/// `(kernel, instrs_executed, tape_total_pushes)` of one run of the
/// estimator adjoint compiled with fusion and compaction on.
const PINNED_COUNTS: [(&str, u64, u64); 5] = [
    ("arclen", 104_031, 8_503),
    ("simpsons", 49_015, 3_998),
    ("kmeans", 70_575, 6_532),
    ("blackscholes", 9_355, 1_002),
    ("hpccg", 127_363, 6_675),
];

/// `(instrs_executed, tape_total_pushes)` of the same runs before
/// `IConst` ; `ISub` fused into `IAddImm` (the backward loops' step
/// `v = v - 1`), same kernel order: each pinned dispatch count must stay
/// below, and each tape count at or below.
const BEFORE_SUB_IMM: [(u64, u64); 5] = [
    (107_031, 8_503),
    (50_014, 3_998),
    (73_175, 6_532),
    (9_405, 1_002),
    (132_839, 6_675),
];

#[test]
fn estimator_adjoint_dispatch_counts_are_pinned() {
    let actual: Vec<(&str, u64, u64)> = cases()
        .iter()
        .map(|case| {
            let f = compiled(case, PrecisionMap::empty(), true);
            let out = chef_exec::vm::run_with(&f, case.args.clone(), &ExecOptions::default())
                .unwrap_or_else(|t| panic!("{}: trapped: {t}", case.label));
            (
                case.label,
                out.stats.instrs_executed,
                out.stats.tape_total_pushes,
            )
        })
        .collect();
    assert_eq!(actual, PINNED_COUNTS, "dispatch or tape counts moved");
    for ((label, now, pushes), (before, pushed)) in PINNED_COUNTS.iter().zip(BEFORE_SUB_IMM) {
        assert!(*now < before, "{label}: {now} is not below {before}");
        assert!(
            *pushes <= pushed,
            "{label}: {pushes} pushes, {pushed} before"
        );
    }
}

/// `(kernel, primal, f32-demoted primal)` `instrs_executed` of one run of
/// each primal compiled with fusion and compaction on, on the inputs of
/// [`PINNED_COUNTS`].
const PINNED_PRIMAL_COUNTS: [(&str, u64, u64); 5] = [
    ("arclen", 24_508, 25_008),
    ("simpsons", 16_506, 17_507),
    ("kmeans", 20_334, 22_434),
    ("blackscholes", 1_541, 1_691),
    ("hpccg", 41_900, 127_934),
];

/// `(kernel, primal, f32-demoted primal)` dispatch counts of each primal
/// compiled as shipped, each from two back-to-back runs of `run` that
/// must agree: the count is a property of the code and the input, not
/// of the machine's state.
fn primal_counts(
    what: &str,
    run: impl Fn(&CompiledFunction, &[ArgValue]) -> u64,
) -> Vec<(&'static str, u64, u64)> {
    cases()
        .iter()
        .map(|case| {
            let (func, args) = &case.primal;
            let demoted = PrecisionMap::demote_all(func, FloatTy::F32);
            let [primal, demoted] = [PrecisionMap::empty(), demoted].map(|pm| {
                let f = compiled_fn(case, func, pm, true);
                let [a, b] = [(); 2].map(|()| run(&f, args));
                assert_eq!(
                    a, b,
                    "{} {what}: two runs dispatched differently",
                    case.label
                );
                a
            });
            (case.label, primal, demoted)
        })
        .collect()
}

#[test]
fn primal_and_demoted_dispatch_counts_are_pinned() {
    let actual = primal_counts("vm", |f, args| {
        chef_exec::vm::run_with(f, args.to_vec(), &ExecOptions::default())
            .unwrap_or_else(|t| panic!("{}: trapped: {t}", f.name))
            .stats
            .instrs_executed
    });
    assert_eq!(actual, PINNED_PRIMAL_COUNTS, "primal dispatch counts moved");
}

/// `instrs_executed` of one `S`-shadow run of `f`.
fn shadow_dispatches<S: ShadowNum>(f: &CompiledFunction, args: &[ArgValue]) -> u64 {
    run_shadow::<S>(f, args.to_vec(), &ExecOptions::default())
        .unwrap_or_else(|t| panic!("{}: shadow trapped: {t}", f.name))
        .stats
        .instrs_executed
}

/// The shadow lanes run the same compiled primals through the one
/// dispatch loop, and the primal operands decide every branch, so their
/// dispatch counts are pinned to [`PINNED_PRIMAL_COUNTS`] for the `f64`
/// and the double-double shadow alike.
#[test]
fn shadow_dispatch_counts_are_pinned() {
    let f64_lane = primal_counts("f64", shadow_dispatches::<f64>);
    assert_eq!(f64_lane, PINNED_PRIMAL_COUNTS, "f64 shadow counts moved");
    let dd_lane = primal_counts("dd", shadow_dispatches::<DD>);
    assert_eq!(dd_lane, PINNED_PRIMAL_COUNTS, "DD shadow counts moved");
}

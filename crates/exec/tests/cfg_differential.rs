//! Differential test: the CFG optimizer tier must be unobservable.
//!
//! Every `chef-apps` kernel is compiled twice — CFG tier off and on —
//! and executed on the same workload, in three configurations (primal at
//! declared precisions, primal with every float demoted to `f32`, and
//! the reverse-AD adjoint).
//!
//! The two compilations must agree **bit-for-bit** on the return value
//! and every output argument, and exactly on the tape/memory counters.
//! `instrs_executed` may shrink (LICM's whole point) but not grow on
//! these loop-heavy kernels.
//!
//! In shadow mode the divergence *report* must also be preserved: the
//! same split count, the same decision sequence (operator, operands,
//! taken/would-take), and the same per-variable attribution. Only the
//! `pc`/`at_instr` coordinates of a split may move (hoisting relocates
//! instructions), and only the *local-error accounting* may differ (a
//! hoisted rounding op contributes one preheader sample instead of one
//! per iteration) — neither is part of the decision record.
//!
//! Randomly generated branching kernels (bounded loops, near-tie float
//! compares) and deterministic fault-injection schedules round out the
//! suite: recovery paths must observe the same outcome kinds and the
//! same number of plan draws whether or not the tier ran.
//!
//! Every CFG-optimized candidate runs under an instruction budget of 10×
//! what its unoptimized run executed, so a miscompiled loop fails with
//! `InstrBudgetExhausted` instead of hanging. The optimized bytecode
//! itself is pinned by fingerprint per kernel and mode.

use chef_exec::cfg;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::fault::{FaultKind, FaultPlan};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_ir::ast::{Function, Program};
use chef_ir::types::{ElemTy, FloatTy, Type};
use chef_passes::testgen::{generate, licm_kernel, GenConfig, SplitMix};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Demotes every float variable (scalar and array) to `f32`.
fn demote_all(func: &Function) -> PrecisionMap {
    let mut pm = PrecisionMap::empty();
    for (id, v) in func.vars_iter() {
        if let Type::Float(_) | Type::Array(ElemTy::Float(_)) = v.ty {
            pm.set(id, FloatTy::F32);
        }
    }
    pm
}

/// Compiles `func` with the CFG tier off and on (everything else equal,
/// fusion pinned on so both sides see the same input stream).
fn compile_pair(
    func: &Function,
    pm: &PrecisionMap,
) -> (
    chef_exec::bytecode::CompiledFunction,
    chef_exec::bytecode::CompiledFunction,
) {
    let mk = |cfg_on: bool| {
        compile(
            func,
            &CompileOptions {
                precisions: pm.clone(),
                fuse: true,
                cfg: cfg_on,
                pack: true,
            },
        )
        .expect("kernel compiles")
    };
    (mk(false), mk(true))
}

fn big_opts() -> ExecOptions {
    ExecOptions {
        max_instrs: Some(500_000_000),
        ..Default::default()
    }
}

/// Options for the CFG-optimized candidate: `base` with an instruction
/// budget of 10× what the unoptimized run executed, so a miscompiled
/// loop traps with `InstrBudgetExhausted` instead of hanging the suite.
fn candidate_opts(base: &ExecOptions, unoptimized_instrs: u64) -> ExecOptions {
    ExecOptions {
        max_instrs: Some(10 * unoptimized_instrs.max(1)),
        ..base.clone()
    }
}

fn assert_args_bit_equal(label: &str, a: &[ArgValue], b: &[ArgValue]) {
    assert_eq!(a.len(), b.len(), "{label}: arg count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
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
}

/// Runs `func` compiled with the CFG tier off and on; asserts the
/// outcomes are indistinguishable except for a (never larger)
/// instruction count.
fn assert_cfg_unobservable(label: &str, func: &Function, pm: &PrecisionMap, args: &[ArgValue]) {
    let (off, on) = compile_pair(func, pm);
    let opts = big_opts();
    let a = run_with(&off, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: cfg-off trapped: {t}"));
    let b = run_with(
        &on,
        args.to_vec(),
        &candidate_opts(&opts, a.stats.instrs_executed),
    )
    .unwrap_or_else(|t| panic!("{label}: cfg-on trapped: {t}"));

    match (&a.ret, &b.ret) {
        (Some(Value::F(x)), Some(Value::F(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: float return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: return differs"),
    }
    assert_args_bit_equal(label, &a.args, &b.args);
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
        "{label}: CFG tier increased instruction count ({} > {})",
        b.stats.instrs_executed,
        a.stats.instrs_executed
    );
}

/// Runs the f64-shadow oracle over both compilations; asserts the primal
/// stream and the divergence *decisions* are preserved. Split
/// coordinates (`pc`, `at_instr`) and local-error accounting
/// (`acc_error`, `samples`, `var_error`) may legitimately differ — a
/// hoisted instruction lives at a new pc and executes once per loop
/// entry instead of once per iteration.
fn assert_cfg_shadow_unobservable(
    label: &str,
    func: &Function,
    pm: &PrecisionMap,
    args: &[ArgValue],
) {
    let label = format!("{label}/shadow");
    let (off, on) = compile_pair(func, pm);
    let opts = big_opts();
    let sa = run_shadow::<f64>(&off, args.to_vec(), &opts)
        .unwrap_or_else(|t| panic!("{label}: cfg-off trapped: {t}"));
    let sb = run_shadow::<f64>(
        &on,
        args.to_vec(),
        &candidate_opts(&opts, sa.stats.instrs_executed),
    )
    .unwrap_or_else(|t| panic!("{label}: cfg-on trapped: {t}"));

    match (&sa.ret, &sb.ret) {
        (Some(Value::F(x)), Some(Value::F(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: primal return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: primal return differs"),
    }
    match (sa.shadow_ret, sb.shadow_ret) {
        (Some(x), Some(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: shadow return differs")
        }
        (x, y) => assert_eq!(x, y, "{label}: shadow return differs"),
    }
    assert_args_bit_equal(&label, &sa.args, &sb.args);
    assert_eq!(
        sa.divergence_count, sb.divergence_count,
        "{label}: split count differs"
    );
    let ka: Vec<_> = sa.divergence.iter().map(|d| d.kind).collect();
    let kb: Vec<_> = sb.divergence.iter().map(|d| d.kind).collect();
    assert_eq!(ka, kb, "{label}: split decision sequence differs");
    assert_eq!(
        sa.var_divergence, sb.var_divergence,
        "{label}: per-variable split attribution differs"
    );
}

#[test]
fn primal_kernels_are_bit_identical_cfg_on_vs_off() {
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        assert_cfg_unobservable(label, &func, &PrecisionMap::empty(), &args);
    }
}

#[test]
fn fully_demoted_kernels_are_bit_identical_cfg_on_vs_off() {
    // Demotion floods the stream with F*Round forms — the Class B
    // (guard-requiring) hoist candidates.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = demote_all(&func);
        assert_cfg_unobservable(&format!("{label}/demoted"), &func, &pm, &args);
    }
}

#[test]
fn adjoint_kernels_are_bit_identical_cfg_on_vs_off() {
    // The analysis hot path: reverse-AD adjoints with tape traffic. LICM
    // must not reorder anything across TPush/TPop.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = match chef_ad::reverse::reverse_diff(&func) {
            Ok(g) => g,
            Err(e) => panic!("{label}: reverse_diff failed: {e}"),
        };
        let mut grad_args = args.to_vec();
        for a in &args {
            match a {
                ArgValue::F(_) => grad_args.push(ArgValue::F(0.0)),
                ArgValue::FArr(v) => grad_args.push(ArgValue::FArr(vec![0.0; v.len()])),
                _ => {}
            }
        }
        assert_cfg_unobservable(
            &format!("{label}/adjoint"),
            &grad,
            &PrecisionMap::empty(),
            &grad_args,
        );
    }
}

#[test]
fn demoted_kernels_preserve_the_shadow_divergence_report() {
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = demote_all(&func);
        assert_cfg_shadow_unobservable(label, &func, &pm, &args);
    }
}

#[test]
fn arclen_licm_actually_hoists_and_shrinks_the_run() {
    // The acceptance anchor: on arclen the tier must *do* something —
    // hoist at least one invariant op and strictly reduce the dynamic
    // instruction count — not just be harmless.
    let func = inlined_kernel(&chef_apps::arclen::program(), chef_apps::arclen::NAME);
    let args = chef_apps::arclen::args(500);
    let (off, on) = compile_pair(&func, &PrecisionMap::empty());

    let mut opt = off.clone();
    let stats = cfg::optimize(&mut opt);
    assert!(stats.reducible, "arclen's CFG is reducible");
    assert!(
        stats.hoisted >= 1,
        "arclen must yield at least one LICM hoist, got {stats:?}"
    );
    // One round applies the plan, the next finds nothing left to hoist.
    assert_eq!(stats.rounds, 2, "{stats:?}");

    let opts = big_opts();
    let a = run_with(&off, args.clone(), &opts).expect("cfg-off runs");
    let b =
        run_with(&on, args, &candidate_opts(&opts, a.stats.instrs_executed)).expect("cfg-on runs");
    assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    assert!(
        b.stats.instrs_executed < a.stats.instrs_executed,
        "LICM did not shrink arclen's dynamic count ({} >= {})",
        b.stats.instrs_executed,
        a.stats.instrs_executed
    );
}

/// Renaming a hoisted def to a fresh register can push an `FMulAdd`
/// addend past its 8-bit packed field. The tier must then undo its
/// hoists, so the function still packs and `compile` still succeeds.
/// Forward-mode derivatives of the generated programs carry enough
/// float registers to hit this on some seeds.
#[test]
fn cfg_tier_undoes_hoists_that_would_not_pack() {
    let mut undone = 0;
    for seed in 0..120 {
        let g = generate(seed, &GenConfig::default());
        let fwd = chef_ad::forward::forward_diff(&g.function, "x")
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Fusion pinned on: it is what forms the `FMulAdd`s.
        let mut c = compile(
            &fwd,
            &CompileOptions {
                precisions: PrecisionMap::empty(),
                fuse: true,
                cfg: false,
                pack: false,
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let stats = cfg::optimize(&mut c);
        assert!(
            c.instrs.iter().all(chef_exec::pack::fits),
            "seed {seed}: the tier left an unpackable instruction"
        );
        if stats.hoists_undone {
            undone += 1;
            assert_eq!(stats.hoisted, 0, "seed {seed}");
        }
        let full = CompileOptions {
            precisions: PrecisionMap::empty(),
            fuse: true,
            cfg: true,
            pack: true,
        };
        compile(&fwd, &full).unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
    }
    assert!(
        undone > 0,
        "no seed exercised the undo: the test is vacuous"
    );
}

// ------------------------------------------------------ fault injection

/// Drives `n` calls through identical [`FaultPlan`] schedules with the
/// tier off and on; every call must resolve to the same outcome shape
/// (same return bits, or a trap of the same kind) and the two plans must
/// have drawn the same number of ordinals.
fn assert_fault_schedule_agrees(label: &str, kind: FaultKind, period: u64, phase: u64) {
    // simpsons' first parameter is a float — required for the Nan kind,
    // which poisons the first float argument after binding.
    let func = inlined_kernel(&chef_apps::simpsons::program(), chef_apps::simpsons::NAME);
    let (off, on) = compile_pair(&func, &PrecisionMap::empty());
    let plan_off = FaultPlan::new(Some(kind), period, phase, 1_000);
    let plan_on = FaultPlan::new(Some(kind), period, phase, 1_000);
    let opts_off = ExecOptions {
        fault: Some(plan_off.clone()),
        ..big_opts()
    };
    let clean = run_with(&off, chef_apps::simpsons::args(200), &big_opts())
        .unwrap_or_else(|t| panic!("{label}: clean cfg-off run trapped: {t}"));
    let opts_on = ExecOptions {
        fault: Some(plan_on.clone()),
        ..candidate_opts(&big_opts(), clean.stats.instrs_executed)
    };

    let n = 9;
    let mut fired = 0;
    for call in 0..n {
        let args = chef_apps::simpsons::args(200);
        let a = catch_unwind(AssertUnwindSafe(|| run_with(&off, args.clone(), &opts_off)));
        let b = catch_unwind(AssertUnwindSafe(|| run_with(&on, args, &opts_on)));
        match (a, b) {
            (Ok(Ok(x)), Ok(Ok(y))) => {
                assert_eq!(
                    x.ret_f().to_bits(),
                    y.ret_f().to_bits(),
                    "{label}: call {call} results differ"
                );
            }
            (Ok(Err(ta)), Ok(Err(tb))) => {
                fired += 1;
                assert_eq!(
                    std::mem::discriminant(&ta.kind),
                    std::mem::discriminant(&tb.kind),
                    "{label}: call {call} trap kinds differ ({:?} vs {:?})",
                    ta.kind,
                    tb.kind
                );
            }
            (Err(_), Err(_)) => fired += 1, // both sides panicked (Panic kind)
            (a, b) => panic!(
                "{label}: call {call} outcomes diverge: cfg-off {:?} vs cfg-on {:?}",
                a.map(|r| r.map(|o| o.ret)),
                b.map(|r| r.map(|o| o.ret))
            ),
        }
    }
    assert!(fired > 0, "{label}: schedule never fired — test is vacuous");
    assert_eq!(plan_off.draws(), n, "{label}: cfg-off draw count");
    assert_eq!(plan_on.draws(), n, "{label}: cfg-on draw count");
}

#[test]
fn fault_injection_schedules_agree_cfg_on_vs_off() {
    assert_fault_schedule_agrees("fault/trap", FaultKind::Trap, 3, 1);
    assert_fault_schedule_agrees("fault/nan", FaultKind::Nan, 4, 2);
    assert_fault_schedule_agrees("fault/panic", FaultKind::Panic, 4, 0);
}

// ------------------------------------------------- random branching kernels

fn compiled_cfg_pair(
    src: &str,
    demote_all_to: Option<FloatTy>,
) -> (
    chef_exec::bytecode::CompiledFunction,
    chef_exec::bytecode::CompiledFunction,
) {
    let mut p = chef_ir::parser::parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    chef_ir::typeck::check_program(&mut p).unwrap_or_else(|e| panic!("{e:?}\n{src}"));
    let func = &p.functions[0];
    let mut pm = PrecisionMap::empty();
    if let Some(ty) = demote_all_to {
        for (id, v) in func.vars_iter() {
            if v.ty.is_differentiable() {
                pm.set(id, ty);
            }
        }
    }
    let mk = |cfg_on: bool| {
        compile(
            func,
            &CompileOptions {
                precisions: pm.clone(),
                fuse: true,
                cfg: cfg_on,
                pack: true,
            },
        )
        .unwrap_or_else(|e| panic!("{e:?}\n{src}"))
    };
    (mk(false), mk(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branching_kernels_are_bit_identical_cfg_on_vs_off(seed in 0u64..(1u64 << 60)) {
        let mut g = SplitMix(seed | 1);
        let src = licm_kernel(&mut g);
        let demote = if g.below(2) == 0 { Some(FloatTy::F32) } else { None };
        let (off, on) = compiled_cfg_pair(&src, demote);
        let args = vec![ArgValue::F(g.lit()), ArgValue::F(g.lit())];
        let opts = ExecOptions {
            max_instrs: Some(1_000_000),
            ..Default::default()
        };
        // Primal: identical results. No instruction-count assertion here —
        // on a zero-trip loop the preheader guard is pure overhead (a
        // handful of instructions), which is fine; only bits matter.
        let a = run_with(&off, args.clone(), &opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        let on_opts = candidate_opts(&opts, a.stats.instrs_executed);
        let b = run_with(&on, args.clone(), &on_opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "{}", src);
        // Shadow: identical divergence decisions and attribution.
        let sa = run_shadow::<f64>(&off, args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        let sb = run_shadow::<f64>(&on, args, &on_opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(sa.ret_f().to_bits(), sb.ret_f().to_bits(), "{}", src);
        prop_assert_eq!(
            sa.shadow_f().to_bits(), sb.shadow_f().to_bits(), "{}", src
        );
        prop_assert_eq!(sa.divergence_count, sb.divergence_count, "{}", src);
        let ka: Vec<_> = sa.divergence.iter().map(|d| d.kind).collect();
        let kb: Vec<_> = sb.divergence.iter().map(|d| d.kind).collect();
        prop_assert_eq!(ka, kb, "{}", src);
        prop_assert_eq!(&sa.var_divergence, &sb.var_divergence, "{}", src);
        // And without demotion the f64 shadow can never diverge.
        if demote.is_none() {
            prop_assert_eq!(sb.divergence_count, 0, "{}", src);
        }
    }
}

// ------------------------------------------------------------ golden dump

/// `repro --cfg arclen` debug surface, pinned: the block/loop structure
/// the tier sees and the ops it hoists must not drift silently.
#[test]
fn arclen_cfg_dump_is_pinned() {
    let func = inlined_kernel(&chef_apps::arclen::program(), chef_apps::arclen::NAME);
    let c = compile(
        &func,
        &CompileOptions {
            precisions: PrecisionMap::empty(),
            fuse: true,
            pack: false,
            cfg: false,
        },
    )
    .expect("arclen compiles");
    let dump = cfg::dump(&c);
    assert_eq!(dump, GOLDEN_ARCLEN_DUMP, "\nactual dump:\n{dump}");

    let mut opt = c.clone();
    let stats = cfg::optimize(&mut opt);
    assert_eq!(
        stats.hoisted_ops, GOLDEN_ARCLEN_HOISTS,
        "\nactual hoists:\n{:#?}",
        stats.hoisted_ops
    );
}

const GOLDEN_ARCLEN_DUMP: &str = "\
cfg arclen: 30 instrs, 8 blocks
  b0: pc 0..6 preds=[] succs=[1] idom=b0
  b1: pc 6..7 preds=[0, 5] succs=[6, 2] idom=b0
  b2: pc 7..12 preds=[1] succs=[3] idom=b1
  b3: pc 12..13 preds=[2, 4] succs=[5, 4] idom=b2
  b4: pc 13..20 preds=[3] succs=[3] idom=b3
  b5: pc 20..28 preds=[3] succs=[1] idom=b3
  b6: pc 28..29 preds=[1] succs=[] idom=b1
  b7: pc 29..30 preds=[] succs=[] idom=-
  loops: 2
    header=b3 blocks=[3, 4] latches=[4]
    header=b1 blocks=[1, 2, 3, 4, 5] latches=[5]
";

const GOLDEN_ARCLEN_HOISTS: &[&str] = &["FMul { dst: FReg(12), a: FReg(0), b: FReg(0) }"];

// ------------------------------------------------- golden output pins

/// FNV-1a over everything `cfg::optimize` writes: the instruction and
/// span streams, the three register-file sizes, the parameter homes and
/// the named float registers.
fn fingerprint(f: &chef_exec::bytecode::CompiledFunction) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ins in &f.instrs {
        eat(format!("{ins:?}").as_bytes());
    }
    for s in &f.spans {
        eat(&s.lo.to_le_bytes());
        eat(&s.hi.to_le_bytes());
    }
    for n in [f.n_fregs, f.n_iregs, f.n_aregs] {
        eat(&n.to_le_bytes());
    }
    for p in &f.params {
        eat(&p.reg.to_le_bytes());
    }
    for (r, name) in &f.fvar_names {
        eat(&r.to_le_bytes());
        eat(name.as_bytes());
    }
    h
}

/// The CFG tier's output is pinned byte for byte: each kernel in each
/// mode is compiled with the tier off, run through `cfg::optimize`, and
/// its fingerprint and hoist count must match the table. A rewrite of
/// the tier's analyses that changes any emitted instruction, register
/// number or span fails here.
#[test]
fn cfg_output_is_pinned_on_every_kernel_and_mode() {
    let mut actual: Vec<(String, u64, u32)> = Vec::new();
    for (label, program, name, _) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = chef_ad::reverse::reverse_diff(&func)
            .unwrap_or_else(|e| panic!("{label}: reverse_diff failed: {e}"));
        let modes = [
            ("primal", &func, PrecisionMap::empty()),
            ("demoted", &func, demote_all(&func)),
            ("adjoint", &grad, PrecisionMap::empty()),
        ];
        for (mode, f, pm) in modes {
            let mut c = compile(
                f,
                &CompileOptions {
                    precisions: pm,
                    fuse: true,
                    cfg: false,
                    pack: false,
                },
            )
            .expect("kernel compiles");
            let stats = cfg::optimize(&mut c);
            actual.push((format!("{label}/{mode}"), fingerprint(&c), stats.hoisted));
        }
    }
    let table: String = actual
        .iter()
        .map(|(l, fp, h)| format!("    (\"{l}\", 0x{fp:016x}, {h}),\n"))
        .collect();
    let expected: Vec<(String, u64, u32)> = GOLDEN_CFG_OUTPUT
        .iter()
        .map(|&(l, fp, h)| (l.to_string(), fp, h))
        .collect();
    assert_eq!(actual, expected, "\nactual table:\n{table}");
}

/// `(kernel/mode, fingerprint of the optimized function, hoisted)`.
const GOLDEN_CFG_OUTPUT: &[(&str, u64, u32)] = &[
    ("arclen/primal", 0x824763be46728cbb, 1),
    ("arclen/demoted", 0x7021ae78ddffd081, 1),
    ("arclen/adjoint", 0x1ff0fc46a7f308a8, 1),
    ("simpsons/primal", 0x7a1387d9b40528d2, 3),
    ("simpsons/demoted", 0x6af5d9f8f133cdf3, 3),
    ("simpsons/adjoint", 0x8bfa5ce65915617c, 4),
    ("kmeans/primal", 0xfcd4614a9050c91d, 3),
    ("kmeans/demoted", 0x2ead13056aa739bd, 6),
    ("kmeans/adjoint", 0xc5a8d600d379b592, 3),
    ("blackscholes/primal", 0xeaf97e8db24a9d0d, 0),
    ("blackscholes/demoted", 0x5e2de2df11b35e48, 0),
    ("blackscholes/adjoint", 0x35a1c12dbb2908ef, 1),
    ("hpccg/primal", 0x801603f66dc44651, 1),
    ("hpccg/demoted", 0x95067ff36d94385b, 5),
    ("hpccg/adjoint", 0xfe13b8d3fd30459d, 1),
];

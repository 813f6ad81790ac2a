//! Differential test: the compaction tier ([`chef_exec::cfg`]) must be
//! unobservable.
//!
//! Every `chef-apps` kernel is compiled twice — tier off and on — and
//! executed on the same workload, in three configurations (primal at
//! declared precisions, primal with every float demoted to `f32`, and
//! the reverse-AD adjoint).
//!
//! The two compilations must agree **bit-for-bit** on the return value
//! and every output argument, and exactly on every execution statistic,
//! `instrs_executed` included: compaction renames registers and moves
//! no instruction.
//!
//! In shadow mode the whole outcome must agree: the divergence report
//! (split count, decisions, `pc`/`at_instr` coordinates, per-variable
//! attribution) and the local-error accounting (per-pc samples,
//! per-variable tables, `acc_error`).
//!
//! Randomly generated branching kernels (bounded loops, near-tie float
//! compares) and deterministic fault-injection schedules round out the
//! suite: recovery paths must observe the same outcome kinds and the
//! same number of plan draws whether or not the tier ran.
//!
//! Every compacted candidate runs under an instruction budget of 10×
//! what its uncompacted run executed, so a miscompiled loop fails with
//! `InstrBudgetExhausted` instead of hanging. The compacted bytecode
//! itself is pinned by fingerprint per kernel and mode.

use chef_exec::cfg;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::fault::{FaultKind, FaultPlan};
use chef_exec::prelude::*;
use chef_exec::shadow::run_shadow;
use chef_ir::ast::{Function, Program};
use chef_ir::types::FloatTy;
use chef_passes::testgen::{invariant_loop_kernel, SplitMix};
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

/// Compiles `func` with the tier off and on (everything else equal,
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

/// Options for the compacted candidate: `base` with an instruction
/// budget of 10× what the uncompacted run executed, so a miscompiled
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

/// Runs `func` compiled with the tier off and on; asserts the outcomes
/// are indistinguishable.
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
    assert_eq!(a.stats, b.stats, "{label}: execution statistics differ");
}

/// Runs the f64-shadow oracle over both compilations; asserts the primal
/// and shadow results are bit-identical and the rest of the outcome —
/// statistics, samples, per-variable tables, `acc_error` and the
/// divergence report — is equal.
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
        format!("{sa:?}"),
        format!("{sb:?}"),
        "{label}: shadow outcome differs"
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
    // Demotion floods the stream with F*Round forms.
    for (label, program, name, args) in kernels() {
        let func = inlined_kernel(&program, name);
        let pm = PrecisionMap::demote_all(&func, FloatTy::F32);
        assert_cfg_unobservable(&format!("{label}/demoted"), &func, &pm, &args);
    }
}

#[test]
fn adjoint_kernels_are_bit_identical_cfg_on_vs_off() {
    // The analysis hot path: reverse-AD adjoints with tape traffic.
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
        let pm = PrecisionMap::demote_all(&func, FloatTy::F32);
        assert_cfg_shadow_unobservable(label, &func, &pm, &args);
    }
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
        let src = invariant_loop_kernel(&mut g);
        let demote = if g.below(2) == 0 { Some(FloatTy::F32) } else { None };
        let (off, on) = compiled_cfg_pair(&src, demote);
        let args = vec![ArgValue::F(g.lit()), ArgValue::F(g.lit())];
        let opts = ExecOptions {
            max_instrs: Some(1_000_000),
            ..Default::default()
        };
        // Primal: identical results and counts.
        let a = run_with(&off, args.clone(), &opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        let on_opts = candidate_opts(&opts, a.stats.instrs_executed);
        let b = run_with(&on, args.clone(), &on_opts).unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "{}", src);
        prop_assert_eq!(a.stats, b.stats, "{}", src);
        // Shadow: the same outcome, divergence report and local-error
        // accounting included.
        let sa = run_shadow::<f64>(&off, args.clone(), &opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        let sb = run_shadow::<f64>(&on, args, &on_opts)
            .unwrap_or_else(|t| panic!("{t}\n{src}"));
        prop_assert_eq!(sa.ret_f().to_bits(), sb.ret_f().to_bits(), "{}", src);
        prop_assert_eq!(
            sa.shadow_f().to_bits(), sb.shadow_f().to_bits(), "{}", src
        );
        prop_assert_eq!(format!("{sa:?}"), format!("{sb:?}"), "{}", src);
        // And without demotion the f64 shadow can never diverge.
        if demote.is_none() {
            prop_assert_eq!(sb.divergence_count, 0, "{}", src);
        }
    }
}

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

/// The adjoint `chef_core::estimate_error` compiles for `name`: the
/// reverse sweep with the error model's extension hooks, then constant
/// folding, CSE and DCE.
fn estimator_adjoint(label: &str, program: &Program, name: &str) -> Function {
    let mut opts = chef_core::prelude::EstimateOptions::default();
    if label == "kmeans" {
        opts = opts
            .with_array_len("attributes", "npoints * nfeatures")
            .with_array_len("clusters", "nclusters * nfeatures");
    }
    chef_core::prelude::estimate_error(program, name, &opts)
        .unwrap_or_else(|e| panic!("{label}: estimator builds: {e}"))
        .grad
}

/// The tier's output is pinned byte for byte: each kernel in each mode
/// is compiled with the tier off, run through `cfg::optimize`, and its
/// fingerprint must match the table. A change that moves any emitted
/// instruction, register number or span fails here. The `estimator`
/// mode is the adjoint `estimate_error` ships, so a change to
/// chef-passes or to the error model's hooks fails here too.
#[test]
fn cfg_output_is_pinned_on_every_kernel_and_mode() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (label, program, name, _) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = chef_ad::reverse::reverse_diff(&func)
            .unwrap_or_else(|e| panic!("{label}: reverse_diff failed: {e}"));
        let estimator = estimator_adjoint(label, &program, name);
        let modes = [
            ("primal", &func, PrecisionMap::empty()),
            (
                "demoted",
                &func,
                PrecisionMap::demote_all(&func, FloatTy::F32),
            ),
            ("adjoint", &grad, PrecisionMap::empty()),
            ("estimator", &estimator, PrecisionMap::empty()),
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
            cfg::optimize(&mut c);
            actual.push((format!("{label}/{mode}"), fingerprint(&c)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(l, fp)| format!("    (\"{l}\", 0x{fp:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN_CFG_OUTPUT
        .iter()
        .map(|&(l, fp)| (l.to_string(), fp))
        .collect();
    assert_eq!(actual, expected, "\nactual table:\n{table}");
}

/// `(kernel/mode, fingerprint of the compacted function)`.
const GOLDEN_CFG_OUTPUT: &[(&str, u64)] = &[
    ("arclen/primal", 0xc786f88816a1fe82),
    ("arclen/demoted", 0xfdde8881023fbfad),
    ("arclen/adjoint", 0x098b05ea5f7eede9),
    ("arclen/estimator", 0x5dd720a649857108),
    ("simpsons/primal", 0x8102f2b00c1386f4),
    ("simpsons/demoted", 0xacad77dbc070f088),
    ("simpsons/adjoint", 0x9f60a95a69a2e7f8),
    ("simpsons/estimator", 0xc067f2a9e9de8fdc),
    ("kmeans/primal", 0xa4a79c8ee330017b),
    ("kmeans/demoted", 0x0bc7f85e04c05291),
    ("kmeans/adjoint", 0x6f975736f89a58bd),
    ("kmeans/estimator", 0x29b91feb97af8533),
    ("blackscholes/primal", 0xec663c279fdab2e6),
    ("blackscholes/demoted", 0x5a1ad51dd33f82a8),
    ("blackscholes/adjoint", 0xbabe1591a3493c19),
    ("blackscholes/estimator", 0xec0e372831360ed4),
    ("hpccg/primal", 0xa7cc23bb6d207094),
    ("hpccg/demoted", 0x1ac3ddc343819d96),
    ("hpccg/adjoint", 0xa50251690afbf1d6),
    ("hpccg/estimator", 0x5e616c90e7ab9cb2),
];

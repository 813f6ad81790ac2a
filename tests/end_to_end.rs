//! Workspace-level integration tests: the full CHEF-FP pipeline against
//! the ADAPT baseline on the five paper benchmarks (scaled down for debug
//! builds).

use chef_fp::adapt::{analyze, AdaptOptions};
use chef_fp::apps::{arclen, blackscholes, hpccg, kmeans, simpsons};
use chef_fp::core::prelude::*;
use chef_fp::exec::prelude::*;
use chef_fp::ir::ast::Program;

fn chef_outcome(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    lens: &[(&str, &str)],
) -> (EstimateOutcome, usize) {
    let mut model = AdaptModel::to_f32();
    let mut opts = EstimateOptions::default();
    for (a, l) in lens {
        opts.array_lens.insert((*a).to_string(), (*l).to_string());
    }
    let est = estimate_error_with(program, func, &mut model, &opts).expect("estimator builds");
    let out = est.execute(args).expect("analysis runs");
    let tape = out.stats.tape_peak_bytes;
    (out, tape)
}

fn adapt_outcome(program: &Program, func: &str, args: &[ArgValue]) -> chef_fp::adapt::AdaptOutcome {
    let inlined = chef_fp::passes::inline_program(program).unwrap();
    let primal = inlined.function(func).unwrap();
    analyze(primal, args, &AdaptOptions::default()).expect("baseline runs")
}

/// Deterministic memory counts of one analysis: CHEF-FP's peak tape
/// bytes, and ADAPT's tape entries and peak bytes (entries plus the
/// reverse pass's adjoint vector).
struct Pins {
    chef_tape_peak_bytes: usize,
    adapt_tape_entries: usize,
    adapt_tape_peak_bytes: usize,
}

/// The paper's headline comparison: same estimates, smaller tape, and
/// both tapes pinned exactly (a change that grows either one fails here).
fn compare(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    lens: &[(&str, &str)],
    label: &str,
    pins: Pins,
) {
    let (chef, chef_tape) = chef_outcome(program, func, args, lens);
    let adapt = adapt_outcome(program, func, args);
    assert_eq!(
        (chef_tape, adapt.tape_entries, adapt.tape_peak_bytes),
        (
            pins.chef_tape_peak_bytes,
            pins.adapt_tape_entries,
            pins.adapt_tape_peak_bytes
        ),
        "{label}: (chef tape bytes, adapt entries, adapt peak bytes)"
    );
    // Primal values agree exactly (same arithmetic).
    assert_eq!(chef.value, adapt.value, "{label}: primal mismatch");
    // Estimates agree to rounding (same formula, different association).
    let scale = chef.fp_error.abs().max(adapt.fp_error.abs()).max(1e-300);
    assert!(
        (chef.fp_error - adapt.fp_error).abs() <= 1e-6 * scale,
        "{label}: chef {} vs adapt {}",
        chef.fp_error,
        adapt.fp_error
    );
    // CHEF-FP's TBR tape is strictly smaller than the operation tape.
    assert!(
        chef_tape < adapt.tape_peak_bytes,
        "{label}: chef tape {chef_tape} >= adapt tape {}",
        adapt.tape_peak_bytes
    );
}

#[test]
fn arclen_estimates_agree_with_adapt() {
    compare(
        &arclen::program(),
        arclen::NAME,
        &arclen::args(500),
        &[],
        "arclen",
        Pins {
            chef_tape_peak_bytes: 68_024,
            adapt_tape_entries: 24_003,
            adapt_tape_peak_bytes: 1_536_192,
        },
    );
}

#[test]
fn simpsons_estimates_agree_with_adapt() {
    compare(
        &simpsons::program(),
        simpsons::NAME,
        &simpsons::args(500),
        &[],
        "simpsons",
        Pins {
            chef_tape_peak_bytes: 31_984,
            adapt_tape_entries: 12_008,
            adapt_tape_peak_bytes: 768_512,
        },
    );
}

#[test]
fn kmeans_estimates_agree_with_adapt() {
    let w = kmeans::workload(200, 4, 3, 9);
    compare(
        &kmeans::program(),
        kmeans::NAME,
        &kmeans::args(&w),
        &[
            ("attributes", "npoints * nfeatures"),
            ("clusters", "nclusters * nfeatures"),
        ],
        "kmeans",
        Pins {
            chef_tape_peak_bytes: 71_616,
            adapt_tape_entries: 15_963,
            adapt_tape_peak_bytes: 1_021_632,
        },
    );
}

#[test]
fn hpccg_estimates_agree_with_adapt() {
    let p = hpccg::problem(4, 4, 4);
    compare(
        &hpccg::program(),
        hpccg::NAME,
        &hpccg::args(&p),
        &[("b", "nrow")],
        "hpccg",
        Pins {
            chef_tape_peak_bytes: 53_400,
            adapt_tape_entries: 17_970,
            adapt_tape_peak_bytes: 1_150_080,
        },
    );
}

#[test]
fn blackscholes_estimates_agree_with_adapt() {
    let w = blackscholes::workload(50, 3);
    compare(
        &blackscholes::program(),
        blackscholes::NAME,
        &blackscholes::args(&w),
        &[
            ("sptprice", "numOptions"),
            ("strike", "numOptions"),
            ("rate", "numOptions"),
            ("volatility", "numOptions"),
            ("otime", "numOptions"),
        ],
        "bs",
        Pins {
            chef_tape_peak_bytes: 8_016,
            adapt_tape_entries: 2_353,
            adapt_tape_peak_bytes: 150_592,
        },
    );
}

#[test]
fn kmeans_attributes_error_is_zero() {
    // Table III row 1: f32-quantized inputs carry no demotion error.
    let w = kmeans::workload(300, 4, 3, 11);
    let (out, _) = chef_outcome(
        &kmeans::program(),
        kmeans::NAME,
        &kmeans::args(&w),
        &[
            ("attributes", "npoints * nfeatures"),
            ("clusters", "nclusters * nfeatures"),
        ],
    );
    assert_eq!(out.error_of("attributes"), 0.0);
    assert!(out.error_of("clusters") > 0.0);
    assert!(out.error_of("sum") > 0.0);
}

#[test]
fn estimates_bound_measured_demotion_for_arclen() {
    // Demote everything to f32 and check the combined estimate bounds the
    // measured error (Table I semantics).
    let program = arclen::program();
    let args = arclen::args(400);
    let cfg = chef_fp::tuner::TunerConfig::with_threshold(1e-3);
    let res = chef_fp::tuner::tune(&program, arclen::NAME, &args, &cfg).unwrap();
    let rep = chef_fp::tuner::validate(&program, arclen::NAME, &args, &res.config).unwrap();
    assert!(
        rep.actual_error <= 1e-3,
        "threshold violated: {}",
        rep.actual_error
    );
    assert!(
        rep.actual_error <= res.estimated_error.max(1e-15) * 2.0,
        "estimate {} does not bound actual {}",
        res.estimated_error,
        rep.actual_error
    );
}

#[test]
fn adapt_oom_while_chef_survives() {
    // The Figs. 4/7 crossover: under the same memory budget the taping
    // baseline dies while the transformation-based analysis completes.
    let program = arclen::program();
    let args = arclen::args(20_000);
    let budget = 4 * 1024 * 1024; // 4 MiB

    let mut model = AdaptModel::to_f32();
    let opts = EstimateOptions {
        exec: ExecOptions {
            tape_limit: Some(budget),
            ..Default::default()
        },
        ..Default::default()
    };
    let est = estimate_error_with(&program, arclen::NAME, &mut model, &opts).expect("builds");
    let chef = est.execute(&args);
    assert!(
        chef.is_ok(),
        "CHEF-FP must fit in the budget: {:?}",
        chef.err()
    );

    let inlined = chef_fp::passes::inline_program(&program).unwrap();
    let primal = inlined.function(arclen::NAME).unwrap();
    let adapt = analyze(
        primal,
        &args,
        &AdaptOptions {
            memory_limit: Some(budget),
        },
    );
    assert!(
        matches!(adapt, Err(chef_fp::adapt::AdaptError::OutOfMemory(_))),
        "baseline should exceed the budget: {adapt:?}"
    );
}

#[test]
fn gradients_agree_between_chef_and_adapt() {
    let w = blackscholes::workload(10, 21);
    let program = blackscholes::program();
    let (chef, _) = chef_outcome(&program, blackscholes::NAME, &blackscholes::args(&w), &[]);
    let adapt = adapt_outcome(&program, blackscholes::NAME, &blackscholes::args(&w));
    for ((cn, cv), (an, av)) in chef.gradient.iter().zip(adapt.gradient.iter()) {
        assert_eq!(cn, an);
        match (cv, av) {
            (ArgValue::FArr(c), ArgValue::FArr(a)) => {
                for (x, y) in c.iter().zip(a) {
                    assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                        "{cn}: {x} vs {y}"
                    );
                }
            }
            (ArgValue::F(x), ArgValue::F(y)) => {
                assert!((x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0));
            }
            other => panic!("unexpected gradient kinds {other:?}"),
        }
    }
}

#[test]
fn sensitivity_profile_collapses_for_hpccg() {
    let p = hpccg::problem(4, 4, 4);
    let cfg = SensitivityConfig {
        tracked: vec!["r".into(), "p".into(), "Ap".into()],
        tick_on: "rtrans".into(),
        max_ticks: 100,
    };
    let profile = profile_sensitivity(
        &hpccg::program(),
        hpccg::NAME,
        &cfg,
        &hpccg::args(&p),
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(profile.ticks > 5, "CG should iterate: {}", profile.ticks);
    let split = profile.split_point(1e-3);
    assert!(split.is_some(), "residual sensitivities must collapse");
    assert!(split.unwrap() < profile.ticks);
}

#[test]
fn approx_estimates_track_measured_substitution_error() {
    // Table IV invariant: the fast-exp configuration is estimated (and
    // measured) markedly worse than the no-fast-exp one.
    use chef_fp::ir::ast::Intrinsic;
    let w = blackscholes::workload(40, 17);
    let program = blackscholes::program();
    let mut est_errs = Vec::new();
    for mapping in [
        vec![
            ("tQ", Intrinsic::Sqrt, Intrinsic::FastSqrt),
            ("ratio", Intrinsic::Log, Intrinsic::FastLog),
        ],
        vec![
            ("tQ", Intrinsic::Sqrt, Intrinsic::FastSqrt),
            ("ratio", Intrinsic::Log, Intrinsic::FastLog),
            ("negrT", Intrinsic::Exp, Intrinsic::FasterExp),
        ],
    ] {
        let mut model = ApproxModel::new();
        for (v, e, a) in mapping {
            model = model.with(v, e, a);
        }
        let est = estimate_error_with(
            &program,
            blackscholes::NAME,
            &mut model,
            &EstimateOptions::default(),
        )
        .unwrap();
        let out = est.execute(&blackscholes::args(&w)).unwrap();
        est_errs.push(out.fp_error);
    }
    assert!(est_errs[1] > est_errs[0] * 10.0, "{est_errs:?}");
}

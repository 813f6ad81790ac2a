//! Workspace-level shadow-oracle tests: for every `chef-apps` kernel,
//! tune a demotion configuration on CHEF-FP estimates, *measure* it with
//! the `chef-shadow` fused shadow pass, and pin the paper's Table I
//! estimated-vs-actual relationship — the measured error is within an
//! order of magnitude of the estimate — plus the oracle's agreement with
//! the classic two-run validation.

use chef_fp::apps::{adversarial, arclen, blackscholes, hpccg, kmeans, simpsons};
use chef_fp::exec::bytecode::Instr;
use chef_fp::exec::compile::{compile, CompileOptions};
use chef_fp::exec::prelude::*;
use chef_fp::exec::shadow::{run_shadow, DivergenceKind};
use chef_fp::ir::ast::Program;
use chef_fp::shadow::{shadow_run, OracleOptions, ShadowMode, ShadowReport};
use chef_fp::tuner::{
    ids_of, tune, tune_with_oracle, validate, validate_with_oracle, DivergencePolicy,
    OracleTuneOptions, TunerConfig, VariantCache,
};

/// Tunes under `cfg`, measures the chosen config with the oracle, and
/// checks (a) Table I: measurement within an order of magnitude of the
/// estimate, (b) the one-pass oracle equals the two-run validation
/// bit-for-bit (no kernel here demotes across a float-controlled branch
/// divergence), (c) the quality row serializes.
fn oracle_check(label: &str, p: &Program, func: &str, args: &[ArgValue], cfg: TunerConfig) {
    let res = tune(p, func, args, &cfg).expect("tunes");
    let rep = validate_with_oracle(p, func, args, &res.config, &OracleOptions::default())
        .expect("oracle runs");
    let row = rep.against_estimate(cfg.threshold, res.estimated_error);
    assert!(
        row.within_order_of_magnitude(),
        "{label}: estimated {} vs measured {} (ratio {}) — outside the Table I band; demoted {:?}",
        res.estimated_error,
        rep.output_error,
        row.ratio(),
        res.demoted
    );
    let two_run = validate(p, func, args, &res.config).expect("validates");
    assert_eq!(
        rep.output_error.to_bits(),
        two_run.actual_error.to_bits(),
        "{label}: fused oracle disagrees with the two-run ground truth"
    );
    assert_eq!(rep.shadow.to_bits(), two_run.baseline.to_bits(), "{label}");
    assert_eq!(rep.primal.to_bits(), two_run.demoted.to_bits(), "{label}");
    // The row is a serializable artifact (`repro --oracle`).
    let json = chef_fp::core::report::to_json(&row);
    let measured = chef_fp::core::json::Json::Num(rep.output_error).to_string_compact();
    assert!(
        json.contains(&format!("\"measured\": {measured},")),
        "{json}"
    );
}

#[test]
fn arclen_oracle_confirms_estimate_quality() {
    let p = arclen::program();
    let args = arclen::args(500);
    let cfg = TunerConfig::with_threshold(3e-6);
    oracle_check("arclen", &p, arclen::NAME, &args, cfg.clone());
    // The measured configuration has a non-trivial attribution story.
    let res = tune(&p, arclen::NAME, &args, &cfg).unwrap();
    let rep = validate_with_oracle(
        &p,
        arclen::NAME,
        &args,
        &res.config,
        &OracleOptions::default(),
    )
    .unwrap();
    assert!(rep.output_error > 0.0);
    assert!(!rep.per_instruction.is_empty());
    assert!(!rep.per_variable.is_empty());
    // Attribution charges each local error to the first named variable
    // it reaches: the demoted variables themselves and the variables
    // computed from them — at least one demoted home must be charged.
    assert!(rep.per_variable.iter().all(|(_, e)| *e > 0.0));
    assert!(
        rep.per_variable
            .iter()
            .any(|(name, _)| res.demoted.contains(name)),
        "no demoted variable charged: {:?} vs {:?}",
        rep.per_variable,
        res.demoted
    );
}

#[test]
fn simpsons_oracle_confirms_estimate_quality() {
    oracle_check(
        "simpsons",
        &simpsons::program(),
        simpsons::NAME,
        &simpsons::args(500),
        TunerConfig::with_threshold(1e-7),
    );
}

#[test]
fn kmeans_oracle_confirms_estimate_quality() {
    // Table III row 1: the f32-quantized attributes are free to demote —
    // the estimate says zero and the oracle *measures* zero.
    let w = kmeans::workload(200, 4, 3, 9);
    let p = kmeans::program();
    let args = kmeans::args(&w);
    let cfg = TunerConfig::with_threshold(1e-6)
        .with_array_len("attributes", "npoints * nfeatures")
        .with_array_len("clusters", "nclusters * nfeatures");
    oracle_check("kmeans", &p, kmeans::NAME, &args, cfg.clone());
    let res = tune(&p, kmeans::NAME, &args, &cfg).unwrap();
    assert!(res.demoted.contains(&"attributes".to_string()));
    let rep = validate_with_oracle(
        &p,
        kmeans::NAME,
        &args,
        &res.config,
        &OracleOptions::default(),
    )
    .unwrap();
    assert_eq!(rep.output_error, 0.0);
    assert_eq!(rep.acc_error, 0.0);
}

#[test]
fn hpccg_oracle_confirms_estimate_quality() {
    // At the paper's 1e-10 threshold only the exactly-representable
    // inputs (stencil values, `b = A·1`, tol) are admitted: estimated
    // and measured error are both zero.
    let prob = hpccg::problem(4, 4, 4);
    oracle_check(
        "hpccg",
        &hpccg::program(),
        hpccg::NAME,
        &hpccg::args(&prob),
        TunerConfig::with_threshold(1e-10),
    );
}

#[test]
fn blackscholes_oracle_confirms_estimate_quality() {
    // Demotion restricted to the computed locals (the Table IV
    // configuration surface); input arrays estimate with signed
    // cancellation across options, which is exactly the kind of
    // estimate/measurement gap the oracle exists to expose.
    let w = blackscholes::workload(50, 3);
    let mut cfg = TunerConfig::with_threshold(1e-5);
    cfg.candidates = Some(
        blackscholes::TUNE_CANDIDATES
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    oracle_check(
        "blackscholes",
        &blackscholes::program(),
        blackscholes::NAME,
        &blackscholes::args(&w),
        cfg,
    );
}

#[test]
fn dd_shadow_measures_f64_self_error_on_arclen() {
    // The Reduced-Precision-Checking direction: with no demotion at all
    // the f64 shadow sees nothing, while the double-double shadow
    // measures the f64 program's own accumulated rounding error.
    let p = arclen::program();
    let args = arclen::args(500);
    let f64_rep = validate_with_oracle(
        &p,
        arclen::NAME,
        &args,
        &PrecisionMap::empty(),
        &OracleOptions::default(),
    )
    .unwrap();
    assert_eq!(f64_rep.output_error, 0.0);
    let dd_rep = validate_with_oracle(
        &p,
        arclen::NAME,
        &args,
        &PrecisionMap::empty(),
        &OracleOptions {
            mode: ShadowMode::DD,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(dd_rep.output_error > 0.0, "f64 self-error must be visible");
    assert!(
        dd_rep.output_error < 1e-10,
        "f64 self-error should be tiny: {}",
        dd_rep.output_error
    );
    assert!(!dd_rep.per_instruction.is_empty());
}

// ---------------------------------------------------------------------
// Divergence detection on the adversarial branching corpus
// ---------------------------------------------------------------------

/// The `f32` demotion of `vars` in the (inlined) kernel.
fn f32_config(p: &Program, func: &str, vars: &[&str]) -> PrecisionMap {
    let ids = ids_of(p, func, vars).expect("vars resolve");
    assert_eq!(ids.len(), vars.len(), "{vars:?}");
    let mut pm = PrecisionMap::empty();
    for id in ids {
        pm.set(id, chef_fp::ir::types::FloatTy::F32);
    }
    pm
}

/// Runs the oracle on `config`, asserting the divergence verdict and —
/// when a flip is expected — that every recorded split sits on a
/// comparison/truncation instruction of the compiled stream, that the
/// flipped variable is attributed, and that a direct shadow run of the
/// compiled stream reports the identical split list.
fn divergence_check(
    label: &str,
    p: &Program,
    func: &str,
    args: &[ArgValue],
    config: &PrecisionMap,
    expect_divergence: bool,
    attributed_var: &str,
) -> ShadowReport {
    let rep = shadow_run(p, func, args, config, &OracleOptions::default()).expect("oracle runs");
    assert_eq!(
        rep.diverged(),
        expect_divergence,
        "{label}: divergence_count = {} ({:?})",
        rep.divergence_count,
        rep.divergence
    );
    if !expect_divergence {
        assert!(rep.divergence.is_empty(), "{label}");
        assert!(rep.per_variable_divergence.is_empty(), "{label}");
        return rep;
    }
    // Every detailed split names a pc that really is a comparison or a
    // float→int truncation in the compiled stream.
    let inlined = chef_fp::passes::inline_program(p).expect("inlines");
    let primal = inlined.function(func).expect("function");
    let packed = compile(
        primal,
        &CompileOptions {
            precisions: config.clone(),
            ..Default::default()
        },
    )
    .expect("compiles");
    for point in &rep.divergence {
        let ins = &packed.instrs[point.pc];
        match point.kind {
            DivergenceKind::FCmp { .. } => assert!(
                matches!(
                    ins,
                    Instr::FCmp { .. } | Instr::FCmpJmpFalse { .. } | Instr::FCmpJmpTrue { .. }
                ),
                "{label}: pc {} holds {ins:?}, not a float compare",
                point.pc
            ),
            DivergenceKind::F2I { .. } => assert!(
                matches!(ins, Instr::F2I { .. }),
                "{label}: pc {} holds {ins:?}, not F2I",
                point.pc
            ),
        }
    }
    assert!(
        rep.divergence_of(attributed_var) > 0,
        "{label}: split not attributed to `{attributed_var}`: {:?}",
        rep.per_variable_divergence
    );
    // A direct shadow run of the compiled stream reports the identical
    // splits — profiled or not (the two instantiations of the loop).
    for profile in [false, true] {
        let opts = ExecOptions {
            profile,
            ..Default::default()
        };
        let out = run_shadow::<f64>(&packed, args.to_vec(), &opts).expect("shadow runs");
        assert_eq!(out.divergence_count, rep.divergence_count, "{label}");
        assert_eq!(out.divergence, rep.divergence, "{label}");
        assert_eq!(out.ret_f().to_bits(), rep.primal.to_bits(), "{label}");
    }
    rep
}

#[test]
fn threshold_kernel_flags_divergence_exactly_when_the_branch_flips() {
    let p = adversarial::threshold::program();
    let flip = f32_config(
        &p,
        adversarial::threshold::NAME,
        adversarial::threshold::FLIP_VARS,
    );
    let rep = divergence_check(
        "threshold/flip",
        &p,
        adversarial::threshold::NAME,
        &adversarial::threshold::flip_args(),
        &flip,
        true,
        "s",
    );
    // The whole point of the flag: along the (wrong) primal trace the
    // one-pass measurement looks harmless — microns — while the true
    // two-run error is O(1) because the baseline takes the other branch.
    assert!(rep.output_error < 1e-5, "{}", rep.output_error);
    let two_run = validate(
        &p,
        adversarial::threshold::NAME,
        &adversarial::threshold::flip_args(),
        &flip,
    )
    .unwrap();
    assert!(
        two_run.actual_error > 1.0,
        "ground truth dwarfs the divergent measurement: {}",
        two_run.actual_error
    );
    assert_eq!(rep.divergence_count, 1, "one split, at the threshold");
    match rep.divergence[0].kind {
        DivergenceKind::FCmp {
            taken, would_take, ..
        } => assert!(taken && !would_take),
        ref other => panic!("expected FCmp, got {other:?}"),
    }
    // Same demotion, stable input: rounds without flipping.
    let rep = divergence_check(
        "threshold/stable",
        &p,
        adversarial::threshold::NAME,
        &adversarial::threshold::stable_args(),
        &flip,
        false,
        "s",
    );
    assert!(rep.acc_error > 0.0, "the demotion still rounds");
    // No demotion: silent and error-free on the flip input too.
    let rep = divergence_check(
        "threshold/undemoted",
        &p,
        adversarial::threshold::NAME,
        &adversarial::threshold::flip_args(),
        &PrecisionMap::empty(),
        false,
        "s",
    );
    assert_eq!(rep.output_error, 0.0);
}

#[test]
fn floatcount_kernel_flags_the_truncated_trip_count() {
    let p = adversarial::floatcount::program();
    let flip = f32_config(
        &p,
        adversarial::floatcount::NAME,
        adversarial::floatcount::FLIP_VARS,
    );
    let rep = divergence_check(
        "floatcount/flip",
        &p,
        adversarial::floatcount::NAME,
        &adversarial::floatcount::flip_args(),
        &flip,
        true,
        "t",
    );
    let f2i = rep
        .divergence
        .iter()
        .find_map(|pt| match pt.kind {
            DivergenceKind::F2I {
                primal_int,
                shadow_int,
                ..
            } => Some((primal_int, shadow_int)),
            _ => None,
        })
        .expect("an F2I split");
    assert_eq!(f2i, (100, 99), "demoted primal runs one extra iteration");
    // Exactly representable step width: both sides truncate to 64.
    divergence_check(
        "floatcount/stable",
        &p,
        adversarial::floatcount::NAME,
        &adversarial::floatcount::stable_args(),
        &flip,
        false,
        "t",
    );
}

#[test]
fn piecewise_kernel_flags_the_knot_crossing() {
    let p = adversarial::piecewise::program();
    let flip = f32_config(
        &p,
        adversarial::piecewise::NAME,
        adversarial::piecewise::FLIP_VARS,
    );
    let rep = divergence_check(
        "piecewise/flip",
        &p,
        adversarial::piecewise::NAME,
        &adversarial::piecewise::flip_args(),
        &flip,
        true,
        "y",
    );
    // Demoted primal sits exactly on the knot (`y <= 0.75` true) and
    // takes the linear piece; the shadow is dragged along that trace
    // (divergence is reported, never followed), so the measurement reads
    // nano-scale while the true piece swap is O(1).
    assert_eq!(rep.primal, 1.75, "linear piece on the rounded knot");
    assert!((rep.shadow - 1.75).abs() < 1e-8, "{}", rep.shadow);
    assert!(rep.output_error < 1e-8, "{}", rep.output_error);
    let two_run = validate(
        &p,
        adversarial::piecewise::NAME,
        &adversarial::piecewise::flip_args(),
        &flip,
    )
    .unwrap();
    assert!(
        two_run.actual_error > 1.0,
        "the baseline squares instead: {}",
        two_run.actual_error
    );
    divergence_check(
        "piecewise/stable",
        &p,
        adversarial::piecewise::NAME,
        &adversarial::piecewise::stable_args(),
        &flip,
        false,
        "y",
    );
}

#[test]
fn divergent_rows_are_flagged_in_the_quality_record() {
    // The artifact path: a divergent measurement's EstimateQualityRow
    // carries the split count, serializes it, and self-identifies as a
    // row whose order-of-magnitude band is meaningless.
    let p = adversarial::threshold::program();
    let flip = f32_config(
        &p,
        adversarial::threshold::NAME,
        adversarial::threshold::FLIP_VARS,
    );
    let rep = validate_with_oracle(
        &p,
        adversarial::threshold::NAME,
        &adversarial::threshold::flip_args(),
        &flip,
        &OracleOptions::default(),
    )
    .unwrap();
    let row = rep.against_estimate(1e-6, 1e-7);
    assert!(row.diverged());
    assert_eq!(row.divergence_count, rep.divergence_count);
    let json = chef_fp::core::report::to_json(&row);
    assert!(json.contains("\"diverged\": true"), "{json}");
    let count = format!("\"divergence_count\": {},", rep.divergence_count);
    assert!(json.contains(&count), "{json}");
}

#[test]
fn oracle_tuner_distrusts_the_branch_flipping_config() {
    // End-to-end: greedy oracle tuning over the threshold kernel with
    // `s` as the only candidate. The divergent trial is decided by
    // two-run validation (default policy) or dropped (Reject).
    let p = adversarial::threshold::program();
    let args = adversarial::threshold::flip_args();
    let mut cfg = TunerConfig::with_threshold(2.0);
    cfg.candidates = Some(vec!["s".into()]);
    let cache = VariantCache::new();
    let res = tune_with_oracle(
        &p,
        adversarial::threshold::NAME,
        &args,
        &cfg,
        &OracleTuneOptions::default(),
        &cache,
    )
    .unwrap();
    assert!(res.divergent_trials >= 1);
    assert_eq!(res.demoted, vec!["s".to_string()]);
    let check = validate(&p, adversarial::threshold::NAME, &args, &res.config).unwrap();
    assert_eq!(
        res.measured_error.unwrap().to_bits(),
        check.actual_error.to_bits(),
        "admission used the two-run ground truth"
    );
    let reject = OracleTuneOptions {
        divergence_policy: DivergencePolicy::Reject,
        ..Default::default()
    };
    let res = tune_with_oracle(
        &p,
        adversarial::threshold::NAME,
        &args,
        &cfg,
        &reject,
        &cache,
    )
    .unwrap();
    assert!(res.demoted.is_empty(), "{:?}", res.demoted);
}

#[test]
fn paper_kernels_stay_divergence_free_under_tuned_configs() {
    // The PR-2/3 era assumption, now checked instead of assumed: every
    // tuned paper-kernel configuration the oracle tests rely on is
    // branch-stable, so their one-pass measurements remain trustworthy.
    let checks: Vec<(&str, Program, &str, Vec<ArgValue>, TunerConfig)> = vec![
        (
            "arclen",
            arclen::program(),
            arclen::NAME,
            arclen::args(500),
            TunerConfig::with_threshold(3e-6),
        ),
        (
            "simpsons",
            simpsons::program(),
            simpsons::NAME,
            simpsons::args(500),
            TunerConfig::with_threshold(1e-7),
        ),
    ];
    for (label, p, func, args, cfg) in checks {
        let res = tune(&p, func, &args, &cfg).expect("tunes");
        let rep =
            validate_with_oracle(&p, func, &args, &res.config, &OracleOptions::default()).unwrap();
        assert!(
            !rep.diverged(),
            "{label}: tuned config unexpectedly diverged: {:?}",
            rep.divergence
        );
    }
}

#[test]
fn oracle_guided_tuning_beats_estimate_only_admission() {
    // The greedy loop driven by measurement admits at least everything
    // the estimate admits (estimates over-approximate here), and its
    // result is measured under the threshold.
    let p = arclen::program();
    let args = arclen::args(200);
    let cfg = TunerConfig::with_threshold(3e-6);
    let est_only = tune(&p, arclen::NAME, &args, &cfg).unwrap();
    let cache = VariantCache::new();
    let oracle = tune_with_oracle(
        &p,
        arclen::NAME,
        &args,
        &cfg,
        &OracleTuneOptions::reranked(),
        &cache,
    )
    .unwrap();
    let measured = oracle.measured_error.expect("measured");
    assert!(measured <= cfg.threshold, "{measured}");
    assert!(
        oracle.demoted.len() >= est_only.demoted.len(),
        "oracle admitted {:?}, estimate admitted {:?}",
        oracle.demoted,
        est_only.demoted
    );
    // Re-tuning over the shared cache compiles nothing: every greedy
    // step is a cache hit, observable on the result.
    let again = tune_with_oracle(
        &p,
        arclen::NAME,
        &args,
        &cfg,
        &OracleTuneOptions::reranked(),
        &cache,
    )
    .unwrap();
    assert!(again.cache_hits > 0);
    assert_eq!(again.demoted, oracle.demoted);
    // The measured claim re-validates with the classic two-run check.
    let check = validate(&p, arclen::NAME, &args, &oracle.config).unwrap();
    assert!(check.actual_error <= cfg.threshold);
}

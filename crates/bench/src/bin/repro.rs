//! Regenerates every table and figure of the CHEF-FP paper.
//!
//! ```text
//! cargo run -p chef-bench --bin repro --release -- all
//! cargo run -p chef-bench --bin repro --release -- table1 table3 fig4
//! ```
//!
//! Workload scales are one decade below the paper's cluster runs so the
//! whole reproduction finishes in minutes on one machine; the shapes
//! (who wins, growth rates, OOM points, zero-error variables, sensitivity
//! collapse) are what is being reproduced. See EXPERIMENTS.md.

use adapt_baseline::{analyze, AdaptError, AdaptOptions};
use chef_bench::{mb, rel_dev_pct, sci, time_median, time_ms};
use chef_core::prelude::*;
use chef_core::report::{EstimateQualityRow, Record};
use chef_exec::compile::{compile_default, PrecisionMap};
use chef_exec::prelude::*;
use chef_ir::ast::{Intrinsic, Program};
use chef_shadow::{OracleOptions, ShadowMode};
use chef_tuner::{tune, validate, validate_with_oracle, TunerConfig};

/// The simulated per-analysis memory budget for the ADAPT baseline
/// (the paper's runs died at 188 GB on the cluster; scaled with our
/// decade-smaller workloads).
const ADAPT_MEM_LIMIT: usize = 4 << 30; // 4 GiB

/// `expect` for the CLI driver: a failure prints one clean line to
/// stderr and exits non-zero (failing the CI gate), instead of
/// unwinding with a panic backtrace. A missing input file, a corrupt
/// snapshot, or a trapped analysis all land here.
trait OrFail {
    type Ok;
    fn or_fail(self, what: &str) -> Self::Ok;
}

impl<T, E: std::fmt::Display> OrFail for Result<T, E> {
    type Ok = T;
    fn or_fail(self, what: &str) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("repro: {what}: {e}");
            std::process::exit(1);
        })
    }
}

impl<T> OrFail for Option<T> {
    type Ok = T;
    fn or_fail(self, what: &str) -> T {
        self.unwrap_or_else(|| {
            eprintln!("repro: {what}");
            std::process::exit(1);
        })
    }
}

/// Every argument `repro` accepts.
const SELECTORS: &str = "all table1 table2 table3 table4 oracle --oracle fig4 fig5 fig6 fig7 \
                         fig8 fig9 smoke --smoke serve-smoke --serve-smoke profile --profile";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Reject an unknown argument before doing any work, so a typo in a
    // CI step fails instead of passing without running anything.
    for a in &args {
        if !SELECTORS.split_whitespace().any(|s| s == a) {
            eprintln!("repro: unknown argument `{a}`; usage: repro [{SELECTORS}]...");
            std::process::exit(2);
        }
    }
    if args.iter().any(|a| a == "--smoke" || a == "smoke") {
        smoke();
        return;
    }
    if args
        .iter()
        .any(|a| a == "--serve-smoke" || a == "serve-smoke")
    {
        serve_smoke();
        return;
    }
    if args.iter().any(|a| a == "--profile" || a == "profile") {
        profile_table();
        return;
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("table3") {
        table3();
    }
    if want("table4") {
        table4();
    }
    if want("oracle") || args.iter().any(|a| a == "--oracle") {
        oracle_table();
    }
    if want("fig4") {
        sweep_fig(
            "Figure 4: Arc Length — analysis time & memory vs iterations",
            &[10_000, 100_000, 1_000_000],
            |n| {
                (
                    chef_apps::arclen::program(),
                    chef_apps::arclen::NAME,
                    chef_apps::arclen::args(n),
                )
            },
            &[],
        );
    }
    if want("fig5") {
        sweep_fig(
            "Figure 5: Simpsons — analysis time & memory vs iterations",
            &[10_000, 100_000, 1_000_000],
            |n| {
                (
                    chef_apps::simpsons::program(),
                    chef_apps::simpsons::NAME,
                    chef_apps::simpsons::args(n),
                )
            },
            &[],
        );
    }
    if want("fig6") {
        sweep_fig(
            "Figure 6: k-Means — analysis time & memory vs data points",
            &[100, 1_000, 10_000, 100_000],
            |n| {
                let w = chef_apps::kmeans::workload(n as usize, 5, 4, 42);
                (
                    chef_apps::kmeans::program(),
                    chef_apps::kmeans::NAME,
                    chef_apps::kmeans::args(&w),
                )
            },
            &[
                ("attributes", "npoints * nfeatures"),
                ("clusters", "nclusters * nfeatures"),
            ],
        );
    }
    if want("fig7") {
        sweep_fig(
            "Figure 7: HPCCG — analysis time & memory vs z-dimension (20x30 base)",
            &[5, 10, 20, 40],
            |z| {
                let p = chef_apps::hpccg::problem(20, 30, z as usize);
                (
                    chef_apps::hpccg::program(),
                    chef_apps::hpccg::NAME,
                    chef_apps::hpccg::args(&p),
                )
            },
            &[("b", "nrow")],
        );
    }
    if want("fig8") {
        sweep_fig(
            "Figure 8: Black-Scholes — analysis time & memory vs options",
            &[1_000, 10_000, 100_000],
            |n| {
                let w = chef_apps::blackscholes::workload(n as usize, 42);
                (
                    chef_apps::blackscholes::program(),
                    chef_apps::blackscholes::NAME,
                    chef_apps::blackscholes::args(&w),
                )
            },
            &[("sptprice", "numOptions")],
        );
    }
    if want("fig9") {
        fig9();
    }
}

fn header(title: &str) {
    println!("\n==== {title} ====");
}

// ---------------------------------------------------------------- Table I

fn table1() {
    header("Table I: mixed-precision versions — threshold, actual vs estimated error, speedup");
    println!(
        "{:<14} {:>10} {:>14} {:>16} {:>9}  demoted",
        "Benchmark", "Threshold", "Actual Error", "Estimated Error", "Speedup"
    );

    // --- Arc Length, threshold 1e-5 ---
    {
        let p = chef_apps::arclen::program();
        let n = 100_000i64;
        let args = chef_apps::arclen::args(n);
        let cfg = TunerConfig::with_threshold(1e-5);
        let res = tune(&p, chef_apps::arclen::NAME, &args, &cfg).or_fail("arclen tune failed");
        let rep =
            validate(&p, chef_apps::arclen::NAME, &args, &res.config).or_fail("validation failed");
        let (_, t64) = time_median(9, || chef_apps::arclen::native_f64(n as usize));
        let (_, tmx) = time_median(9, || chef_apps::arclen::native_mixed(n as usize));
        row1(
            "Arc Length",
            1e-5,
            rep.actual_error,
            res.estimated_error,
            t64 / tmx,
            &res.demoted,
        );
    }
    // --- Simpsons, threshold 1e-6 ---
    {
        let p = chef_apps::simpsons::program();
        let n = 100_000i64;
        let args = chef_apps::simpsons::args(n);
        let cfg = TunerConfig::with_threshold(1e-6);
        let res = tune(&p, chef_apps::simpsons::NAME, &args, &cfg).or_fail("simpsons tune failed");
        let rep = validate(&p, chef_apps::simpsons::NAME, &args, &res.config)
            .or_fail("validation failed");
        let (a, b) = chef_apps::simpsons::BOUNDS;
        let (_, t64) = time_median(9, || chef_apps::simpsons::native_f64(a, b, n as usize));
        let (_, tmx) = time_median(9, || chef_apps::simpsons::native_mixed(a, b, n as usize));
        row1(
            "Simpsons",
            1e-6,
            rep.actual_error,
            res.estimated_error,
            t64 / tmx,
            &res.demoted,
        );
    }
    // --- k-Means, threshold 1e-6 ---
    {
        let p = chef_apps::kmeans::program();
        let w = chef_apps::kmeans::workload(10_000, 5, 4, 42);
        let args = chef_apps::kmeans::args(&w);
        let cfg = TunerConfig::with_threshold(1e-6)
            .with_array_len("attributes", "npoints * nfeatures")
            .with_array_len("clusters", "nclusters * nfeatures");
        let res = tune(&p, chef_apps::kmeans::NAME, &args, &cfg).or_fail("kmeans tune failed");
        let rep =
            validate(&p, chef_apps::kmeans::NAME, &args, &res.config).or_fail("validation failed");
        // The admitted configuration (attributes only) brings no speedup —
        // measure it anyway (paper reports '-').
        let speedup = if res.demoted.iter().any(|d| d == "attributes") {
            // Time against a larger batch so the kernels are measurable,
            // with the f32 storage prepared outside the timed region.
            let wt = chef_apps::kmeans::workload(100_000, 5, 4, 42);
            let attrs32 = chef_apps::kmeans::attributes_f32(&wt);
            let (_, t64) = time_median(9, || chef_apps::kmeans::native_f64(&wt));
            let (_, tmx) =
                time_median(9, || chef_apps::kmeans::native_attr_f32_from(&attrs32, &wt));
            t64 / tmx
        } else {
            1.0 // empty configuration: the program is unchanged
        };
        row1(
            "k-Means",
            1e-6,
            rep.actual_error,
            res.estimated_error,
            speedup,
            &res.demoted,
        );
    }
    // --- HPCCG: the loop-split configuration from the Fig. 9 profile ---
    {
        let threshold = 1e-10;
        let prob = chef_apps::hpccg::problem(20, 30, 10);
        let profile = hpccg_profile(&prob).or_fail("hpccg sensitivity profiling failed");
        // Smallest split whose estimated f32-tail error (eq. 1 over the
        // post-split sensitivities) meets the threshold — the same
        // estimate-driven selection the other rows use.
        let eps32 = chef_ir::types::FloatTy::F32.epsilon();
        let tail_estimate = |split: usize| -> f64 {
            eps32
                * profile
                    .matrix
                    .iter()
                    .flat_map(|row| row.iter().skip(split))
                    .sum::<f64>()
        };
        let split = (1..=profile.ticks)
            .find(|&s| tail_estimate(s) <= threshold)
            .unwrap_or(profile.ticks);
        let estimated = tail_estimate(split);
        let (base, t64) = time_median(3, || chef_apps::hpccg::native_f64(&prob, 150, 1e-10));
        let (tuned, tsp) = time_median(3, || {
            chef_apps::hpccg::native_split(&prob, 150, 1e-10, split)
        });
        // Quantity of interest for the threshold: the final squared
        // residual (the solver's convergence quality). The solution-sum
        // component is the Fig. 9 visualization QoI; demoting the solution
        // vector itself is *not* admissible at 1e-10 (its representation
        // error alone is ~1e-4) and the paper's threshold only makes sense
        // against the residual — see EXPERIMENTS.md.
        let actual = (base.2 - tuned.2).abs();
        row1(
            "HPCCG",
            threshold,
            actual,
            estimated,
            t64 / tsp,
            &[format!("loop split @ {split}")],
        );
    }
}

/// The Fig. 9 sensitivity profile of the residual-carrying vectors.
fn hpccg_profile(prob: &chef_apps::hpccg::Problem) -> Result<SensitivityProfile, ChefError> {
    let p = chef_apps::hpccg::program();
    let cfg = SensitivityConfig {
        tracked: vec!["r".into(), "p".into(), "Ap".into()],
        tick_on: "rtrans".into(),
        max_ticks: 200,
    };
    profile_sensitivity(
        &p,
        chef_apps::hpccg::NAME,
        &cfg,
        &chef_apps::hpccg::args(prob),
        &ExecOptions::default(),
    )
}

fn row1(name: &str, thr: f64, actual: f64, estimated: f64, speedup: f64, demoted: &[String]) {
    println!(
        "{:<14} {:>10} {:>14} {:>16} {:>9.2}  {}",
        name,
        sci(thr),
        sci(actual),
        sci(estimated),
        speedup,
        if demoted.is_empty() {
            "(none)".to_string()
        } else {
            demoted.join(", ")
        }
    );
}

// --------------------------------------------------------------- Table II

struct AnalysisPoint {
    chef_ms: f64,
    chef_bytes: usize,
    adapt_ms: Option<f64>,
    adapt_bytes: Option<usize>,
}

/// CHEF-FP side of one analysis point: build once (compile time
/// excluded, like the paper's compile-once tooling), run the analysis.
fn chef_point(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    lens: &[(&str, &str)],
) -> (f64, usize) {
    let mut opts = EstimateOptions::default();
    for (a, l) in lens {
        opts.array_lens.insert((*a).to_string(), (*l).to_string());
    }
    let est = estimate_error(program, func, &opts).or_fail("estimator build failed");
    let (chef_out, chef_ms) = time_ms(|| est.execute(args).or_fail("analysis run trapped"));
    (chef_ms, chef_out.stats.peak_memory_bytes())
}

/// ADAPT-baseline side of one analysis point: taping + reverse +
/// post-hoc errors, every run. `None` = out of memory at this scale.
fn adapt_point(program: &Program, func: &str, args: &[ArgValue]) -> Option<(f64, usize)> {
    let inlined = chef_passes::inline_program(program).or_fail("inlining failed");
    let primal = inlined
        .function(func)
        .or_fail("function not found after inlining");
    let adapt_opts = AdaptOptions {
        memory_limit: Some(ADAPT_MEM_LIMIT),
        ..Default::default()
    };
    let (adapt_res, adapt_ms) = time_ms(|| analyze(primal, args, &adapt_opts));
    match adapt_res {
        Ok(out) => Some((adapt_ms, out.tape_peak_bytes)),
        Err(AdaptError::OutOfMemory(_)) => None,
        Err(e) => {
            eprintln!("repro: adapt baseline failed: {e}");
            std::process::exit(1);
        }
    }
}

fn analyze_both(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    lens: &[(&str, &str)],
) -> AnalysisPoint {
    let (chef_ms, chef_bytes) = chef_point(program, func, args, lens);
    let adapt = adapt_point(program, func, args);
    AnalysisPoint {
        chef_ms,
        chef_bytes,
        adapt_ms: adapt.map(|(t, _)| t),
        adapt_bytes: adapt.map(|(_, b)| b),
    }
}

fn table2() {
    header("Table II: CHEF-FP analysis-time and memory improvements over ADAPT");
    println!("{:<14} {:>8} {:>8}", "Benchmark", "Time", "Memory");
    let rows: Vec<(&str, AnalysisPoint)> = vec![
        ("Arc length", {
            let p = chef_apps::arclen::program();
            analyze_both(
                &p,
                chef_apps::arclen::NAME,
                &chef_apps::arclen::args(100_000),
                &[],
            )
        }),
        ("Simpsons", {
            let p = chef_apps::simpsons::program();
            analyze_both(
                &p,
                chef_apps::simpsons::NAME,
                &chef_apps::simpsons::args(100_000),
                &[],
            )
        }),
        ("k-Means", {
            let p = chef_apps::kmeans::program();
            let w = chef_apps::kmeans::workload(10_000, 5, 4, 42);
            analyze_both(
                &p,
                chef_apps::kmeans::NAME,
                &chef_apps::kmeans::args(&w),
                &[
                    ("attributes", "npoints * nfeatures"),
                    ("clusters", "nclusters * nfeatures"),
                ],
            )
        }),
        ("HPCCG", {
            let p = chef_apps::hpccg::program();
            let prob = chef_apps::hpccg::problem(20, 30, 5);
            analyze_both(
                &p,
                chef_apps::hpccg::NAME,
                &chef_apps::hpccg::args(&prob),
                &[],
            )
        }),
        ("Black-Scholes", {
            let p = chef_apps::blackscholes::program();
            let w = chef_apps::blackscholes::workload(10_000, 42);
            analyze_both(
                &p,
                chef_apps::blackscholes::NAME,
                &chef_apps::blackscholes::args(&w),
                &[],
            )
        }),
    ];
    for (name, pt) in rows {
        match (pt.adapt_ms, pt.adapt_bytes) {
            (Some(ams), Some(abytes)) => println!(
                "{:<14} {:>7.2}x {:>7.2}x",
                name,
                ams / pt.chef_ms,
                abytes as f64 / pt.chef_bytes as f64
            ),
            _ => println!("{:<14} {:>8} {:>8}", name, "OOM", "OOM"),
        }
    }
}

// -------------------------------------------------------------- Table III

fn table3() {
    header("Table III: k-Means — per-variable mixed-precision error (actual vs estimated)");
    let p = chef_apps::kmeans::program();
    let w = chef_apps::kmeans::workload(100_000, 5, 4, 42);
    let args = chef_apps::kmeans::args(&w);
    let opts = EstimateOptions::default()
        .with_array_len("attributes", "npoints * nfeatures")
        .with_array_len("clusters", "nclusters * nfeatures");
    let mut model = AdaptModel::to_f32();
    let est = estimate_error_with(&p, chef_apps::kmeans::NAME, &mut model, &opts)
        .or_fail("estimator build failed");
    let out = est.execute(&args).or_fail("kmeans analysis trapped");

    let inlined = chef_passes::inline_program(&p).or_fail("inlining failed");
    let primal = inlined
        .function(chef_apps::kmeans::NAME)
        .or_fail("kmeans kernel not found after inlining");
    let baseline = {
        let c = compile_default(primal).or_fail("kmeans compile failed");
        run(&c, args.clone())
            .or_fail("kmeans baseline trapped")
            .ret_f()
    };
    let rows = [
        ("attributes", vec!["attributes"]),
        ("clusters", vec!["clusters"]),
        ("sum", vec!["sum"]),
        ("all 3", vec!["attributes", "clusters", "sum"]),
    ];
    // One PrecisionMap per row, validated in parallel (chef-tuner's
    // candidate-evaluation path).
    let configs: Vec<PrecisionMap> = rows
        .iter()
        .map(|(_, vars)| {
            let mut pm = PrecisionMap::empty();
            for (id, v) in primal.vars_iter() {
                if vars.contains(&v.name.as_str()) {
                    pm.set(id, chef_ir::types::FloatTy::F32);
                }
            }
            pm
        })
        .collect();
    let reports = chef_tuner::validate_configs(&p, chef_apps::kmeans::NAME, &args, &configs, None)
        .or_fail("config validation failed");
    assert_eq!(reports[0].baseline, baseline);
    println!(
        "{:<32} {:>14} {:>16}",
        "Variable(s) in Lower Precision", "Actual Error", "Estimated Error"
    );
    for ((label, vars), report) in rows.iter().zip(&reports) {
        let estimated: f64 = vars.iter().map(|v| out.error_of(v)).sum();
        println!(
            "{label:<32} {:>14} {:>16}",
            sci(report.actual_error),
            sci(estimated)
        );
    }
}

// --------------------------------------------------------------- Table IV

fn table4() {
    header("Table IV: Black-Scholes — FastApprox configurations (1000 options)");
    let w = chef_apps::blackscholes::workload(1000, 42);
    let p = chef_apps::blackscholes::program();
    let exact = chef_apps::blackscholes::native_prices(&w);

    type ApproxConfigRow = (
        &'static str,
        Vec<(&'static str, Intrinsic, Intrinsic)>,
        Vec<f64>,
    );
    let configs: [ApproxConfigRow; 2] = [
        (
            "FastApprox w/o Fast exp",
            vec![
                ("tQ", Intrinsic::Sqrt, Intrinsic::FastSqrt),
                ("ratio", Intrinsic::Log, Intrinsic::FastLog),
            ],
            chef_apps::blackscholes::approx_prices_no_fast_exp(&w),
        ),
        (
            "FastApprox w/ Fast exp",
            vec![
                ("tQ", Intrinsic::Sqrt, Intrinsic::FastSqrt),
                ("ratio", Intrinsic::Log, Intrinsic::FastLog),
                ("negrT", Intrinsic::Exp, Intrinsic::FasterExp),
            ],
            chef_apps::blackscholes::approx_prices_fast_exp(&w),
        ),
    ];

    println!(
        "{:<26} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} | {:>8}",
        "Configuration",
        "act avg",
        "act max",
        "act acc",
        "est avg",
        "est max",
        "est acc",
        "speedup"
    );
    for (label, mapping, approx_prices) in configs {
        // Per-option estimates: analyze each option as a batch of one.
        let mut model = ApproxModel::new();
        for (var, ex, ap) in &mapping {
            model = model.with(*var, *ex, *ap);
        }
        let est = estimate_error_with(
            &p,
            chef_apps::blackscholes::NAME,
            &mut model,
            &EstimateOptions::default(),
        )
        .or_fail("estimator build failed");
        // Per-option analyses are independent: compile once, fan the
        // thousand runs out over the VM's parallel batch path.
        let arg_sets: Vec<Vec<ArgValue>> = (0..w.len())
            .map(|i| {
                let one = chef_apps::blackscholes::Workload {
                    sptprice: vec![w.sptprice[i]],
                    strike: vec![w.strike[i]],
                    rate: vec![w.rate[i]],
                    volatility: vec![w.volatility[i]],
                    otime: vec![w.otime[i]],
                    otype: vec![w.otype[i]],
                };
                chef_apps::blackscholes::args(&one)
            })
            .collect();
        let est_errs: Vec<f64> = est
            .execute_batch(&arg_sets)
            .into_iter()
            .map(|r| r.or_fail("single-option analysis trapped").fp_error)
            .collect();
        let actual_errs: Vec<f64> = (0..w.len())
            .map(|i| (approx_prices[i] - exact[i]).abs())
            .collect();
        let stats = |v: &[f64]| -> (f64, f64, f64) {
            let acc: f64 = v.iter().sum();
            let max = v.iter().cloned().fold(0.0f64, f64::max);
            (acc / v.len() as f64, max, acc)
        };
        let (aavg, amax, aacc) = stats(&actual_errs);
        let (eavg, emax, eacc) = stats(&est_errs);
        // Speedup of the approximate native variant, timed on a larger
        // batch (100k options) so the kernels dominate measurement noise.
        let wt = chef_apps::blackscholes::workload(100_000, 7);
        let (_, t_exact) = time_median(9, || chef_apps::blackscholes::native_prices(&wt));
        let t_approx = match label {
            "FastApprox w/o Fast exp" => {
                time_median(9, || {
                    chef_apps::blackscholes::approx_prices_no_fast_exp(&wt)
                })
                .1
            }
            _ => time_median(9, || chef_apps::blackscholes::approx_prices_fast_exp(&wt)).1,
        };
        println!(
            "{:<26} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} | {:>7.2}x",
            label,
            sci(aavg),
            sci(amax),
            sci(aacc),
            sci(eavg),
            sci(emax),
            sci(eacc),
            t_exact / t_approx
        );
    }
}

// ------------------------------------------------------------ Figures 4–8

fn sweep_fig(
    title: &str,
    scales: &[u64],
    mk: impl Fn(i64) -> (Program, &'static str, Vec<ArgValue>) + Sync,
    lens: &[(&str, &str)],
) {
    header(title);
    println!(
        "{:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "scale", "app ms", "app MB", "chef ms", "chef MB", "adapt ms", "adapt MB"
    );
    // The per-scale app + CHEF-FP analyses are independent and
    // memory-light: fan them out over the batch-execution thread pool
    // and print in scale order. On a loaded or single-core machine
    // concurrent timing inflates the absolute milliseconds; the growth
    // *shape* across scales — what the figures reproduce — is preserved.
    let rows = chef_exec::par::parallel_map(scales.to_vec(), None, |scale| {
        let (program, func, args) = mk(scale as i64);
        // Application alone (the paper's "Appl. Time/Memory" series).
        let inlined = chef_passes::inline_program(&program).or_fail("inlining failed");
        let primal = inlined
            .function(func)
            .or_fail("function not found after inlining");
        let compiled = compile_default(primal).or_fail("compile failed");
        let (app_out, app_ms) =
            time_ms(|| run(&compiled, args.clone()).or_fail("application run trapped"));
        let app_bytes = app_out.stats.peak_memory_bytes();

        let (chef_ms, chef_bytes) = chef_point(&program, func, &args, lens);
        (
            scale, app_ms, app_bytes, chef_ms, chef_bytes, program, func, args,
        )
    });
    // The ADAPT baselines stay serial: each run tapes toward the 4 GiB
    // budget, and concurrent baselines could OOM the host where the
    // serial sweep (one tape alive at a time) survives.
    for (scale, app_ms, app_bytes, chef_ms, chef_bytes, program, func, args) in rows {
        let (adapt_ms, adapt_mb) = match adapt_point(&program, func, &args) {
            Some((t, b)) => (format!("{t:.1}"), mb(b)),
            None => ("OOM".to_string(), "OOM".to_string()),
        };
        println!(
            "{:>10} | {:>10.1} {:>10} | {:>10.1} {:>10} | {:>10} {:>10}",
            scale,
            app_ms,
            mb(app_bytes),
            chef_ms,
            mb(chef_bytes),
            adapt_ms,
            adapt_mb
        );
    }
}

// ---------------------------------------------------------------- Fig. 9

fn fig9() {
    header("Figure 9: HPCCG per-iteration sensitivity heat map (r, p, x, Ap)");
    let prob = chef_apps::hpccg::problem(20, 30, 10);
    let p = chef_apps::hpccg::program();
    let cfg = SensitivityConfig {
        tracked: vec!["r".into(), "p".into(), "x".into(), "Ap".into()],
        tick_on: "rtrans".into(),
        max_ticks: 200,
    };
    let profile = profile_sensitivity(
        &p,
        chef_apps::hpccg::NAME,
        &cfg,
        &chef_apps::hpccg::args(&prob),
        &ExecOptions::default(),
    )
    .or_fail("hpccg sensitivity profiling failed");
    println!("iterations recorded: {}", profile.ticks);
    print!("{}", profile.ascii_heatmap(64));
    // The split decision uses the residual-carrying vectors (x's
    // |value·adjoint| plateaus at the solution by construction).
    let residual = hpccg_profile(&prob).or_fail("hpccg sensitivity profiling failed");
    match residual.split_point(1e-3) {
        Some(t) => println!(
            "residual sensitivities (r, p, Ap) collapse below 1e-3 of peak after \
             iteration {t} -> loop-split configuration: iterations 0..{t} in double, \
             rest in float"
        ),
        None => println!("sensitivities never collapse below the threshold"),
    }
}

// ----------------------------------------------------------- oracle table

/// One shadow-oracle comparison: tune on estimates, then *measure* the
/// chosen configuration with the fused shadow pass. Returns the quality
/// row plus the demotion set and the top measured attribution.
fn oracle_row(
    p: &Program,
    func: &str,
    args: &[ArgValue],
    cfg: &TunerConfig,
) -> (EstimateQualityRow, Vec<String>, String) {
    let res = tune(p, func, args, cfg).or_fail("tuner failed");
    let rep = validate_with_oracle(p, func, args, &res.config, &OracleOptions::default())
        .or_fail("oracle run failed");
    let top = rep
        .per_variable
        .first()
        .map(|(n, e)| format!("{n} ({})", sci(*e)))
        .unwrap_or_else(|| "-".to_string());
    let mut row = rep.against_estimate(cfg.threshold, res.estimated_error);
    // Faults the tuner isolated while producing this configuration: a
    // non-zero count means the row was measured under degraded
    // conditions (retried or quarantined trials) and still completed.
    row.fault_count = res.faults.total();
    (row, res.demoted, top)
}

/// The `repro --oracle` rows at full (paper-scaled) workloads.
fn oracle_rows() -> Vec<(EstimateQualityRow, Vec<String>, String)> {
    let mut rows = Vec::new();
    {
        let p = chef_apps::arclen::program();
        rows.push(oracle_row(
            &p,
            chef_apps::arclen::NAME,
            &chef_apps::arclen::args(100_000),
            &TunerConfig::with_threshold(1e-5),
        ));
    }
    {
        let p = chef_apps::simpsons::program();
        rows.push(oracle_row(
            &p,
            chef_apps::simpsons::NAME,
            &chef_apps::simpsons::args(100_000),
            &TunerConfig::with_threshold(1e-6),
        ));
    }
    {
        let p = chef_apps::kmeans::program();
        let w = chef_apps::kmeans::workload(10_000, 5, 4, 42);
        let cfg = TunerConfig::with_threshold(1e-6)
            .with_array_len("attributes", "npoints * nfeatures")
            .with_array_len("clusters", "nclusters * nfeatures");
        rows.push(oracle_row(
            &p,
            chef_apps::kmeans::NAME,
            &chef_apps::kmeans::args(&w),
            &cfg,
        ));
    }
    {
        let p = chef_apps::hpccg::program();
        let prob = chef_apps::hpccg::problem(20, 30, 5);
        rows.push(oracle_row(
            &p,
            chef_apps::hpccg::NAME,
            &chef_apps::hpccg::args(&prob),
            &TunerConfig::with_threshold(1e-10),
        ));
    }
    {
        let p = chef_apps::blackscholes::program();
        let w = chef_apps::blackscholes::workload(1_000, 42);
        // Demotion over the computed locals (the Table IV surface); see
        // `chef_apps::blackscholes::TUNE_CANDIDATES`.
        let mut cfg = TunerConfig::with_threshold(1e-5);
        cfg.candidates = Some(
            chef_apps::blackscholes::TUNE_CANDIDATES
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        rows.push(oracle_row(
            &p,
            chef_apps::blackscholes::NAME,
            &chef_apps::blackscholes::args(&w),
            &cfg,
        ));
    }
    rows
}

fn print_oracle_rows(rows: &[(EstimateQualityRow, Vec<String>, String)]) {
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>12} {:>9} {:>5}  top attribution / demoted",
        "Benchmark", "Threshold", "Estimated", "Measured", "rel dev", "<=10x", "div"
    );
    for (row, demoted, top) in rows {
        println!(
            "{:<14} {:>10} {:>14} {:>14} {:>12} {:>9} {:>5}  {} / {}",
            row.kernel,
            sci(row.threshold),
            sci(row.estimated),
            sci(row.measured),
            rel_dev_pct(row.estimated, row.measured),
            // A divergent row's measured error describes the wrong trace;
            // its band is not meaningful (and not gated).
            if row.diverged() {
                "n/a"
            } else if row.within_order_of_magnitude() {
                "yes"
            } else {
                "NO"
            },
            row.divergence_count,
            top,
            if demoted.is_empty() {
                "(none)".to_string()
            } else {
                demoted.join(", ")
            }
        );
    }
}

/// Divergence counts of the adversarial branching kernels under their
/// pinned flip/stable inputs — the detection feature exercised end to
/// end for the smoke artifact. (`(kernel, flip splits, stable splits)`;
/// the flip count must be ≥ 1, the stable count 0.)
fn adversarial_divergence() -> Vec<(&'static str, u64, u64)> {
    use chef_apps::adversarial::{floatcount, piecewise, threshold};
    let count = |p: &Program, func: &str, vars: &[&str], args: &[ArgValue]| -> u64 {
        let ids = chef_tuner::ids_of(p, func, vars).or_fail("flip variables did not resolve");
        let mut pm = PrecisionMap::empty();
        for id in ids {
            pm.set(id, chef_ir::types::FloatTy::F32);
        }
        chef_shadow::shadow_run(p, func, args, &pm, &OracleOptions::default())
            .or_fail("oracle run failed")
            .divergence_count
    };
    let t = threshold::program();
    let f = floatcount::program();
    let w = piecewise::program();
    vec![
        (
            "threshold",
            count(
                &t,
                threshold::NAME,
                threshold::FLIP_VARS,
                &threshold::flip_args(),
            ),
            count(
                &t,
                threshold::NAME,
                threshold::FLIP_VARS,
                &threshold::stable_args(),
            ),
        ),
        (
            "floatcount",
            count(
                &f,
                floatcount::NAME,
                floatcount::FLIP_VARS,
                &floatcount::flip_args(),
            ),
            count(
                &f,
                floatcount::NAME,
                floatcount::FLIP_VARS,
                &floatcount::stable_args(),
            ),
        ),
        (
            "piecewise",
            count(
                &w,
                piecewise::NAME,
                piecewise::FLIP_VARS,
                &piecewise::flip_args(),
            ),
            count(
                &w,
                piecewise::NAME,
                piecewise::FLIP_VARS,
                &piecewise::stable_args(),
            ),
        ),
    ]
}

fn oracle_table() {
    header("Oracle: estimated vs shadow-measured error per tuned configuration");
    print_oracle_rows(&oracle_rows());

    // The dual direction: with *no* demotion, the double-double shadow
    // measures each f64 kernel's own rounding error (RPC-style check).
    println!("\nf64 self-error (double-double shadow, no demotion):");
    let dd = OracleOptions {
        mode: ShadowMode::DD,
        ..Default::default()
    };
    let selfs: Vec<(&str, Program, &str, Vec<ArgValue>)> = vec![
        (
            "Arc Length",
            chef_apps::arclen::program(),
            chef_apps::arclen::NAME,
            chef_apps::arclen::args(100_000),
        ),
        (
            "Simpsons",
            chef_apps::simpsons::program(),
            chef_apps::simpsons::NAME,
            chef_apps::simpsons::args(100_000),
        ),
        (
            "Black-Scholes",
            chef_apps::blackscholes::program(),
            chef_apps::blackscholes::NAME,
            chef_apps::blackscholes::args(&chef_apps::blackscholes::workload(1_000, 42)),
        ),
    ];
    for (label, p, func, args) in selfs {
        let rep = validate_with_oracle(&p, func, &args, &PrecisionMap::empty(), &dd)
            .or_fail("double-double oracle run failed");
        println!(
            "{label:<14} |out err| = {}   acc = {}   div = {}",
            sci(rep.output_error),
            sci(rep.acc_error),
            rep.divergence_count
        );
    }

    // The adversarial corpus: demotions that flip control flow must be
    // flagged, branch-stable inputs must stay silent.
    println!("\nadversarial corpus (divergence splits, flip / stable input):");
    for (name, flip, stable) in adversarial_divergence() {
        println!("{name:<14} {flip:>4} / {stable}");
    }
}

// ------------------------------------------------------------ perf smoke

/// CI smoke: functional gates on small workloads — the per-pc
/// profiler's budget, the service's leak-free drain, persistent-cache
/// reuse, the estimate-quality band and the adversarial divergence
/// corpus. The profiler budget is the only gate that reads a clock;
/// speed is measured by `perfbench/`, not here. The oracle rows go to
/// `BENCH_oracle_smoke.json`, which repeats byte for byte run to run.
fn smoke() {
    use chef_core::json::Json;

    header("smoke (functional gates; oracle rows -> BENCH_oracle_smoke.json)");

    // 1. Per-pc profiler budget: the arclen primal (full default
    // pipeline) with the profiler armed against the same run with it
    // off. Profile-off dispatch is a separately monomorphized loop, so
    // only the armed loop carries the counting cost; gated at ≤ 1.5x
    // below. The runs are paired — one off and one on back to back,
    // alternating which goes first — and the gate reads the median of
    // the per-pair ratios, so a load change (a build finishing, another
    // process) lands on both sides of a pair instead of on one median.
    let p = chef_apps::arclen::program();
    let primal = p
        .function(chef_apps::arclen::NAME)
        .or_fail("arclen kernel not found");
    let fused = compile_default(primal).or_fail("arclen compile failed");
    let opts = ExecOptions::default();
    let prof_opts = ExecOptions {
        profile: true,
        ..Default::default()
    };
    let mut m = chef_exec::vm::Machine::new();
    let mut run_ms =
        |o: &ExecOptions| time_ms(|| m.run_reused(&fused, vec![ArgValue::I(10_000)], o).unwrap()).1;
    run_ms(&opts); // warmup
    run_ms(&prof_opts);
    let mut ratios: Vec<f64> = (0..31)
        .map(|pair| {
            if pair % 2 == 0 {
                let off = run_ms(&opts);
                run_ms(&prof_opts) / off
            } else {
                let on = run_ms(&prof_opts);
                on / run_ms(&opts)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let telemetry_prof_x = ratios[ratios.len() / 2];
    println!(
        "per-pc profiling: {telemetry_prof_x:.2}x over the profile-off dispatch \
         (median of 31 paired ratios; <= 1.5x bar)"
    );

    // 2. Service layer: the same kernel, 64 independent runs pushed
    // through an `AnalysisServer` session — admission, per-job stats
    // and telemetry included (its `service.*` counters land in the
    // telemetry snapshot below). Every job must complete and the drain
    // must leave no machine checked out.
    {
        let server = chef_service::AnalysisServer::new(chef_service::ServiceConfig {
            max_queue_depth: 128,
            ..Default::default()
        });
        let session = server
            .open_session(
                chef_service::SessionSpec::named("smoke")
                    .with_fault(chef_exec::fault::FaultPlan::new(None, 0, 0, 1)),
            )
            .or_fail("service session rejected");
        let func = std::sync::Arc::new(fused.clone());
        let tickets: Vec<_> = (0..64)
            .map(|_| {
                session
                    .submit_run(func.clone(), vec![ArgValue::I(2_000)])
                    .or_fail("service submission rejected")
            })
            .collect();
        for t in tickets {
            t.wait().completed().or_fail("service job did not complete");
        }
        let report = server.drain();
        if !report.leak_free() {
            eprintln!(
                "service leak: {} checkout(s) outstanding after drain",
                report.outstanding_checkouts
            );
            std::process::exit(1);
        }
        println!("service: 64 jobs completed, drain leak-free");
    }

    // 3. Span memory: each parallel batch runs on fresh worker threads
    // that open spans (the steps above open spans on this thread only),
    // and an exited worker's span ring is reused, so 200 batches leave
    // at most the retired-ring budget plus the threads that held rings
    // at once; gated below. The oldest retired rings' spans are evicted
    // (counted as dropped) on the way.
    for _ in 0..200 {
        let sets = vec![vec![ArgValue::I(100)]; 4];
        for out in chef_exec::vm::run_batch_parallel(&fused, sets, &opts, Some(2)) {
            out.or_fail("span-memory batch trapped");
        }
    }
    let span_rings = chef_telemetry::gauge("telemetry.span_rings").get() as usize;
    let span_rings_bound = chef_telemetry::retired_span_ring_budget()
        + chef_telemetry::gauge("telemetry.span_threads_peak").get() as usize;
    println!(
        "span rings: {span_rings} registered after 200 parallel batches (bound {span_rings_bound})"
    );

    // 4. Persistent variant cache: cold compile vs warm disk load over
    // the five app kernels. The store lives in `CHEF_CACHE_DIR` when
    // set (the CI cache-reuse job shares it across two runs, so the
    // second run resolves every kernel from disk) or in a throwaway
    // temp dir otherwise. With `CHEF_SMOKE_EXPECT_WARM=1` the populate
    // phase is *required* to be all disk hits (zero compiles); any miss
    // fails the run.
    let cache_failed = {
        use chef_exec::store::DiskStore;
        use std::sync::Arc;

        let kernels: Vec<(&'static str, Program, &'static str, Vec<ArgValue>)> = vec![
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
                "hpccg",
                chef_apps::hpccg::program(),
                chef_apps::hpccg::NAME,
                chef_apps::hpccg::args(&chef_apps::hpccg::problem(4, 4, 4)),
            ),
            (
                "blackscholes",
                chef_apps::blackscholes::program(),
                chef_apps::blackscholes::NAME,
                chef_apps::blackscholes::args(&chef_apps::blackscholes::workload(100, 42)),
            ),
        ];
        let primals: Vec<(&'static str, chef_ir::ast::Function, Vec<ArgValue>)> = kernels
            .iter()
            .map(|(label, p, func, kargs)| {
                let inlined = chef_passes::inline_program(p).or_fail("inlining failed");
                let primal = inlined
                    .function(func)
                    .or_fail("kernel not found after inlining")
                    .clone();
                (*label, primal, kargs.clone())
            })
            .collect();

        // Cold baseline: direct compiles, no cache — the work the warm
        // path is supposed to skip entirely.
        let cold_funcs: Vec<_> = primals
            .iter()
            .map(|(_, primal, _)| compile_default(primal).or_fail("cold compile failed"))
            .collect();

        let shared = std::env::var_os("CHEF_CACHE_DIR").is_some();
        let dir = std::env::var_os("CHEF_CACHE_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("chef-smoke-cache-{}", std::process::id()))
            });
        let mut bad = false;

        // Populate (or, on a re-run against a shared store, hit): the
        // store-backed cache writes each compiled kernel through the
        // deferred write-back queue; flush_disk empties it.
        let populate_store = Arc::new(DiskStore::open(&dir).or_fail("cannot open cache dir"));
        let cache = chef_tuner::VariantCache::new().with_store(Arc::clone(&populate_store));
        let empty_pm = PrecisionMap::empty();
        for (_, primal, _) in &primals {
            cache
                .get_or_compile(primal, &empty_pm)
                .or_fail("cache populate failed");
        }
        cache.flush_disk();
        let expect_warm = std::env::var("CHEF_SMOKE_EXPECT_WARM").as_deref() == Ok("1");
        if expect_warm {
            if populate_store.misses() > 0 {
                eprintln!(
                    "cache regression: CHEF_SMOKE_EXPECT_WARM=1 but {} lookup(s) missed the store",
                    populate_store.misses()
                );
                bad = true;
            }
            if populate_store.hits() as usize != primals.len() {
                eprintln!(
                    "cache regression: expected {} disk hits, saw {}",
                    primals.len(),
                    populate_store.hits()
                );
                bad = true;
            }
        }

        // Warm: a fresh cache and a fresh store handle on the same
        // directory must resolve every kernel from disk — zero
        // compilations, no new compile/pack spans, bit-identical
        // execution against the cold-compiled functions.
        let spans_of = |name: &str| chef_telemetry::snapshot().spans_named(name).len();
        let (compiles_before, packs_before) = (spans_of("compile"), spans_of("pack"));
        let warm_store = Arc::new(DiskStore::open(&dir).or_fail("cannot reopen cache dir"));
        let warm_cache = chef_tuner::VariantCache::new().with_store(Arc::clone(&warm_store));
        let warm_funcs: Vec<_> = primals
            .iter()
            .map(|(_, primal, _)| {
                warm_cache
                    .get_or_compile(primal, &empty_pm)
                    .or_fail("warm load failed")
            })
            .collect();
        if warm_cache.misses() > 0 || warm_store.misses() > 0 || warm_store.corrupt() > 0 {
            eprintln!(
                "cache regression: warm pass compiled {} / missed {} / corrupt {}",
                warm_cache.misses(),
                warm_store.misses(),
                warm_store.corrupt()
            );
            bad = true;
        }
        if spans_of("compile") > compiles_before || spans_of("pack") > packs_before {
            eprintln!("cache regression: warm pass recorded new compile/pack spans");
            bad = true;
        }
        for (i, (label, _, kargs)) in primals.iter().enumerate() {
            let cold_out = run(&cold_funcs[i], kargs.clone()).or_fail("cold kernel run trapped");
            let warm_out = run(&warm_funcs[i], kargs.clone()).or_fail("warm kernel run trapped");
            let bits = |v: &Option<Value>| match v {
                Some(Value::F(f)) => (1u8, f.to_bits()),
                Some(Value::I(n)) => (2, *n as u64),
                Some(Value::B(b)) => (3, *b as u64),
                None => (0, 0),
            };
            if bits(&cold_out.ret) != bits(&warm_out.ret) {
                eprintln!(
                    "cache regression: {label} disk-loaded kernel diverged from cold compile"
                );
                bad = true;
            }
        }
        println!(
            "cache: {} kernels | populate hits {} misses {} writes {} | warm hits {}",
            primals.len(),
            populate_store.hits(),
            populate_store.misses(),
            populate_store.writes(),
            warm_store.hits()
        );
        if !shared {
            let _ = std::fs::remove_dir_all(&dir);
        }
        bad
    };

    // 5. Shadow-oracle smoke table: small workloads, same estimated-vs-
    // measured rows as `repro --oracle`, written for the CI artifact.
    header("oracle smoke (estimated vs shadow-measured; -> BENCH_oracle_smoke.json)");
    let mut rows = Vec::new();
    {
        let p = chef_apps::arclen::program();
        rows.push(oracle_row(
            &p,
            chef_apps::arclen::NAME,
            &chef_apps::arclen::args(2_000),
            &TunerConfig::with_threshold(3e-6),
        ));
    }
    {
        let p = chef_apps::simpsons::program();
        rows.push(oracle_row(
            &p,
            chef_apps::simpsons::NAME,
            &chef_apps::simpsons::args(2_000),
            &TunerConfig::with_threshold(1e-7),
        ));
    }
    print_oracle_rows(&rows);

    // Per-kernel divergence counts of the adversarial corpus: flips must
    // be flagged (≥ 1 split) and stable inputs must stay silent — a
    // regression in either direction fails the smoke run.
    let div = adversarial_divergence();
    println!("\nadversarial corpus (divergence splits, flip / stable input):");
    for (name, flip, stable) in &div {
        println!("{name:<14} {flip:>4} / {stable}");
    }
    let doc = Json::obj([
        (
            "rows",
            Json::Arr(rows.iter().map(|(r, _, _)| r.to_json_value()).collect()),
        ),
        (
            "divergence",
            Json::Arr(
                div.iter()
                    .map(|&(name, flip, stable)| {
                        Json::obj([
                            ("kernel", Json::str(name)),
                            ("flip_splits", Json::Num(flip as f64)),
                            ("stable_splits", Json::Num(stable as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = "BENCH_oracle_smoke.json";
    std::fs::write(path, doc.to_string_pretty()).or_fail("cannot write BENCH_oracle_smoke.json");
    println!("snapshot written to {path}");

    // Estimate-quality regression gate: the estimated-vs-measured ratios
    // must stay inside the paper's order-of-magnitude band. A violation
    // fails the run (and CI) instead of silently archiving a regression.
    // Rows whose configuration diverged are printed but not gated: their
    // measured error describes a trace the baseline never takes, so the
    // band is meaningless for them. A cache-reuse violation detected
    // above fails the run through the same exit.
    let mut failed = cache_failed;
    for (r, _, _) in &rows {
        if r.diverged() {
            println!(
                "note: {} diverged ({} splits) — order-of-magnitude band not enforced",
                r.kernel, r.divergence_count
            );
        } else if !r.within_order_of_magnitude() {
            eprintln!(
                "estimate-quality regression: {} estimated {} vs measured {} \
                 leaves the order-of-magnitude band",
                r.kernel,
                sci(r.estimated),
                sci(r.measured)
            );
            failed = true;
        }
    }
    for (name, flip, stable) in &div {
        if *flip == 0 {
            eprintln!("divergence regression: {name} flip input reported no split");
            failed = true;
        }
        if *stable > 0 {
            eprintln!("divergence regression: {name} stable input reported {stable} split(s)");
            failed = true;
        }
    }
    // Profiler budget: the armed per-pc counting loop must stay within
    // 1.5x of the profile-off dispatch.
    if telemetry_prof_x > 1.5 {
        eprintln!(
            "telemetry regression: per-pc profiling ran at {telemetry_prof_x:.2}x (> 1.5x bar)"
        );
        failed = true;
    }

    // Span memory: threads that exited gave their span rings back.
    if span_rings > span_rings_bound {
        eprintln!(
            "telemetry regression: {span_rings} span rings registered (bound {span_rings_bound})"
        );
        failed = true;
    }

    // Telemetry snapshot of the whole smoke run, written for the CI
    // artifact even when a gate failed (it is the evidence): counters,
    // gauges and histograms to TELEMETRY_smoke.json, and the per-run
    // span trace to TELEMETRY_spans_smoke.json (neither kept in the
    // tree).
    let snap = chef_telemetry::snapshot();
    let tdoc = chef_core::report::telemetry_to_json(&snap);
    std::fs::write("TELEMETRY_smoke.json", tdoc.to_string_pretty())
        .or_fail("cannot write TELEMETRY_smoke.json");
    let sdoc = chef_core::report::spans_to_json(&snap);
    std::fs::write("TELEMETRY_spans_smoke.json", sdoc.to_string_pretty())
        .or_fail("cannot write TELEMETRY_spans_smoke.json");
    println!(
        "telemetry: {} counters, {} histograms -> TELEMETRY_smoke.json; \
         {} spans ({} dropped) -> TELEMETRY_spans_smoke.json",
        snap.counters.len(),
        snap.histograms.len(),
        snap.spans.len(),
        snap.spans_dropped
    );
    if failed {
        std::process::exit(1);
    }
}

// ------------------------------------------------------------ serve smoke

/// `repro --serve-smoke`: the chef-service soak gate. Runs one
/// [`chef_service::AnalysisServer`] through every degraded regime at
/// once — clean sessions, a fault-injected session (seed from
/// `CHEF_FAULT_SEED`, so the CI matrix varies it), a deadline-bound
/// session and a budget-starved one that trips its breaker — then
/// prints the per-session outcome table and self-verifies:
///
/// * **contamination**: every clean-session result is bit-identical to
///   a solo run on a fresh machine;
/// * **termination**: every submitted job reached a terminal outcome
///   (a hang here times out the CI job — that *is* the gate);
/// * **typed degradation**: deadline overruns surface as
///   `DeadlineExceeded` with a valid pc, budget exhaustion quarantines
///   the session via its breaker instead of failing the run;
/// * **leak-free drain**: zero job attempts (so zero machine checkouts)
///   of the server still in flight.
///
/// Exits non-zero on any violation.
fn serve_smoke() {
    use chef_exec::fault::FaultPlan;
    use chef_service::{AnalysisServer, Outcome, RejectReason, ServiceConfig, SessionSpec};
    use std::sync::Arc;
    use std::time::Duration;

    let seed = std::env::var("CHEF_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42);
    header(&format!(
        "service smoke: concurrent sessions under fault injection (seed {seed})"
    ));

    let inert = || FaultPlan::new(None, 0, 0, 1);
    let server = AnalysisServer::new(ServiceConfig {
        workers: 4,
        max_queue_depth: 256,
        ..Default::default()
    });
    let p = chef_apps::arclen::program();
    let func = Arc::new(
        compile_default(
            p.function(chef_apps::arclen::NAME)
                .or_fail("arclen kernel not found"),
        )
        .or_fail("arclen compile failed"),
    );
    let mut failed = false;

    // Clean pair + noisy neighbour, interleaved onto the shared workers.
    let clean_a = server
        .open_session(SessionSpec::named("clean-a").with_fault(inert()))
        .or_fail("open clean-a");
    let clean_b = server
        .open_session(SessionSpec::named("clean-b").with_fault(inert()))
        .or_fail("open clean-b");
    let faulty = server
        .open_session(SessionSpec::named("faulty").with_fault(FaultPlan::from_seed(seed, None)))
        .or_fail("open faulty");
    let mut clean_tickets = Vec::new();
    let mut faulty_tickets = Vec::new();
    for k in 0..24u32 {
        let args = vec![ArgValue::I(1_000 + k as i64)];
        clean_tickets.push((
            k,
            clean_a
                .submit_run(func.clone(), args.clone())
                .or_fail("submit"),
        ));
        faulty_tickets.push(
            faulty
                .submit_run(func.clone(), args.clone())
                .or_fail("submit"),
        );
        clean_tickets.push((k, clean_b.submit_run(func.clone(), args).or_fail("submit")));
    }
    let solo_opts = ExecOptions {
        fault: Some(inert()),
        ..Default::default()
    };
    for (k, t) in clean_tickets {
        match t.wait() {
            Outcome::Completed { value, .. } => {
                let solo =
                    chef_exec::vm::run_with(&func, vec![ArgValue::I(1_000 + k as i64)], &solo_opts)
                        .or_fail("solo reference run trapped");
                if value.ret_f().to_bits() != solo.ret_f().to_bits() {
                    eprintln!("contamination: clean run {k} diverged from its solo reference");
                    failed = true;
                }
            }
            other => {
                eprintln!("clean session job {k} not completed: {}", other.kind());
                failed = true;
            }
        }
    }
    for t in faulty_tickets {
        t.wait(); // terminal (completed, retried-completed, or typed fault)
    }

    // Deadline regime: an over-budget run must degrade to a typed trap.
    let deadline = server
        .open_session(
            SessionSpec::named("deadline")
                .with_deadline(Duration::from_millis(5))
                .with_fault(inert()),
        )
        .or_fail("open deadline");
    match deadline
        .submit_run(func.clone(), vec![ArgValue::I(200_000_000)])
        .or_fail("submit")
        .wait()
    {
        Outcome::DeadlineExceeded { pc, .. } if pc < func.instrs.len() => {}
        other => {
            eprintln!(
                "deadline overrun was not a typed DeadlineExceeded: {}",
                other.kind()
            );
            failed = true;
        }
    }
    match deadline
        .submit_run(func.clone(), vec![ArgValue::I(100)])
        .or_fail("submit")
        .wait()
    {
        Outcome::Completed { .. } => {}
        other => {
            eprintln!("short run after a deadline trap failed: {}", other.kind());
            failed = true;
        }
    }

    // Budget regime: repeated exhaustion trips the breaker (quarantine),
    // which is the *intended* degraded state — not a smoke failure.
    let budget = server
        .open_session(
            SessionSpec::named("budget")
                .with_budget(100)
                .with_fault(inert()),
        )
        .or_fail("open budget");
    for _ in 0..3 {
        budget
            .submit_run(func.clone(), vec![ArgValue::I(100_000)])
            .or_fail("submit")
            .wait();
    }
    if !budget.quarantined() {
        eprintln!("budget session did not trip its breaker after 3 exhausted jobs");
        failed = true;
    }
    match budget.submit_run(func.clone(), vec![ArgValue::I(100)]) {
        Err(rej) if rej.reason == RejectReason::CircuitOpen => {}
        Err(rej) => {
            eprintln!("quarantined session rejected with the wrong reason: {rej}");
            failed = true;
        }
        Ok(t) => {
            t.wait();
            eprintln!("quarantined session admitted a job");
            failed = true;
        }
    }

    let sessions = [&clean_a, &clean_b, &faulty, &deadline, &budget];
    println!(
        "{:<10} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} | {:>9} {:>9} {:>9}",
        "session",
        "sub",
        "done",
        "retry",
        "fault",
        "ddl",
        "rej",
        "quar",
        "p50 us",
        "p95 us",
        "p99 us"
    );
    for s in sessions {
        let st = s.stats();
        let (p50, p95, p99) = st
            .latency_quantiles()
            .map(|(a, b, c)| (a as f64 / 1e3, b as f64 / 1e3, c as f64 / 1e3))
            .unwrap_or((0.0, 0.0, 0.0));
        println!(
            "{:<10} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} | {:>9.1} {:>9.1} {:>9.1}",
            s.name(),
            st.submitted,
            st.completed,
            st.retried,
            st.faulted,
            st.deadline_exceeded,
            st.rejected_backpressure,
            st.rejected_quarantine,
            p50,
            p95,
            p99
        );
        if st.terminal() != st.submitted {
            eprintln!(
                "termination: session {} submitted {} but only {} reached a terminal state",
                s.name(),
                st.submitted,
                st.terminal()
            );
            failed = true;
        }
    }

    let report = server.drain();
    if !report.leak_free() {
        eprintln!(
            "leak: {} job attempt(s) still holding machines after drain",
            report.outstanding_checkouts
        );
        failed = true;
    }
    println!(
        "drain: {} session(s), {} checkout(s) outstanding",
        report.sessions.len(),
        report.outstanding_checkouts
    );
    if failed {
        std::process::exit(1);
    }
    println!("service smoke: all gates passed");
}

// ------------------------------------------------------------- profiling

/// `repro --profile`: the per-pc execution profile of the arclen kernel
/// — the "hottest pcs by time × error" view. One fused-shadow run with
/// [`ExecOptions::profile`] yields both the dispatch counts (execution
/// frequency ≈ time share in a uniform-dispatch interpreter) and the
/// per-pc local-error samples ([`PcSample`]), so each row marries how
/// *often* an instruction ran with how much rounding error it produced.
fn profile_table() {
    header("per-pc execution profile: arclen, all floats demoted to f32 (f64 shadow)");
    let p = chef_apps::arclen::program();
    let primal = p
        .function(chef_apps::arclen::NAME)
        .or_fail("arclen kernel not found");
    // Fully demoted: undemoted arclen has no rounding sites relative to
    // the f64 shadow, and an all-zero error column ranks nothing.
    let mut pm = PrecisionMap::empty();
    for (id, v) in primal.vars_iter() {
        use chef_ir::types::{ElemTy, Type};
        if let Type::Float(_) | Type::Array(ElemTy::Float(_)) = v.ty {
            pm.set(id, chef_ir::types::FloatTy::F32);
        }
    }
    let func = chef_exec::compile::compile(
        primal,
        &chef_exec::compile::CompileOptions {
            precisions: pm,
            ..Default::default()
        },
    )
    .or_fail("arclen compile failed");
    let opts = ExecOptions {
        profile: true,
        ..Default::default()
    };
    let mut sm = chef_exec::shadow::ShadowMachine::<f64>::new();
    let out = sm
        .run_reused(&func, vec![ArgValue::I(10_000)], &opts)
        .or_fail("arclen profiled shadow run trapped");
    let prof = out
        .profile
        .as_ref()
        .or_fail("profile missing despite ExecOptions::profile");

    // The profiler's ground-truth invariant: per-pc increments sum to
    // exactly the block-granular instruction count.
    assert_eq!(
        prof.total(),
        out.stats.instrs_executed,
        "per-pc counts must sum to instrs_executed"
    );
    // And the plain VM (packed dispatch, no shadow) counts identically.
    let vm_out = chef_exec::vm::Machine::new()
        .run_reused(&func, vec![ArgValue::I(10_000)], &opts)
        .or_fail("arclen profiled vm run trapped");
    assert_eq!(
        vm_out.profile.as_ref().map(|p| &p.pc_counts),
        Some(&prof.pc_counts),
        "vm and shadow profiles must agree"
    );

    let total = prof.total() as f64;
    let acc: f64 = out.samples.iter().map(|s| s.sum).sum();
    println!(
        "{:>4} {:<14} {:>12} {:>7} {:>12} {:>7}",
        "pc", "op", "count", "disp%", "err sum", "err%"
    );
    for (pc, count) in prof.hottest(16) {
        let s = &out.samples[pc];
        let err_pct = if acc > 0.0 { 100.0 * s.sum / acc } else { 0.0 };
        println!(
            "{pc:>4} {:<14} {count:>12} {:>6.2}% {:>12} {err_pct:>6.2}%",
            chef_exec::vm::instr_mnemonic(&func.instrs[pc]),
            100.0 * count as f64 / total,
            sci(s.sum),
        );
    }
    println!("\nby opcode:");
    for (op, count) in prof.opcode_histogram(&func) {
        println!(
            "{op:<14} {count:>12} {:>6.2}%",
            100.0 * count as f64 / total
        );
    }
    println!(
        "\n{} instructions dispatched, accumulated local error {}",
        prof.total(),
        sci(acc)
    );
}

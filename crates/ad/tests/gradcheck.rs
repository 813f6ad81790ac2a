//! Gradient correctness: reverse mode vs forward mode vs finite
//! differences, on hand-written kernels and on random generated programs.

use chef_ad::forward::forward_diff;
use chef_ad::reverse::{reverse_diff, reverse_diff_with, NoExtension, ReverseConfig};
use chef_exec::prelude::*;
use chef_ir::ast::Function;
use chef_ir::parser::parse_program;
use chef_ir::typeck::check_program;
use chef_passes::testgen::{generate, GenConfig};

fn checked(src: &str) -> Function {
    let mut p = parse_program(src).unwrap();
    check_program(&mut p).unwrap();
    let p = chef_passes::inline_program(&p).unwrap();
    p.functions.into_iter().next_back().unwrap()
}

fn run_f(func: &Function, args: Vec<ArgValue>) -> f64 {
    let c = compile_default(func).unwrap();
    let opts = ExecOptions {
        max_instrs: Some(50_000_000),
        ..Default::default()
    };
    run_with(&c, args, &opts).unwrap().ret_f()
}

/// Runs the generated gradient and returns the adjoints of the float
/// scalar params (in order) plus the adjoint arrays of float array params.
fn run_grad(grad: &Function, primal_args: &[ArgValue]) -> Vec<ArgValue> {
    let c = compile_default(grad).unwrap();
    let mut args: Vec<ArgValue> = primal_args.to_vec();
    for (i, a) in primal_args.iter().enumerate() {
        match a {
            ArgValue::F(_) => args.push(ArgValue::F(0.0)),
            ArgValue::FArr(v) => args.push(ArgValue::FArr(vec![0.0; v.len()])),
            _ => {}
        }
        let _ = i;
    }
    let opts = ExecOptions {
        max_instrs: Some(50_000_000),
        ..Default::default()
    };
    let out = run_with(&c, args, &opts).unwrap();
    out.args[primal_args.len()..].to_vec()
}

fn fd_gradient(func: &Function, args: &[ArgValue], which: usize) -> f64 {
    let x = args[which].as_f();
    let h = (1e-6 * x.abs()).max(1e-8);
    let mut hi = args.to_vec();
    hi[which] = ArgValue::F(x + h);
    let mut lo = args.to_vec();
    lo[which] = ArgValue::F(x - h);
    (run_f(func, hi) - run_f(func, lo)) / (2.0 * h)
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel * scale
}

#[test]
fn product_rule() {
    let f = checked("double f(double x, double y) { double z = x * y; return z; }");
    let grad = reverse_diff(&f).unwrap();
    let out = run_grad(&grad, &[ArgValue::F(3.0), ArgValue::F(5.0)]);
    assert_eq!(out[0], ArgValue::F(5.0)); // dz/dx = y
    assert_eq!(out[1], ArgValue::F(3.0)); // dz/dy = x
}

#[test]
fn chain_rule_through_intrinsics() {
    let f = checked("double f(double x) { return sin(x * x); }");
    let grad = reverse_diff(&f).unwrap();
    let x = 0.7;
    let out = run_grad(&grad, &[ArgValue::F(x)]);
    let expect = (x * x).cos() * 2.0 * x;
    assert!(
        close(out[0].as_f(), expect, 1e-12),
        "{:?} vs {expect}",
        out[0]
    );
}

#[test]
fn overwrites_and_self_reference() {
    // v assigned twice, second time reading itself.
    let f = checked("double f(double x, double y) { double v = x * x; v = v * y; return v; }");
    let grad = reverse_diff(&f).unwrap();
    let (x, y) = (1.3, -2.1);
    let out = run_grad(&grad, &[ArgValue::F(x), ArgValue::F(y)]);
    assert!(close(out[0].as_f(), 2.0 * x * y, 1e-12));
    assert!(close(out[1].as_f(), x * x, 1e-12));
}

#[test]
fn scalar_updates_skip_the_adjoint_capture() {
    // Every assignment here is a scalar one with a short backward form:
    // no `_r` capture temporary is emitted, `2.0 * s` scales `_d_s` in
    // place, and the gradients stay exact.
    let f = checked(
        "double f(double x, double y) { double s = x * y; s = s + sin(x); s = s - y * y; \
         s = 2.0 * s; s = y + s; double t = s * s; return t; }",
    );
    let grad = reverse_diff(&f).unwrap();
    let src = chef_ir::printer::print_function(&grad);
    let captures = src.matches("double _r").count() - src.matches("double _result").count();
    assert_eq!(captures, 0, "{src}");
    assert!(src.contains("_d_s = _d_s * 2.0;"), "{src}");
    let (x, y) = (0.7, -1.3);
    let s = 2.0 * (x * y + f64::sin(x) - y * y) + y;
    let out = run_grad(&grad, &[ArgValue::F(x), ArgValue::F(y)]);
    let dx = 2.0 * s * 2.0 * (y + f64::cos(x));
    let dy = 2.0 * s * (2.0 * (x - 2.0 * y) + 1.0);
    assert!(close(out[0].as_f(), dx, 1e-12), "{:?} vs {dx}", out[0]);
    assert!(close(out[1].as_f(), dy, 1e-12), "{:?} vs {dy}", out[1]);
}

#[test]
fn loop_gradient_arclength_shape() {
    // The paper's Arc Length kernel shape: accumulation in a loop with
    // sqrt of sums.
    let src = "double arclen(double amp, int n) {
        double h = 3.141592653589793 / n;
        double t1 = 0.0;
        double s1 = 0.0;
        double prev = 0.0;
        for (int i = 1; i <= n; i++) {
            double t2 = i * h;
            double y = amp * sin(t2);
            double dy = y - prev;
            s1 += sqrt(h * h + dy * dy);
            prev = y;
            t1 = t2;
        }
        return s1;
    }";
    let f = checked(src);
    let grad = reverse_diff(&f).unwrap();
    let args = [ArgValue::F(1.5), ArgValue::I(64)];
    let out = run_grad(&grad, &args);
    let fd = fd_gradient(&f, &args, 0);
    assert!(
        close(out[0].as_f(), fd, 1e-5),
        "ad {} vs fd {fd}",
        out[0].as_f()
    );
}

#[test]
fn branch_gradient() {
    let f = checked(
        "double f(double x) {
            double r = 0.0;
            if (x > 1.0) { r = x * x; } else { r = 3.0 * x; }
            return r;
        }",
    );
    let grad = reverse_diff(&f).unwrap();
    let out = run_grad(&grad, &[ArgValue::F(2.0)]);
    assert_eq!(out[0], ArgValue::F(4.0));
    let out = run_grad(&grad, &[ArgValue::F(0.5)]);
    assert_eq!(out[0], ArgValue::F(3.0));
}

#[test]
fn array_gradient_dot_product() {
    let f = checked(
        "double dot(double a[], double b[], int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
            return s;
        }",
    );
    let grad = reverse_diff(&f).unwrap();
    let a = vec![1.0, 2.0, 3.0];
    let b = vec![4.0, 5.0, 6.0];
    let out = run_grad(
        &grad,
        &[
            ArgValue::FArr(a.clone()),
            ArgValue::FArr(b.clone()),
            ArgValue::I(3),
        ],
    );
    assert_eq!(out[0].as_farr(), b.as_slice()); // d/da = b
    assert_eq!(out[1].as_farr(), a.as_slice()); // d/db = a
}

#[test]
fn array_overwrite_gradient() {
    // Elements are overwritten in a second loop; push/pop of elements must
    // restore them for the adjoint of the first loop.
    let f = checked(
        "double f(double a[], int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { a[i] = a[i] * a[i]; }
            for (int i = 0; i < n; i++) { s += a[i]; }
            return s;
        }",
    );
    let grad = reverse_diff(&f).unwrap();
    let a = vec![1.5, -2.0, 0.5];
    let out = run_grad(&grad, &[ArgValue::FArr(a.clone()), ArgValue::I(3)]);
    let expect: Vec<f64> = a.iter().map(|x| 2.0 * x).collect();
    assert_eq!(out[0].as_farr(), expect.as_slice());
}

#[test]
fn while_loop_gradient() {
    let f = checked(
        "double f(double x) {
            double v = x;
            while (v < 100.0) { v = v * 2.0; }
            return v;
        }",
    );
    let grad = reverse_diff(&f).unwrap();
    let x = 3.0; // 3 -> 6 -> 12 -> 24 -> 48 -> 96 -> 192: 6 doublings
    let out = run_grad(&grad, &[ArgValue::F(x)]);
    assert_eq!(out[0], ArgValue::F(64.0));
}

#[test]
fn fabs_and_minmax_gradients() {
    let f =
        checked("double f(double x, double y) { return fabs(x) + fmax(x, y) + fmin(x * y, y); }");
    let grad = reverse_diff(&f).unwrap();
    for &(x, y) in &[(2.0, 1.0), (-2.0, 1.0), (0.5, 3.0)] {
        let args = [ArgValue::F(x), ArgValue::F(y)];
        let out = run_grad(&grad, &args);
        let fdx = fd_gradient(&f, &args, 0);
        let fdy = fd_gradient(&f, &args, 1);
        assert!(
            close(out[0].as_f(), fdx, 1e-5),
            "x={x},y={y}: {} vs {fdx}",
            out[0].as_f()
        );
        assert!(
            close(out[1].as_f(), fdy, 1e-5),
            "x={x},y={y}: {} vs {fdy}",
            out[1].as_f()
        );
    }
}

#[test]
fn pow_gradient() {
    let f = checked("double f(double x, double y) { return pow(x, y); }");
    let grad = reverse_diff(&f).unwrap();
    let (x, y) = (2.5, 1.7);
    let out = run_grad(&grad, &[ArgValue::F(x), ArgValue::F(y)]);
    assert!(close(out[0].as_f(), y * x.powf(y - 1.0), 1e-12));
    assert!(close(out[1].as_f(), x.powf(y) * x.ln(), 1e-12));
}

#[test]
fn reverse_matches_forward_mode_on_random_programs() {
    let cfg = GenConfig::default();
    let exec_opts = ExecOptions {
        max_instrs: Some(5_000_000),
        ..Default::default()
    };
    let mut tested = 0;
    for seed in 0..120 {
        let g = generate(seed, &cfg);
        let args = vec![
            ArgValue::F(g.float_args[0]),
            ArgValue::F(g.float_args[1]),
            ArgValue::I(g.int_arg),
        ];
        let grad = match reverse_diff(&g.function) {
            Ok(gr) => gr,
            Err(e) => panic!("seed {seed}: reverse failed: {e}\n{}", g.source),
        };
        let gc = compile_default(&grad).unwrap();
        let mut gargs = args.clone();
        gargs.push(ArgValue::F(0.0));
        gargs.push(ArgValue::F(0.0));
        let gout = match run_with(&gc, gargs, &exec_opts) {
            Ok(o) => o,
            Err(t) => panic!("seed {seed}: grad trapped: {t}\n{}", g.source),
        };
        let (rx, ry) = (gout.args[3].as_f(), gout.args[4].as_f());
        // Forward mode as the oracle (same arithmetic, independent code
        // path).
        for (wrt, rev_val) in [("x", rx), ("y", ry)] {
            let fwd = forward_diff(&g.function, wrt).unwrap();
            let fc = compile_default(&fwd).unwrap();
            let fout = run_with(&fc, args.clone(), &exec_opts).unwrap().ret_f();
            assert!(
                close(rev_val, fout, 1e-9) || (rev_val.is_nan() && fout.is_nan()),
                "seed {seed} wrt {wrt}: reverse {rev_val} vs forward {fout}\n{}",
                g.source
            );
        }
        tested += 1;
    }
    assert!(tested > 100);
}

#[test]
fn tbr_and_full_push_agree() {
    let cfg_gen = GenConfig::default();
    let tbr_on = ReverseConfig {
        tbr: true,
        ..Default::default()
    };
    let tbr_off = ReverseConfig {
        tbr: false,
        ..Default::default()
    };
    let exec_opts = ExecOptions {
        max_instrs: Some(5_000_000),
        ..Default::default()
    };
    for seed in 200..260 {
        let g = generate(seed, &cfg_gen);
        let args = vec![
            ArgValue::F(g.float_args[0]),
            ArgValue::F(g.float_args[1]),
            ArgValue::I(g.int_arg),
        ];
        let mut results = Vec::new();
        let mut peaks = Vec::new();
        for cfg in [&tbr_on, &tbr_off] {
            let grad = reverse_diff_with(&g.function, cfg, &mut NoExtension).unwrap();
            let c = compile_default(&grad).unwrap();
            let mut gargs = args.clone();
            gargs.push(ArgValue::F(0.0));
            gargs.push(ArgValue::F(0.0));
            let out = run_with(&c, gargs, &exec_opts).unwrap();
            results.push((out.args[3].as_f(), out.args[4].as_f()));
            peaks.push(out.stats.tape_peak_bytes);
        }
        assert_eq!(results[0], results[1], "seed {seed}\n{}", g.source);
        assert!(
            peaks[0] <= peaks[1],
            "seed {seed}: TBR tape {} > full tape {}",
            peaks[0],
            peaks[1]
        );
    }
}

#[test]
fn tbr_reduces_tape_on_straight_line_code() {
    let f = checked(
        "double f(double x) {
            double a = x * x;
            double b = a + 1.0;
            double c = b * a;
            return c;
        }",
    );
    let tbr = reverse_diff_with(
        &f,
        &ReverseConfig {
            tbr: true,
            ..Default::default()
        },
        &mut NoExtension,
    )
    .unwrap();
    let c = compile_default(&tbr).unwrap();
    let out = run_with(
        &c,
        vec![ArgValue::F(2.0), ArgValue::F(0.0)],
        &ExecOptions::default(),
    )
    .unwrap();
    // Single-assignment locals never read before their assignment: no
    // pushes at all.
    assert_eq!(
        out.stats.tape_total_pushes, 0,
        "pushes: {}",
        out.stats.tape_total_pushes
    );
    assert_eq!(
        out.args[1],
        ArgValue::F(2.0 * 2.0 * (2.0 * 2.0) + (2.0 * 2.0 + 1.0) * 2.0 * 2.0)
    );
}

#[test]
fn listing1_signature_convention() {
    // Paper Listing 1: df.execute(x, y, &dx, &dy, fp_error) — without an
    // extension the signature is (x, y, &_d_x, &_d_y).
    let f = checked("float func(float x, float y) { float z; z = x + y; return z; }");
    let grad = reverse_diff(&f).unwrap();
    let names: Vec<_> = grad.params.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["x", "y", "_d_x", "_d_y"]);
    let out = run_grad(&grad, &[ArgValue::F(1.95e-5), ArgValue::F(1.37e-7)]);
    assert_eq!(out[0], ArgValue::F(1.0));
    assert_eq!(out[1], ArgValue::F(1.0));
}

#[test]
fn generated_code_optimizes_and_still_matches() {
    // The CHEF-FP pipeline optimizes generated adjoints; optimization must
    // not change gradients.
    for seed in 300..340 {
        let g = generate(seed, &GenConfig::default());
        let args = vec![
            ArgValue::F(g.float_args[0]),
            ArgValue::F(g.float_args[1]),
            ArgValue::I(g.int_arg),
        ];
        let grad = reverse_diff(&g.function).unwrap();
        let mut opt = grad.clone();
        chef_passes::optimize_function(&mut opt, chef_passes::OptLevel::O2);
        let exec_opts = ExecOptions {
            max_instrs: Some(5_000_000),
            ..Default::default()
        };
        let mut gargs = args.clone();
        gargs.push(ArgValue::F(0.0));
        gargs.push(ArgValue::F(0.0));
        let a = run_with(&compile_default(&grad).unwrap(), gargs.clone(), &exec_opts).unwrap();
        let b = run_with(&compile_default(&opt).unwrap(), gargs, &exec_opts).unwrap();
        let (a3, a4) = (a.args[3].as_f(), a.args[4].as_f());
        let (b3, b4) = (b.args[3].as_f(), b.args[4].as_f());
        assert!(
            (a3 == b3 || (a3.is_nan() && b3.is_nan()))
                && (a4 == b4 || (a4.is_nan() && b4.is_nan())),
            "seed {seed}: ({a3},{a4}) vs ({b3},{b4})\n{}",
            g.source
        );
    }
}

#[test]
fn unsupported_shapes_report_errors() {
    use chef_ad::reverse::AdError;
    let f = checked("int f(int n) { return n; }");
    assert!(matches!(reverse_diff(&f), Err(AdError::NonFloatReturn)));

    let f = checked("double f(double x) { if (x > 0.0) { return x; } return -x; }");
    assert!(matches!(reverse_diff(&f), Err(AdError::EarlyReturn { .. })));

    let f = checked("double f(double x) { double y = x; }");
    assert!(matches!(
        reverse_diff(&f),
        Err(AdError::MissingTrailingReturn)
    ));
}

/// One estimator run (`chef_core::estimate_error_src`, the shipped
/// pipeline) with TBR on or off: the optimized generated source, and the
/// primal value, `fp_error`, gradients and per-variable table as bits.
fn estimate_bits(src: &str, args: &[ArgValue], tbr: bool) -> (String, Vec<String>) {
    let opts = chef_core::EstimateOptions {
        tbr,
        ..Default::default()
    };
    let est = chef_core::estimate_error_src(src, "f", &opts).unwrap();
    let out = est.execute(args).unwrap();
    let bits = |v: &ArgValue| match v {
        ArgValue::F(x) => format!("{:x}", x.to_bits()),
        ArgValue::FArr(v) => format!("{:x?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
        other => format!("{other:?}"),
    };
    let mut results = vec![
        format!("value {:x}", out.value.to_bits()),
        format!("fp_error {:x}", out.fp_error.to_bits()),
    ];
    results.extend(
        out.gradient
            .iter()
            .map(|(n, v)| format!("d{n} {}", bits(v))),
    );
    let mut table: Vec<String> = out
        .per_variable
        .iter()
        .map(|(n, e)| format!("err {n} {:x}", e.to_bits()))
        .collect();
    table.sort();
    results.extend(table);
    (chef_ir::printer::print_function(&est.grad), results)
}

/// Asserts that the default emission and the counted baseline
/// (`tbr = false`) give bit-identical results on every argument list,
/// and that the default emission ran `reversible` of its loops backward
/// by inverting their step and kept `counted` loop counters; returns the
/// default emission's source.
fn loops_reverse_exactly(
    src: &str,
    arg_lists: &[Vec<ArgValue>],
    reversible: usize,
    counted: usize,
) -> String {
    let mut generated = String::new();
    for args in arg_lists {
        let (source, on) = estimate_bits(src, args, true);
        let (baseline, off) = estimate_bits(src, args, false);
        assert_eq!(on, off, "{args:?}\n{source}");
        assert_eq!(
            baseline.matches("int _cnt").count(),
            reversible + counted,
            "the baseline counts every loop:\n{baseline}"
        );
        generated = source;
    }
    let inverted = generated
        .lines()
        .filter(|l| l.trim_start().starts_with("while (") && l.contains(" != "))
        .count();
    assert_eq!(inverted, reversible, "reversible loops:\n{generated}");
    assert_eq!(
        generated.matches("int _cnt").count(),
        counted,
        "counted loops:\n{generated}"
    );
    generated
}

#[test]
fn loops_run_backward_down_counting_and_by_three() {
    let src = "double f(double x, int n) {
        double s = 0.0;
        for (int i = n; i > 0; i--) { s = s + x * i; }
        for (int k = 0; k < n; k += 3) { s = s * x + k; }
        for (int m = n; m > -4; m = m - 3) { s = s + 0.25 * m * x; }
        return s;
    }";
    let args = |n| vec![ArgValue::F(0.7), ArgValue::I(n)];
    let generated = loops_reverse_exactly(src, &[args(10), args(1), args(0)], 3, 0);
    // `k = 0` is a literal init: the test reads it, with no tape entry.
    assert!(generated.contains("while (k != 0)"), "{generated}");
}

#[test]
fn zero_trip_loops_run_backward_zero_times() {
    let src = "double f(double x, int n) {
        double s = x;
        for (int i = 5; i < n; i++) { s = s * x; }
        int j = n;
        while (j < 3) { s = s + x; j = j + 1; }
        return s;
    }";
    let args = |n| vec![ArgValue::F(1.1), ArgValue::I(n)];
    loops_reverse_exactly(src, &[args(2), args(3), args(8)], 2, 0);
}

#[test]
fn a_data_dependent_while_exit_runs_backward() {
    // hpccg's `iter` loop: the exit depends on the data, not on `it`.
    let src = "double f(double x, int maxit) {
        double r = x;
        int it = 0;
        while (it < maxit && r > 0.001) {
            r = r * 0.5 + 0.0001 * x;
            it = it + 1;
        }
        return r;
    }";
    let args = |x, n| vec![ArgValue::F(x), ArgValue::I(n)];
    loops_reverse_exactly(src, &[args(3.0, 100), args(0.01, 100), args(3.0, 2)], 1, 0);
}

#[test]
fn nested_loops_with_a_non_literal_init_run_backward() {
    // hpccg's sparse rows: the inner loop starts at `rowptr[i]`, so its
    // entry value is kept on the tape instead of a trip count.
    let src = "double f(double v[], int rowptr[], int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            for (int j = rowptr[i]; j < rowptr[i + 1]; j++) {
                s = s + v[j] * v[j] * s;
            }
        }
        return s;
    }";
    let args = vec![
        ArgValue::FArr(vec![0.5, -1.25, 2.0, 0.125, 3.5]),
        ArgValue::IArr(vec![0, 2, 2, 5]),
        ArgValue::I(3),
    ];
    let generated = loops_reverse_exactly(src, &[args], 2, 0);
    assert!(generated.contains("while (i != 0)"), "{generated}");
    assert!(generated.contains("int _e"), "{generated}");
}

#[test]
fn an_induction_variable_read_and_overwritten_after_its_loop_runs_backward() {
    let src = "double f(double x, int n) {
        double s = 0.0;
        int i = 0;
        for (i = 1; i < n; i = i + 1) { s = s + x / i; }
        s = s * i;
        i = 7;
        s = s + x * i;
        return s;
    }";
    let args = |n| vec![ArgValue::F(0.3), ArgValue::I(n)];
    loops_reverse_exactly(src, &[args(6), args(0)], 1, 0);
}

#[test]
fn a_wrapping_induction_variable_runs_backward_exactly() {
    // `i` wraps past `i64::MAX` in the forward loop; the inverse step
    // wraps back, and the walk still meets the entry value after exactly
    // six steps.
    let src = "double f(double x) {
        double s = x;
        int k = 0;
        for (int i = 9223372036854775805; k < 6; i = i + 1) {
            s = s * x + 0.5 * (i % 7);
            k = k + 1;
        }
        return s;
    }";
    loops_reverse_exactly(src, &[vec![ArgValue::F(0.9)]], 1, 0);
}

#[test]
fn loops_without_an_invertible_step_keep_their_counter() {
    // The step sits inside an `if`; `i` is also written in the body; the
    // step is even. All three keep the counted form, and the one loop
    // with a plain step next to them still runs backward.
    let src = "double f(double x, int n) {
        double s = x;
        int i = 0;
        while (i < n) {
            s = s * 0.5 + x;
            if (s > 1.0) { i = i + 1; } else { i = i + 1; }
        }
        for (int j = 0; j < n; j++) { s = s + x; j = j + 1; }
        for (int k = 0; k < n; k = k + 2) { s = s * x; }
        for (int m = 0; m < n; m++) { s = s - x * m; }
        return s;
    }";
    let args = |n| vec![ArgValue::F(0.6), ArgValue::I(n)];
    loops_reverse_exactly(src, &[args(5), args(0)], 1, 3);
}

#[test]
fn negated_contributions_subtract() {
    // A subtrahend, a negation and a divisor each seed their operands
    // with a negated adjoint; the default emission subtracts it where the
    // baseline adds its negation, with bit-identical results.
    let src = "double f(double x, double y, double a[], int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            s = s - a[i] * y;
            s = s + x / a[i];
        }
        double t = -(x * s) - y;
        return t;
    }";
    let args = vec![
        ArgValue::F(0.8),
        ArgValue::F(-1.5),
        ArgValue::FArr(vec![0.5, 2.0, -3.0]),
        ArgValue::I(3),
    ];
    let (source, on) = estimate_bits(src, &args, true);
    let (baseline, off) = estimate_bits(src, &args, false);
    assert_eq!(on, off, "{source}");
    assert!(baseline.contains("+= -"), "{baseline}");
    assert!(!source.contains("+= -"), "{source}");
    assert!(source.contains("_d_a[i] -= "), "{source}");
}

#[test]
fn accumulations_into_zeroed_adjoints_become_stores() {
    // `u`'s and `w`'s adjoints are zero when their first contribution
    // arrives, in every iteration: the contribution is stored, and the
    // zeroing that no longer reaches a read goes.
    let src = "double f(double x, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            double u = x * i;
            double w = u * u;
            if (w > 1.0) { w = w * 0.5; }
            s = s + w;
        }
        return s;
    }";
    for n in [0, 1, 4] {
        let args = vec![ArgValue::F(0.9), ArgValue::I(n)];
        let (source, on) = estimate_bits(src, &args, true);
        let (baseline, off) = estimate_bits(src, &args, false);
        assert_eq!(on, off, "{source}");
        assert!(baseline.contains("_d_w += _d_s"), "{baseline}");
        assert!(source.contains("_d_w = _d_s"), "{source}");
        assert!(source.contains("_d_u = "), "{source}");
        let zeroings = |s: &str| s.lines().filter(|l| l.ends_with(" = 0.0;")).count();
        assert!(
            zeroings(&source) < zeroings(&baseline),
            "{source}\n{baseline}"
        );
    }
}

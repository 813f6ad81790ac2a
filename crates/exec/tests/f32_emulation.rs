//! The VM emulates `float` arithmetic as an `f64` operation followed by
//! one rounding to `f32`. For + − × ÷ and √ that is exactly the native
//! `f32` operation: `f64` carries 53 ≥ 2·24 + 2 significand bits, so the
//! double rounding is innocuous. This file states that theorem as a
//! test, with fusion on (`F*Round` superinstructions) and off (the
//! operation, then `FRound`): every result equals the native `f32`
//! result bit for bit, and a NaN matches a NaN.
//!
//! Inputs are random `f32` bit patterns, near-equal-magnitude pairs
//! (cancellation, ties) and edge values: ±0, the smallest and largest
//! subnormals, `MIN_POSITIVE`, ±`MAX`, ±∞ and `1 + k·ε/2`.

use chef_exec::bytecode::CompiledFunction;
use chef_exec::compile::{compile, CompileOptions};
use chef_exec::prelude::*;
use chef_ir::parser::parse_program;
use chef_ir::typeck::check_program;

/// splitmix64: a fixed-seed stream, so a mismatch reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        f32::from_bits(self.next() as u32)
    }
}

fn edge_values() -> Vec<f32> {
    let mut v = vec![
        0.0,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x007f_ffff), // largest subnormal
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
        1.0,
        3.0,
    ];
    for k in 1..=8 {
        v.push(1.0 + k as f32 * f32::EPSILON / 2.0);
    }
    let negated: Vec<f32> = v.iter().map(|x| -x).collect();
    v.extend(negated);
    v
}

/// Every edge pair, every edge against random values (both orders),
/// random pairs, and near-equal pairs a few ulps apart, of either sign.
fn pairs() -> Vec<(f32, f32)> {
    let mut rng = Rng(0x5eed_f32e);
    let edges = edge_values();
    let mut out = Vec::new();
    for &a in &edges {
        for &b in &edges {
            out.push((a, b));
        }
        for _ in 0..500 {
            let r = rng.f32();
            out.push((a, r));
            out.push((r, a));
        }
    }
    for _ in 0..100_000 {
        out.push((rng.f32(), rng.f32()));
    }
    for _ in 0..80_000 {
        let a = rng.f32();
        let r = rng.next();
        let ulps = (r % 9) as i64 - 4;
        let bits = (a.to_bits() as i64 + ulps).clamp(0, u32::MAX as i64) as u32;
        let b = f32::from_bits(bits);
        out.push((a, if r & 1 << 40 != 0 { -b } else { b }));
    }
    out
}

fn kernel(body: &str, params: &str, fuse: bool) -> CompiledFunction {
    let src = format!("float f({params}) {{ float z = {body}; return z; }}");
    let mut p = parse_program(&src).unwrap();
    check_program(&mut p).unwrap();
    let opts = CompileOptions {
        fuse,
        ..Default::default()
    };
    compile(&p.functions[0], &opts).unwrap()
}

fn same(vm: f64, native: f32) -> bool {
    if native.is_nan() {
        vm.is_nan()
    } else {
        vm.to_bits() == (native as f64).to_bits()
    }
}

/// Runs `body` on every input through `run_batch_parallel` and panics
/// at the first result that differs from `native`.
fn assert_native(
    body: &str,
    params: &str,
    fuse: bool,
    inputs: &[Vec<f32>],
    native: impl Fn(&[f32]) -> f32,
) {
    let f = kernel(body, params, fuse);
    let args = inputs
        .iter()
        .map(|xs| xs.iter().map(|&x| ArgValue::F(x as f64)).collect())
        .collect();
    let outs = run_batch_parallel(&f, args, &ExecOptions::default(), None);
    for (xs, out) in inputs.iter().zip(outs) {
        let vm = out.expect("runs").ret_f();
        let want = native(xs);
        assert!(
            same(vm, want),
            "`{body}` (fuse {fuse}) on {xs:?}: vm {vm:e}, f32 {want:e}"
        );
    }
}

#[test]
fn float_arithmetic_matches_native_f32() {
    let pairs: Vec<Vec<f32>> = pairs().into_iter().map(|(a, b)| vec![a, b]).collect();
    let singles: Vec<Vec<f32>> = pairs.iter().map(|p| vec![p[0]]).collect();
    let binary = [
        ("a + b", (|a, b| a + b) as fn(f32, f32) -> f32),
        ("a - b", |a, b| a - b),
        ("a * b", |a, b| a * b),
        ("a / b", |a, b| a / b),
    ];
    for fuse in [true, false] {
        for (body, op) in binary {
            assert_native(body, "float a, float b", fuse, &pairs, |x| op(x[0], x[1]));
        }
        assert_native("sqrt(a)", "float a", fuse, &singles, |x| x[0].sqrt());
    }
}

#[test]
fn fusion_changes_the_stream_under_test() {
    // The test above covers both forms only if fusion emits the
    // op-and-round superinstruction and the unfused stream does not.
    let kernels = [
        ("a + b", "float a, float b", "FAddRound"),
        ("a - b", "float a, float b", "FSubRound"),
        ("a * b", "float a, float b", "FMulRound"),
        ("a / b", "float a, float b", "FDivRound"),
        ("sqrt(a)", "float a", "FIntr1Round"),
    ];
    for (body, params, fused_op) in kernels {
        let stream = |fuse| format!("{:?}", kernel(body, params, fuse).instrs);
        assert!(stream(true).contains(fused_op), "`{body}`");
        assert!(!stream(false).contains(fused_op), "`{body}`");
    }
}

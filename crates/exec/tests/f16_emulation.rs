//! The VM emulates `half` and `bfloat` arithmetic as an `f64` operation
//! followed by one rounding to the narrow format. For + − × ÷ and √ that
//! is exactly the correctly rounded narrow operation. The reference here
//! gets there another way: the native `f32` operation, then a
//! round-to-nearest-even to the narrow format written in this file.
//! Rounding twice is innocuous because `f32` carries 24 significand
//! bits, at least 2p + 2 for binary16 (p = 11) and bfloat16 (p = 8), and
//! `f32`'s exponent range covers both. Every result must equal the
//! reference bit for bit, with fusion on (`F*Round` superinstructions)
//! and off (the operation, then `FRound`); a NaN matches a NaN.
//!
//! Inputs are random 16-bit patterns of the format, near-equal pairs a
//! few ulps apart (cancellation, ties) and edge values: ±0, the smallest
//! and largest subnormals, the smallest normal, ±max, ±∞ and
//! `1 + k·ε`.

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
}

/// A 16-bit float format: its KernelC type and its parameters.
#[derive(Clone, Copy, Debug)]
struct Format {
    ty: &'static str,
    /// Significand bits, the implicit one included.
    p: i32,
    /// Exponent of the smallest normal.
    emin: i32,
    /// Stored exponent bits.
    exp_bits: u32,
}

const HALF: Format = Format {
    ty: "half",
    p: 11,
    emin: -14,
    exp_bits: 5,
};

const BFLOAT: Format = Format {
    ty: "bfloat",
    p: 8,
    emin: -126,
    exp_bits: 8,
};

impl Format {
    /// The value of the 16-bit pattern `h`: sign, `exp_bits` exponent
    /// bits, `p − 1` stored significand bits.
    fn decode(self, h: u16) -> f32 {
        let man_bits = (self.p - 1) as u32;
        let sign = if h >> 15 == 1 { -1.0 } else { 1.0 };
        let exp = i32::from((h >> man_bits) & ((1 << self.exp_bits) - 1));
        let man = f64::from(h & ((1 << man_bits) - 1));
        let bias = (1 << (self.exp_bits - 1)) - 1;
        let v = if exp == 0 {
            man * 2f64.powi(self.emin - man_bits as i32)
        } else if exp == (1 << self.exp_bits) - 1 {
            if man == 0.0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        } else {
            (man + 2f64.powi(man_bits as i32)) * 2f64.powi(exp - bias - man_bits as i32)
        };
        (sign * v) as f32
    }

    /// The largest finite value.
    fn max(self) -> f64 {
        let emax = 1 - self.emin;
        (2.0 - 2f64.powi(1 - self.p)) * 2f64.powi(emax)
    }

    /// `x` rounded to the nearest value of the format, ties to even:
    /// the quantum is one ulp of `x`'s binade (of the subnormal range
    /// below the smallest normal), and a result past the largest finite
    /// value overflows to ∞.
    fn round(self, x: f32) -> f64 {
        let x = f64::from(x);
        if !x.is_finite() || x == 0.0 {
            return x;
        }
        let e = ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let quantum = 2f64.powi(e.max(self.emin) - (self.p - 1));
        let r = (x / quantum).round_ties_even() * quantum;
        if r.abs() > self.max() {
            f64::INFINITY.copysign(x)
        } else {
            r
        }
    }

    fn edge_values(self) -> Vec<f32> {
        let man_bits = self.p - 1;
        let mut v = vec![
            0.0,
            self.decode(1),                   // smallest subnormal
            self.decode((1 << man_bits) - 1), // largest subnormal
            self.decode(1 << man_bits),       // smallest normal
            self.max() as f32,
            f32::INFINITY,
            f32::NAN,
            1.0,
            3.0,
        ];
        for k in 1..=8 {
            v.push(1.0 + k as f32 * 2f32.powi(1 - self.p));
        }
        let negated: Vec<f32> = v.iter().map(|x| -x).collect();
        v.extend(negated);
        v
    }

    /// Every edge pair, every edge against random values (both orders),
    /// random pairs, and near-equal pairs a few ulps apart, of either
    /// sign.
    fn pairs(self, rng: &mut Rng) -> Vec<(f32, f32)> {
        let edges = self.edge_values();
        let mut out = Vec::new();
        for &a in &edges {
            for &b in &edges {
                out.push((a, b));
            }
            for _ in 0..200 {
                let r = self.decode(rng.next() as u16);
                out.push((a, r));
                out.push((r, a));
            }
        }
        for _ in 0..25_000 {
            out.push((
                self.decode(rng.next() as u16),
                self.decode(rng.next() as u16),
            ));
        }
        for _ in 0..20_000 {
            let r = rng.next();
            let a = (r >> 16) as u16 & 0x7fff;
            let ulps = (r % 9) as i32 - 4;
            let b = (i32::from(a) + ulps).clamp(0, 0x7fff) as u16;
            let sign = if r & 1 << 40 != 0 { 0x8000 } else { 0 };
            out.push((self.decode(a), self.decode(b | sign)));
        }
        out
    }
}

fn kernel(ty: &str, body: &str, params: &str, fuse: bool) -> CompiledFunction {
    let src = format!("{ty} f({params}) {{ {ty} z = {body}; return z; }}");
    let mut p = parse_program(&src).unwrap();
    check_program(&mut p).unwrap();
    let opts = CompileOptions {
        fuse,
        ..Default::default()
    };
    compile(&p.functions[0], &opts).unwrap()
}

fn same(vm: f64, want: f64) -> bool {
    if want.is_nan() {
        vm.is_nan()
    } else {
        vm.to_bits() == want.to_bits()
    }
}

/// Runs `body` at `fmt` on every input through `run_batch_parallel` and
/// panics at the first result that differs from `native` rounded to
/// `fmt`.
fn assert_rounded_native(
    fmt: Format,
    body: &str,
    params: &str,
    fuse: bool,
    inputs: &[Vec<f32>],
    native: impl Fn(&[f32]) -> f32,
) {
    let f = kernel(fmt.ty, body, params, fuse);
    let args = inputs
        .iter()
        .map(|xs| xs.iter().map(|&x| ArgValue::F(x as f64)).collect())
        .collect();
    let outs = run_batch_parallel(&f, args, &ExecOptions::default(), None);
    for (xs, out) in inputs.iter().zip(outs) {
        let vm = out.expect("runs").ret_f();
        let want = fmt.round(native(xs));
        assert!(
            same(vm, want),
            "`{body}` at {} (fuse {fuse}) on {xs:?}: vm {vm:e}, reference {want:e}",
            fmt.ty
        );
    }
}

#[test]
fn half_and_bfloat_arithmetic_match_rounded_native_f32() {
    let mut rng = Rng(0x5eed_f16e);
    for fmt in [HALF, BFLOAT] {
        let pairs: Vec<Vec<f32>> = fmt
            .pairs(&mut rng)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        let singles: Vec<Vec<f32>> = pairs.iter().map(|p| vec![p[0]]).collect();
        let binary = [
            ("a + b", (|a, b| a + b) as fn(f32, f32) -> f32),
            ("a - b", |a, b| a - b),
            ("a * b", |a, b| a * b),
            ("a / b", |a, b| a / b),
        ];
        let params = format!("{0} a, {0} b", fmt.ty);
        for fuse in [true, false] {
            for (body, op) in binary {
                assert_rounded_native(fmt, body, &params, fuse, &pairs, |x| op(x[0], x[1]));
            }
            let param = format!("{} a", fmt.ty);
            assert_rounded_native(fmt, "sqrt(a)", &param, fuse, &singles, |x| x[0].sqrt());
        }
    }
}

#[test]
fn reference_rounding_is_exact_on_known_values() {
    // The largest values, the overflow midpoint, a tie each way and the
    // subnormal grid, by hand.
    assert_eq!(HALF.max(), 65504.0);
    assert_eq!(HALF.round(65519.0), 65504.0);
    assert_eq!(HALF.round(65520.0), f64::INFINITY);
    assert_eq!(HALF.round(1.0 + 2f32.powi(-11)), 1.0);
    assert_eq!(HALF.round(1.0 + 3.0 * 2f32.powi(-11)), 1.0 + 2f64.powi(-9));
    assert_eq!(HALF.round(2f32.powi(-25)), 0.0);
    assert_eq!(HALF.round(3.0 * 2f32.powi(-25)), 2f64.powi(-23));
    assert_eq!(HALF.decode(0x3c00), 1.0);
    assert_eq!(HALF.decode(0x7bff), 65504.0);
    assert_eq!(BFLOAT.decode(0x3f80), 1.0);
    assert_eq!(BFLOAT.round(1.0 + 2f32.powi(-8)), 1.0);
    assert_eq!(BFLOAT.round(f32::MAX), f64::INFINITY);
    assert_eq!(BFLOAT.max(), f64::from(f32::from_bits(0x7f7f_0000)));
    assert_eq!(BFLOAT.round(f32::from_bits(1)), 0.0);
}

#[test]
fn fusion_changes_the_stream_under_test() {
    // The test above covers both forms only if fusion emits the
    // op-and-round superinstruction and the unfused stream does not.
    for ty in ["half", "bfloat"] {
        let kernels = [
            ("a + b", "FAddRound"),
            ("a - b", "FSubRound"),
            ("a * b", "FMulRound"),
            ("a / b", "FDivRound"),
            ("sqrt(a)", "FIntr1Round"),
        ];
        for (body, fused_op) in kernels {
            let params = format!("{ty} a, {ty} b");
            let stream = |fuse| format!("{:?}", kernel(ty, body, &params, fuse).instrs);
            assert!(stream(true).contains(fused_op), "`{body}` at {ty}");
            assert!(!stream(false).contains(fused_op), "`{body}` at {ty}");
        }
    }
}

/// Compiles and runs `src`'s only function on `args`, fused or not.
fn run_source(src: &str, args: Vec<ArgValue>, fuse: bool) -> CallOutcome {
    let mut p = parse_program(src).unwrap();
    check_program(&mut p).unwrap();
    let opts = CompileOptions {
        fuse,
        ..Default::default()
    };
    let f = compile(&p.functions[0], &opts).unwrap();
    run_with(&f, args, &ExecOptions::default()).expect("runs")
}

#[test]
fn half_to_bfloat_conversions_round() {
    // 1 + 2^-10 is a half but not a bfloat (7 stored significand bits),
    // so every half-to-bfloat conversion must round it, to 1. A store
    // into a scalar, a store into an array element and a cast each
    // decide this; `Ord` puts half below bfloat, which once made all
    // three skip the round.
    let h = 1.0 + 2f64.powi(-10);
    assert_eq!(HALF.round(h as f32), h);
    for fuse in [true, false] {
        let out = run_source(
            "void f(half h, bfloat &b) { b = h; }",
            vec![ArgValue::F(h), ArgValue::F(0.0)],
            fuse,
        );
        assert_eq!(out.args[1].as_f(), 1.0, "scalar store (fuse {fuse})");
        let out = run_source(
            "void f(half h, bfloat b[]) { b[0] = h; }",
            vec![ArgValue::F(h), ArgValue::FArr(vec![0.0])],
            fuse,
        );
        let ArgValue::FArr(b) = &out.args[1] else {
            panic!("array argument comes back as an array");
        };
        assert_eq!(b[0], 1.0, "array store (fuse {fuse})");
        let out = run_source(
            "double f(half h) { return (bfloat) h; }",
            vec![ArgValue::F(h)],
            fuse,
        );
        assert_eq!(out.ret_f(), 1.0, "cast (fuse {fuse})");
    }
}

//! Property tests for the precision-simulation substrate: the soft-float
//! rounding functions must behave like IEEE 754 conversions, and the
//! tape must be a faithful LIFO.

use chef_exec::precision::{demotion_error, round_to, ulp};
use chef_exec::tape::Tape;
use chef_ir::types::FloatTy;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rounding_is_idempotent(x in -1e30f64..1e30, ty in any_float_ty()) {
        let once = round_to(x, ty);
        prop_assert_eq!(round_to(once, ty), once);
    }

    #[test]
    fn rounding_is_monotone(a in -1e6f64..1e6, b in -1e6f64..1e6, ty in any_float_ty()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(round_to(lo, ty) <= round_to(hi, ty));
    }

    #[test]
    fn rounding_error_is_bounded_by_epsilon(x in 1e-3f64..1e3, ty in any_float_ty()) {
        // Relative error ≤ machine epsilon in the normal range.
        let err = demotion_error(x, ty).abs();
        prop_assert!(
            err <= ty.epsilon() * x.abs() * (1.0 + 1e-12),
            "x={x} ty={ty} err={err}"
        );
    }

    #[test]
    fn rounding_is_odd(x in -1e6f64..1e6, ty in any_float_ty()) {
        // round(-x) == -round(x) for round-to-nearest-even.
        prop_assert_eq!(round_to(-x, ty), -round_to(x, ty));
    }

    #[test]
    fn f16_matches_f32_double_rounding_path(x in -60000f64..60000.0) {
        // f64 -> f16 agrees with f64 -> f32 -> f16 except where the f32
        // step rounds onto an f16 midpoint: the two-step path then ties
        // to even (double rounding), and the direct one takes the
        // neighbour nearer to x.
        let direct = round_to(x, FloatTy::F16);
        let via_f32 = x as f32 as f64;
        let two_step = round_to(via_f32, FloatTy::F16);
        if direct != two_step {
            prop_assert!(via_f32 != x);
            prop_assert_eq!((via_f32 - direct).abs(), (via_f32 - two_step).abs());
            prop_assert!((x - direct).abs() < (x - two_step).abs(), "x={x}");
        }
    }

    #[test]
    fn wider_formats_are_at_least_as_accurate(x in -1e4f64..1e4) {
        let e16 = demotion_error(x, FloatTy::F16).abs();
        let e32 = demotion_error(x, FloatTy::F32).abs();
        let e64 = demotion_error(x, FloatTy::F64).abs();
        prop_assert!(e64 == 0.0);
        prop_assert!(e32 <= e16 * (1.0 + 1e-12));
    }

    #[test]
    fn rounded_value_is_within_half_ulp(x in 0.5f64..1e4, ty in any_float_ty()) {
        let r = round_to(x, ty);
        if r.is_finite() {
            prop_assert!(
                (x - r).abs() <= ulp(x, ty) * 0.5 * (1.0 + 1e-12),
                "x={x} ty={ty} r={r}"
            );
        }
    }

    #[test]
    fn tape_is_lifo(values in prop::collection::vec(-1e9f64..1e9, 1..64)) {
        let mut t = Tape::new();
        for &v in &values {
            t.push_f(v).unwrap();
        }
        let mut popped = Vec::new();
        while let Ok(v) = t.pop_f() {
            popped.push(v);
        }
        let mut expect = values.clone();
        expect.reverse();
        prop_assert_eq!(popped, expect);
    }

    #[test]
    fn tape_peak_equals_max_live(values in prop::collection::vec(0usize..8, 1..100)) {
        // Interpret the sequence as push (v>0 repeated v times) / pop (0).
        let mut t = Tape::new();
        let mut live = 0usize;
        let mut max_live = 0usize;
        for v in values {
            if v == 0 {
                if live > 0 {
                    t.pop_f().unwrap();
                    live -= 1;
                }
            } else {
                for _ in 0..v {
                    t.push_f(1.0).unwrap();
                    live += 1;
                }
            }
            max_live = max_live.max(live);
        }
        prop_assert_eq!(t.peak_entries(), max_live);
    }
}

fn any_float_ty() -> impl Strategy<Value = FloatTy> {
    prop_oneof![
        Just(FloatTy::F16),
        Just(FloatTy::BF16),
        Just(FloatTy::F32),
        Just(FloatTy::F64)
    ]
}

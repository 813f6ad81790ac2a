//! The taping lane: the [`ShadowNum`] that ADAPT's forward pass runs in
//! chef-exec's one dispatch loop (`run_shadow::<Taped>`).
//!
//! A [`Taped`] value is the primal's value plus, when it depends on an
//! input, the index of the tape entry that computed it. Every operation
//! with an active operand appends an [`Entry`] with its partials to this
//! thread's [`OpTape`]; an operation on two passive operands (a
//! constant, an integer, or the loop's local-error samples on
//! `from_f64` operands) records nothing. The loop's three hooks feed the
//! rest of ADAPT's model:
//!
//! * `input` records a leaf entry per float parameter (or element);
//! * `rounded` takes the primal's value where the primal rounds, so the
//!   lane follows `half`/`bfloat`/`float` programs bit for bit;
//! * `commit` records a copy entry at every store to a named variable
//!   and at a return from a temporary, and marks it for the post-hoc
//!   error terms; the return also ends the recording.
//!
//! Dispatch runs on the calling thread (`run_shadow` checks a machine
//! out of the process pool and runs it in place), so a thread-local
//! recording reaches the whole forward pass.

use crate::tape::{Entry, EntryIdx, OpTape, TapeOom};
use chef_exec::intrinsics::{eval1, eval2};
use chef_exec::shadow::ShadowNum;
use chef_ir::ast::Intrinsic;
use std::cell::RefCell;

/// One value of the taping lane.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Taped {
    v: f64,
    /// The entry that computed `v`; `None` for a passive value.
    idx: Option<EntryIdx>,
}

/// What one forward pass recorded.
pub(crate) struct Recording {
    pub(crate) tape: OpTape,
    /// `(entry, variable)` for every input and commit, in tape order;
    /// variable 0 is the function result.
    pub(crate) marks: Vec<(EntryIdx, u32)>,
    /// The entry the function returned (the reverse pass's seed).
    pub(crate) result: Option<EntryIdx>,
    /// Set when the tape went over its byte budget.
    pub(crate) oom: Option<TapeOom>,
    /// Recording has stopped: the result is taped, or the tape is full.
    stopped: bool,
}

impl Recording {
    fn new(limit: Option<usize>) -> Self {
        Recording {
            tape: limit.map_or_else(OpTape::new, OpTape::with_limit),
            marks: Vec::new(),
            result: None,
            oom: None,
            stopped: false,
        }
    }

    fn record(&mut self, e: Entry) -> Option<EntryIdx> {
        if self.stopped {
            return None;
        }
        match self.tape.record(e) {
            Ok(idx) => Some(idx),
            Err(oom) => {
                self.oom = Some(oom);
                self.stopped = true;
                None
            }
        }
    }

    /// Records `e` and marks it for variable `var`.
    fn record_marked(&mut self, e: Entry, var: u32) -> Option<EntryIdx> {
        let idx = self.record(e);
        if let Some(i) = idx {
            self.marks.push((i, var));
        }
        idx
    }
}

thread_local! {
    static RECORDING: RefCell<Recording> = RefCell::new(Recording::new(None));
}

/// Starts a fresh recording on this thread, with a byte budget.
pub(crate) fn start(limit: Option<usize>) {
    RECORDING.with(|r| *r.borrow_mut() = Recording::new(limit));
}

/// Ends this thread's recording and hands it over.
pub(crate) fn finish() -> Recording {
    RECORDING.with(|r| std::mem::replace(&mut *r.borrow_mut(), Recording::new(None)))
}

fn with<T>(f: impl FnOnce(&mut Recording) -> T) -> T {
    RECORDING.with(|r| f(&mut r.borrow_mut()))
}

const PASSIVE: Taped = Taped { v: 0.0, idx: None };

/// The value `v` of an operation on `a` and `b` with partials `da` and
/// `db`, taped when either operand is active.
fn op(v: f64, a: Taped, da: f64, b: Taped, db: f64) -> Taped {
    let idx = if a.idx.is_some() || b.idx.is_some() {
        with(|r| {
            r.record(Entry {
                a: a.idx.map(|j| (j, da)),
                b: b.idx.map(|j| (j, db)),
                value: v,
            })
        })
    } else {
        None
    };
    Taped { v, idx }
}

impl ShadowNum for Taped {
    fn from_f64(v: f64) -> Self {
        Taped { v, idx: None }
    }
    fn to_f64(self) -> f64 {
        self.v
    }
    fn add(a: Self, b: Self) -> Self {
        op(a.v + b.v, a, 1.0, b, 1.0)
    }
    fn sub(a: Self, b: Self) -> Self {
        op(a.v - b.v, a, 1.0, b, -1.0)
    }
    fn mul(a: Self, b: Self) -> Self {
        op(a.v * b.v, a, b.v, b, a.v)
    }
    fn div(a: Self, b: Self) -> Self {
        op(a.v / b.v, a, 1.0 / b.v, b, -a.v / (b.v * b.v))
    }
    fn neg(a: Self) -> Self {
        op(-a.v, a, -1.0, PASSIVE, 0.0)
    }
    fn intr1(i: Intrinsic, a: Self) -> Self {
        op(eval1(i, a.v), a, derivative(i, a.v), PASSIVE, 0.0)
    }
    fn intr2(i: Intrinsic, a: Self, b: Self) -> Self {
        let (x, y) = (a.v, b.v);
        let (da, db) = match i {
            Intrinsic::Pow => (y * x.powf(y - 1.0), x.powf(y) * x.ln()),
            Intrinsic::Fmin if x <= y => (1.0, 0.0),
            Intrinsic::Fmax if x >= y => (1.0, 0.0),
            Intrinsic::Fmin | Intrinsic::Fmax => (0.0, 1.0),
            _ => unreachable!("unary intrinsic {i:?}"),
        };
        op(eval2(i, x, y), a, da, b, db)
    }
    fn input(a: Self, var: u32) -> Self {
        let leaf = Entry {
            a: None,
            b: None,
            value: a.v,
        };
        Taped {
            v: a.v,
            idx: with(|r| r.record_marked(leaf, var)),
        }
    }
    fn rounded(a: Self, prim: f64) -> Self {
        Taped {
            v: prim,
            idx: a.idx,
        }
    }
    fn commit(a: Self, var: u32, ret: bool) -> Self {
        with(|r| {
            // Returning a variable seeds at that variable's entry; any
            // other returned value is an assignment to the result (as
            // CHEF-FP instruments `_result = e`).
            let idx = if ret && var != 0 {
                a.idx
            } else {
                let copy = Entry {
                    a: a.idx.map(|j| (j, 1.0)),
                    b: None,
                    value: a.v,
                };
                r.record_marked(copy, if ret { 0 } else { var })
            };
            if ret {
                r.result = idx;
                r.stopped = true;
            }
            Taped { v: a.v, idx }
        })
    }
}

/// Derivative of a unary intrinsic at `x`, from runtime values (the
/// tracing tool's counterpart of `chef-ad`'s symbolic rules).
fn derivative(i: Intrinsic, x: f64) -> f64 {
    use std::f64::consts::{LN_2, PI};
    match i {
        Intrinsic::Sin => x.cos(),
        Intrinsic::Cos => -x.sin(),
        Intrinsic::Tan => 1.0 / (x.cos() * x.cos()),
        Intrinsic::Exp | Intrinsic::FastExp | Intrinsic::FasterExp => x.exp(),
        Intrinsic::Log | Intrinsic::FastLog => 1.0 / x,
        Intrinsic::Exp2 => x.exp2() * LN_2,
        Intrinsic::Log2 => 1.0 / (x * LN_2),
        Intrinsic::Sqrt | Intrinsic::FastSqrt => 0.5 / x.sqrt(),
        Intrinsic::Fabs if x >= 0.0 => 1.0,
        Intrinsic::Fabs => -1.0,
        Intrinsic::Floor | Intrinsic::Ceil => 0.0,
        Intrinsic::Erf => 2.0 / PI.sqrt() * (-x * x).exp(),
        Intrinsic::Erfc => -2.0 / PI.sqrt() * (-x * x).exp(),
        Intrinsic::NormCdf | Intrinsic::FastNormCdf => (-0.5 * x * x).exp() / (2.0 * PI).sqrt(),
        Intrinsic::Tanh => 1.0 - x.tanh() * x.tanh(),
        Intrinsic::Sinh => x.cosh(),
        Intrinsic::Cosh => x.sinh(),
        Intrinsic::Atan => 1.0 / (1.0 + x * x),
        Intrinsic::Pow | Intrinsic::Fmin | Intrinsic::Fmax => unreachable!("binary"),
    }
}

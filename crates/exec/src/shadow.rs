//! Shadow execution: one fused VM pass that runs a compiled program and
//! its high-precision shadow side by side.
//!
//! The primal stream executes exactly like [`crate::vm`] — it *is* the
//! plain VM's dispatch loop, `exec_loop`, instantiated with a shadow
//! lane — so arithmetic, rounding, traps and results are bit-identical,
//! while every float register, float array slot and float tape
//! entry carries a second value of type `S:`[`ShadowNum`] computed with
//! **unrounded semantics**: `FRound`/`F*Round` are identity on the
//! shadow, demoted parameters bind their original unrounded inputs, and
//! arithmetic happens in `S` (plain `f64`, or a double-double for
//! measuring an `f64` program's own rounding error — see `chef-shadow`).
//!
//! Three artifacts fall out of the pass (the Herbgrind recipe):
//!
//! * **Ground-truth output error** for the compiled configuration:
//!   `|shadow return − primal return|` measures what the demotions in a
//!   `PrecisionMap` actually did to the output, in one run instead of the
//!   demoted-vs-baseline pair.
//! * **Per-instruction local error samples**: at each float instruction
//!   the op is additionally applied (in `S`) to the *primal* inputs; the
//!   difference against the primal result is the rounding error
//!   introduced *by this instruction alone*. Samples accumulate per `pc`
//!   into [`PcSample`] (sum / max / count).
//! * **Per-variable attribution**: every register carries a *pending*
//!   error — the local errors absorbed while computing the value it
//!   holds, propagated through temporaries. When a value is committed to
//!   a named variable (its home register, or an array store), the pending
//!   error is charged to that variable and cleared, so each local error
//!   is charged to the first named variable it reaches. This mirrors how
//!   the estimation module charges model terms at assignments, making
//!   measured and estimated per-variable tables directly comparable.
//!
//! Control flow (branches, indices, trip counts) always follows the
//! primal execution; a demotion that flips a branch is measured *along
//! the demoted trace*, the standard shadow-execution convention. The pass
//! does, however, evaluate every float comparison (and every float→int
//! truncation) a second time on the **shadow** operands and records a
//! [`DivergencePoint`] whenever the decision differs — the Herbgrind
//! "where would the shadow have branched differently" signal. Divergence
//! is reported, never followed: a run with `divergence_count > 0` is a
//! run whose measurement callers should distrust (see `chef-tuner`'s
//! untrusted-config policy). Integer comparisons on values that never
//! passed through a float are precision-independent and are not checked;
//! the `F2I` check covers the float→int boundary.
//!
//! There is one dispatch loop and one call frame in the engine. The
//! loop, `exec_loop`, is generic over the shadow number type; every
//! shadow-side statement sits behind `if S::ACTIVE`, and the plain VM
//! runs it with the zero-sized `NoShadow` lane, for which that
//! constant is `false` and the shadow work compiles away. The call frame
//! (`Machine::call`: fault draw, reset, argument binding, entry checks,
//! the profile monomorph choice, the epilogue) is shared the same way.
//! [`ShadowMachine`] wraps a [`Machine`] for the primal state and keeps
//! the shadow files alongside; it is reusable call-to-call exactly like
//! `Machine`. [`run_shadow`] checks one out of the process's pool for
//! its shadow type, the shadow counterpart of [`crate::vm::run_with`].
//!
//! The same loop runs the ADAPT baseline's forward pass (`adapt-baseline`)
//! with a taping lane instead of a shadow: its values follow the primal
//! and its operations record an operation tape, through three hooks on
//! [`ShadowNum`] that the other lanes leave at their identity defaults.

use crate::arena::sealed::Run;
use crate::bytecode::*;
use crate::intrinsics::{eval1, eval2};
use crate::precision::round_to;
use crate::tape::Tape;
use crate::value::{ArgValue, Value};
use crate::vm::{
    deadline_probe, fcmp, icmp, invalid_bytecode, nonfinite_trap, validate_function, ArraySlot,
    ExecOptions, ExecStats, Machine, Trap, TrapKind, DEADLINE_STRIDE,
};
use chef_ir::ast::Intrinsic;
use chef_ir::span::Span;

/// The number type of the shadow stream.
///
/// Implemented by `f64` (unrounded double shadow — the oracle for
/// mixed-precision configurations), by `chef-shadow`'s double-double
/// `DD` (quasi-exact shadow — the oracle for `f64` programs themselves)
/// and by `adapt-baseline`'s taping lane, whose values follow the primal
/// and whose operations record an operation tape for the ADAPT
/// comparator. The taping lane is what the three hooks
/// ([`ShadowNum::input`], [`ShadowNum::rounded`], [`ShadowNum::commit`])
/// exist for; their defaults return the value unchanged, so the other
/// lanes ignore them.
pub trait ShadowNum: Copy + Send + Sync + 'static {
    /// Whether this type carries a shadow at all. Leave it at the
    /// default: `false` is reserved for the crate's zero-sized plain-VM
    /// lane, for which the dispatch loop compiles every shadow-side
    /// statement away.
    const ACTIVE: bool = true;
    /// Injects an exact `f64`.
    fn from_f64(x: f64) -> Self;
    /// Rounds back to `f64`.
    fn to_f64(self) -> f64;
    /// `a + b` in shadow precision.
    fn add(a: Self, b: Self) -> Self;
    /// `a - b` in shadow precision.
    fn sub(a: Self, b: Self) -> Self;
    /// `a * b` in shadow precision.
    fn mul(a: Self, b: Self) -> Self;
    /// `a / b` in shadow precision.
    fn div(a: Self, b: Self) -> Self;
    /// `-a`.
    fn neg(a: Self) -> Self;
    /// Unary intrinsic. The default evaluates through `f64` (correct for
    /// the `f64` shadow; a wider type may override per intrinsic). An
    /// override keeps the `fast*` intrinsics on their `fastapprox`
    /// functions: the approximation is the program's semantics, so the
    /// shadow measures precision error, not approximation error.
    fn intr1(i: Intrinsic, a: Self) -> Self {
        Self::from_f64(eval1(i, a.to_f64()))
    }
    /// Binary intrinsic (see [`ShadowNum::intr1`]).
    fn intr2(i: Intrinsic, a: Self, b: Self) -> Self {
        Self::from_f64(eval2(i, a.to_f64(), b.to_f64()))
    }
    /// Comparison in shadow precision — what divergence detection asks to
    /// decide how the shadow *would have* branched. The default rounds
    /// both sides to `f64` and applies the primal's IEEE semantics (NaN
    /// compares false except `!=`); a wider type should override with an
    /// exact comparison so sub-ulp gaps at a branch knot are seen.
    fn cmp(op: CmpOp, a: Self, b: Self) -> bool {
        fcmp(op, a.to_f64(), b.to_f64())
    }
    /// Truncation toward zero in shadow precision — the `F2I` side of
    /// divergence detection. The default truncates the `f64` rounding
    /// (exact for the `f64` shadow); a wider type must override so a
    /// value sitting sub-ulp below an integer boundary truncates to the
    /// lower integer instead of the rounded one.
    fn trunc_i64(a: Self) -> i64 {
        a.to_f64() as i64
    }
    /// Binds `a` as one input: a float parameter or one element of a
    /// float array parameter, homed in variable `var` (1 + its index in
    /// the function's float-then-array variable table).
    fn input(a: Self, _var: u32) -> Self {
        a
    }
    /// The primal rounded this operation's result to `prim` (a rounding
    /// op, a parameter's entry rounding or the return rounding). The
    /// shadow is unrounded by design, so the default ignores it.
    fn rounded(a: Self, _prim: f64) -> Self {
        a
    }
    /// `a` is committed: stored to the named variable `var` (1-based, as
    /// for [`ShadowNum::input`]) — its home register, or an element of
    /// its array — or, with `ret`, returned by `RetF` from a register
    /// homing `var` (0 when the register is a temporary).
    fn commit(a: Self, _var: u32, _ret: bool) -> Self {
        a
    }
}

impl ShadowNum for f64 {
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn add(a: Self, b: Self) -> Self {
        a + b
    }
    #[inline(always)]
    fn sub(a: Self, b: Self) -> Self {
        a - b
    }
    #[inline(always)]
    fn mul(a: Self, b: Self) -> Self {
        a * b
    }
    #[inline(always)]
    fn div(a: Self, b: Self) -> Self {
        a / b
    }
    #[inline(always)]
    fn neg(a: Self) -> Self {
        -a
    }
}

/// Accumulated local-error samples of one instruction (`pc`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PcSample {
    /// Sum of `|local error|` over all executions.
    pub sum: f64,
    /// Largest single sample.
    pub max: f64,
    /// Number of non-zero samples.
    pub count: u64,
}

/// Cap on the *detailed* [`DivergencePoint`]s retained per run. A
/// demotion that flips a hot loop's compare diverges on every iteration;
/// the total stays in [`ShadowOutcome::divergence_count`] while only the
/// first `MAX_DIVERGENCE_POINTS` splits keep their operands.
pub const MAX_DIVERGENCE_POINTS: usize = 64;

/// What decided differently between the primal and the shadow stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DivergenceKind {
    /// A float comparison (standalone `FCmp` or a fused
    /// compare-and-branch) evaluated to a different boolean on the shadow
    /// operands.
    FCmp {
        /// The comparison operator.
        op: CmpOp,
        /// Primal operands `(lhs, rhs)` — the decision that was followed.
        primal: (f64, f64),
        /// Shadow operands rounded to `f64`.
        shadow: (f64, f64),
        /// The primal decision (the trace the fused pass keeps following).
        taken: bool,
        /// The decision the shadow operands would have produced.
        would_take: bool,
    },
    /// A float→int truncation (`F2I`) produced a different integer, so
    /// any trip count, index or predicate derived from it differs.
    F2I {
        /// Primal float input.
        primal: f64,
        /// Shadow float input rounded to `f64`.
        shadow: f64,
        /// The integer the primal produced (and execution used).
        primal_int: i64,
        /// The integer the shadow would have produced.
        shadow_int: i64,
    },
}

/// One observed primal-vs-shadow control-flow split: the shadow values
/// would have decided a comparison (or float→int truncation) differently
/// than the primal values did. The primal trace still wins — divergence
/// is *reported*, never followed — but from this point on the shadow is
/// measuring along a trace the high-precision program would not have
/// taken, so the run's error measurement is untrustworthy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DivergencePoint {
    /// Instruction index of the diverging comparison/conversion.
    pub pc: usize,
    /// How many instructions the primal had executed when the split was
    /// observed (1-based) — orders splits within a run and identifies the
    /// iteration of a loop-carried compare.
    pub at_instr: u64,
    /// The disagreeing decision.
    pub kind: DivergenceKind,
}

/// The result of one fused shadow call.
#[derive(Clone, Debug)]
pub struct ShadowOutcome {
    /// Primal return value (bit-identical to a plain [`crate::vm::run`]).
    pub ret: Option<Value>,
    /// Shadow return value rounded to `f64`, when the function returns a
    /// float.
    pub shadow_ret: Option<f64>,
    /// `|shadow − primal|` of the return value, differenced in shadow
    /// precision (exact even when the gap is below one `f64` ulp of the
    /// result — the DD self-error case).
    pub ret_error: Option<f64>,
    /// The argument vector, exactly as [`crate::vm::CallOutcome::args`].
    pub args: Vec<ArgValue>,
    /// Primal execution statistics.
    pub stats: ExecStats,
    /// Per-instruction local-error samples, parallel to the instruction
    /// stream (index = `pc`).
    pub samples: Vec<PcSample>,
    /// Per-variable charged error, in the function's variable order
    /// (floats and float arrays; see the module docs for the commit
    /// semantics). Entry rounding of demoted parameters is charged here
    /// too.
    pub var_error: Vec<(String, f64)>,
    /// Sum of all `|local error|` samples, including parameter entry
    /// rounding and the return-value rounding. Zero iff the primal
    /// executed no narrowing rounding (relative to the shadow precision).
    pub acc_error: f64,
    /// Local-error samples that were NaN/∞ and therefore not accumulated
    /// (a non-finite primal or shadow value was involved).
    pub nonfinite_samples: u64,
    /// Total number of primal-vs-shadow control-flow splits observed
    /// (float comparisons and `F2I` truncations that decided differently
    /// on shadow values). Zero means every branch decision of the run was
    /// precision-stable and the one-pass measurement is trustworthy.
    pub divergence_count: u64,
    /// The first [`MAX_DIVERGENCE_POINTS`] splits in execution order,
    /// with operands and taken-vs-would-take decisions.
    pub divergence: Vec<DivergencePoint>,
    /// Per-variable divergence attribution, in the same variable order as
    /// [`ShadowOutcome::var_error`]: how many splits read this named
    /// variable as a comparison/truncation operand (splits on unnamed
    /// temporaries count toward the total only).
    pub var_divergence: Vec<(String, u64)>,
    /// Per-pc execution profile, present iff
    /// [`ExecOptions::profile`](crate::vm::ExecOptions::profile) was set.
    /// Indexed like [`ShadowOutcome::samples`], so `pc_counts[pc]` and
    /// `samples[pc]` together give execution frequency × local error per
    /// instruction.
    pub profile: Option<crate::vm::ExecProfile>,
}

impl ShadowOutcome {
    /// Primal float return; panics if the function did not return one.
    pub fn ret_f(&self) -> f64 {
        self.ret.expect("function returned no value").as_f()
    }

    /// Shadow float return; panics if the function did not return one.
    pub fn shadow_f(&self) -> f64 {
        self.shadow_ret.expect("function returned no float")
    }

    /// The measured ground-truth output error `|shadow − primal|`,
    /// differenced in shadow precision; panics if the function did not
    /// return a float.
    pub fn output_error(&self) -> f64 {
        self.ret_error.expect("function returned no float")
    }

    /// `true` when at least one control-flow split was observed — the
    /// measurement ran along a trace the shadow program would not have
    /// taken and should be treated as untrusted.
    pub fn diverged(&self) -> bool {
        self.divergence_count > 0
    }
}

/// The plain VM's lane: a zero-sized [`ShadowNum`] with `ACTIVE = false`.
/// [`exec_loop`] instantiated with it compiles every shadow-side
/// statement away, so it *is* the plain VM's dispatch loop.
#[derive(Clone, Copy)]
pub(crate) struct NoShadow;

impl ShadowNum for NoShadow {
    const ACTIVE: bool = false;
    fn from_f64(_: f64) -> Self {
        NoShadow
    }
    fn to_f64(self) -> f64 {
        0.0
    }
    fn add(_: Self, _: Self) -> Self {
        NoShadow
    }
    fn sub(_: Self, _: Self) -> Self {
        NoShadow
    }
    fn mul(_: Self, _: Self) -> Self {
        NoShadow
    }
    fn div(_: Self, _: Self) -> Self {
        NoShadow
    }
    fn neg(_: Self) -> Self {
        NoShadow
    }
}

/// The shadow side of one call: the shadow register file, arrays and
/// tape, and the attribution state, kept next to the primal [`Machine`].
/// Untouched (and never allocated) when `S` is [`NoShadow`].
pub(crate) struct Lane<S> {
    /// Shadow float registers, parallel to `Machine::f`.
    sf: Vec<S>,
    /// Pending (not yet committed) absolute local error per float register.
    pend: Vec<f64>,
    /// Shadow float arrays, parallel to `Machine::a` (empty for int arrays).
    sa: Vec<Vec<S>>,
    /// Shadow mirror of the float entries of the tape.
    stape: Vec<S>,
    /// Float-register → 1 + index into `var_names` (0 = temporary).
    fvar_of: Vec<u32>,
    /// Array-register → 1 + index into `var_names` (0 = unnamed).
    avar_of: Vec<u32>,
    var_names: Vec<String>,
    var_err: Vec<f64>,
    samples: Vec<PcSample>,
    /// Per-variable divergence counters, parallel to `var_err`.
    var_div: Vec<u64>,
    /// Detailed splits (capped at [`MAX_DIVERGENCE_POINTS`]).
    divs: Vec<DivergencePoint>,
    /// Total splits observed (uncapped).
    div_count: u64,
    /// Sum of finite local-error samples ([`ShadowOutcome::acc_error`]).
    acc: f64,
    /// Non-finite samples ([`ShadowOutcome::nonfinite_samples`]).
    nonfinite: u64,
    /// Shadow return and return error, set by `RetF`.
    shadow_ret: Option<f64>,
    ret_error: Option<f64>,
    /// Unrounded originals of demoted float parameters, per parameter:
    /// `Machine::bind_args` rounds them in place, and the shadow binds
    /// the value *before* that representation rounding.
    scalar_orig: Vec<Option<f64>>,
    array_orig: Vec<Option<Vec<f64>>>,
}

impl<S: ShadowNum> Lane<S> {
    pub(crate) fn new() -> Self {
        Lane {
            sf: Vec::new(),
            pend: Vec::new(),
            sa: Vec::new(),
            stape: Vec::new(),
            fvar_of: Vec::new(),
            avar_of: Vec::new(),
            var_names: Vec::new(),
            var_err: Vec::new(),
            samples: Vec::new(),
            var_div: Vec::new(),
            divs: Vec::new(),
            div_count: 0,
            acc: 0.0,
            nonfinite: 0,
            shadow_ret: None,
            ret_error: None,
            scalar_orig: Vec::new(),
            array_orig: Vec::new(),
        }
    }

    /// Sizes the shadow state for one call of `func` and snapshots the
    /// unrounded originals of its demoted float arguments.
    pub(crate) fn reset(&mut self, func: &CompiledFunction, args: &[ArgValue]) {
        let nf = func.n_fregs as usize;
        self.sf.clear();
        self.sf.resize(nf, S::from_f64(0.0));
        self.pend.clear();
        self.pend.resize(nf, 0.0);
        self.sa.truncate(func.n_aregs as usize);
        for arr in &mut self.sa {
            arr.clear();
        }
        while self.sa.len() < func.n_aregs as usize {
            self.sa.push(Vec::new());
        }
        self.stape.clear();
        self.samples.clear();
        self.samples.resize(func.instrs.len(), PcSample::default());
        // Attribution tables.
        self.var_names.clear();
        self.fvar_of.clear();
        self.fvar_of.resize(nf, 0);
        self.avar_of.clear();
        self.avar_of.resize(func.n_aregs as usize, 0);
        for &(reg, ref name) in &func.fvar_names {
            self.var_names.push(name.clone());
            if let Some(slot) = self.fvar_of.get_mut(reg as usize) {
                *slot = self.var_names.len() as u32;
            }
        }
        for &(reg, ref name) in &func.avar_names {
            self.var_names.push(name.clone());
            if let Some(slot) = self.avar_of.get_mut(reg as usize) {
                *slot = self.var_names.len() as u32;
            }
        }
        self.var_err.clear();
        self.var_err.resize(self.var_names.len(), 0.0);
        self.var_div.clear();
        self.var_div.resize(self.var_names.len(), 0);
        self.divs.clear();
        self.div_count = 0;
        self.acc = 0.0;
        self.nonfinite = 0;
        self.shadow_ret = None;
        self.ret_error = None;
        self.scalar_orig.clear();
        self.array_orig.clear();
        for (spec, arg) in func.params.iter().zip(args) {
            let (mut s, mut a) = (None, None);
            match (spec.kind, arg) {
                (ParamKind::F(_), ArgValue::F(v)) => s = Some(*v),
                (ParamKind::F(_), ArgValue::I(v)) => s = Some(*v as f64),
                (ParamKind::FArr(prec), ArgValue::FArr(v))
                    if prec != chef_ir::types::FloatTy::F64 =>
                {
                    a = Some(v.clone())
                }
                _ => {}
            }
            self.scalar_orig.push(s);
            self.array_orig.push(a);
        }
    }

    /// Binds the shadow parameters from the snapshot and charges the
    /// entry rounding against the bound primal values `f`/`a`.
    pub(crate) fn bind_params(&mut self, func: &CompiledFunction, f: &[f64], a: &[ArraySlot]) {
        for (k, spec) in func.params.iter().enumerate() {
            match spec.kind {
                ParamKind::F(_) => {
                    let orig = self.scalar_orig[k].unwrap_or(0.0);
                    let prim = f[spec.reg as usize];
                    let var = self.fvar_of[spec.reg as usize];
                    self.sf[spec.reg as usize] = S::input(S::rounded(S::from_f64(orig), prim), var);
                    self.charge_entry((orig - prim).abs(), var);
                }
                ParamKind::FArr(_) => {
                    let prim: &[f64] = match &a[spec.reg as usize] {
                        ArraySlot::F(v) => v,
                        _ => &[],
                    };
                    let mut shadow = std::mem::take(&mut self.sa[spec.reg as usize]);
                    shadow.clear();
                    let var = self.avar_of[spec.reg as usize];
                    match self.array_orig[k].take() {
                        Some(orig) => {
                            for (o, p) in orig.iter().zip(prim) {
                                shadow.push(S::input(S::rounded(S::from_f64(*o), *p), var));
                                self.charge_entry((o - p).abs(), var);
                            }
                        }
                        None => shadow.extend(prim.iter().map(|&p| S::input(S::from_f64(p), var))),
                    }
                    self.sa[spec.reg as usize] = shadow;
                }
                _ => {}
            }
        }
    }

    fn charge_entry(&mut self, err: f64, var: u32) {
        if err > 0.0 {
            if err.is_finite() {
                self.acc += err;
                if var != 0 {
                    self.var_err[(var - 1) as usize] += err;
                }
            } else {
                self.nonfinite += 1;
            }
        } else if err.is_nan() {
            self.nonfinite += 1;
        }
    }
}

/// A reusable fused primal+shadow activation: wraps a [`Machine`] (whose
/// register files, array slots and tape serve the primal stream
/// unchanged) and keeps the shadow register file, shadow arrays, shadow
/// tape and the attribution state alongside. Reusable across calls like
/// `Machine` — buffers keep their capacity.
pub struct ShadowMachine<S: ShadowNum> {
    m: Machine,
    lane: Lane<S>,
}

impl<S: ShadowNum> Default for ShadowMachine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: ShadowNum> ShadowMachine<S> {
    /// An empty shadow machine; buffers grow on first use and persist.
    pub fn new() -> Self {
        ShadowMachine {
            m: Machine::new(),
            lane: Lane::new(),
        }
    }

    /// Runs `func` on `args` under `opts`, producing the fused outcome.
    /// Validates the bytecode per call, exactly like
    /// [`Machine::run_reused`].
    pub fn run_reused(
        &mut self,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
        opts: &ExecOptions,
    ) -> Result<ShadowOutcome, Trap> {
        validate_function(func).map_err(invalid_bytecode)?;
        self.run_prevalidated(func, args, opts)
    }
}

impl<S: ShadowNum> Run for ShadowMachine<S> {
    type Outcome = ShadowOutcome;

    /// The primal machine's footprint: the shadow files are sized in
    /// step with it, so it orders shadow machines just as well.
    fn footprint(&self) -> usize {
        self.m.footprint()
    }

    fn run_prevalidated(
        &mut self,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
        opts: &ExecOptions,
    ) -> Result<ShadowOutcome, Trap> {
        let out = self.m.call(&mut self.lane, func, args, opts)?;
        let lane = &mut self.lane;
        if lane.div_count > 0 {
            chef_telemetry::counter!("exec.shadow.divergences").add(lane.div_count);
        }
        let names = lane.var_names.iter().cloned();
        Ok(ShadowOutcome {
            ret: out.ret,
            shadow_ret: lane.shadow_ret,
            ret_error: lane.ret_error,
            args: out.args,
            stats: out.stats,
            samples: std::mem::take(&mut lane.samples),
            var_error: names.clone().zip(lane.var_err.iter().copied()).collect(),
            acc_error: lane.acc,
            nonfinite_samples: lane.nonfinite,
            divergence_count: lane.div_count,
            divergence: std::mem::take(&mut lane.divs),
            var_divergence: names.zip(lane.var_div.iter().copied()).collect(),
            profile: out.profile,
        })
    }
}

/// The dispatch loop: the hot path of the engine, and the only one. The
/// plain VM runs it as `exec_loop::<NoShadow, _>`; the fused shadow pass
/// runs it with `S = f64` or a double-double.
///
/// The primal side executes the enum stream's semantics — arithmetic,
/// rounding, traps, tape traffic, statistics and budget checkpoints —
/// from its packed form: it fetches 8-byte words, reads operand fields
/// straight out of them, reads wide constants from the hoisted pool, and
/// dispatches on a dense `u8` opcode the compiler lowers to a jump table.
/// Every shadow-side statement (shadow values, local-error samples,
/// pending attribution, divergence checks, the shadow tape and arrays,
/// the shadow return, the taping lane's hooks) sits behind
/// `if S::ACTIVE`, so the `NoShadow`
/// instantiation keeps exactly the primal work. Shadow-side register
/// accesses stay bounds-checked by slice indexing (the shadow arithmetic
/// dominates that instantiation's cost).
///
/// Executed-instruction accounting is block-granular: instead of a
/// loop-carried `executed += 1`, the straight-line run since
/// `block_start` is added at every taken jump and at returns — the same
/// program points where the budget is checked, so the final count equals
/// per-instruction accounting and the budget is checked at block
/// granularity.
///
/// SAFETY of the unchecked primal accesses: [`validate_function`] proved
/// (a) every enum operand in range and (b) every packed word decodes to
/// its enum instruction, so the fields extracted here are exactly the
/// validated operands; pool and intrinsic indices were bounds-checked by
/// the decode; jump targets are ≤ `words.len()` and the fetch breaks at
/// `len`. Every entry point runs [`validate_function`] first (per call,
/// or once per batch), the shadow ones included.
#[allow(clippy::too_many_arguments)]
#[allow(unused_unsafe)] // `fld!` is an unsafe load and composes with the access macros
#[inline(never)] // own code-layout home: keeps dispatch-loop timing stable
pub(crate) fn exec_loop<S: ShadowNum, const PROFILE: bool>(
    func: &CompiledFunction,
    packed: &crate::pack::PackedCode,
    opts: &ExecOptions,
    f: &mut [f64],
    i: &mut [i64],
    a: &mut [ArraySlot],
    tape: &mut Tape,
    stats: &mut ExecStats,
    prof: &mut [u64],
    lane: &mut Lane<S>,
) -> Result<Option<Value>, Trap> {
    use crate::pack::{
        cmp_from, op, ty_from, w_a, w_b, w_b_i16, w_c, w_c_i16, w_d, w_d_i8, w_op, INTRINSICS,
    };
    let Lane {
        sf,
        pend,
        sa,
        stape,
        fvar_of,
        avar_of,
        var_err,
        samples,
        var_div,
        divs,
        div_count,
        acc,
        nonfinite,
        shadow_ret,
        ret_error,
        ..
    } = lane;
    let words = &packed.words[..];
    let pool = &packed.pool[..];
    let len = words.len();
    let budget = opts.max_instrs.unwrap_or(u64::MAX);
    let trap_nf = opts.trap_on_nonfinite;
    let deadline = opts.deadline;
    let mut deadline_at: u64 = if deadline.is_some() {
        DEADLINE_STRIDE
    } else {
        u64::MAX
    };
    let mut executed: u64 = 0;
    let mut block_start: usize = 0;
    let mut pc: usize = 0;

    let trap = |kind: TrapKind, pc: usize| Trap {
        kind,
        pc,
        span: func.spans.get(pc).copied().unwrap_or(Span::DUMMY),
    };

    // Primal register/pool access over raw usize fields. SAFETY: see the
    // function-level comment.
    macro_rules! fr {
        ($r:expr) => {
            unsafe { *f.get_unchecked($r) }
        };
    }
    macro_rules! ir {
        ($r:expr) => {
            unsafe { *i.get_unchecked($r) }
        };
    }
    macro_rules! iw {
        ($r:expr, $v:expr) => {{
            let v = $v;
            unsafe { *i.get_unchecked_mut($r) = v };
        }};
    }
    macro_rules! aslot {
        ($r:expr) => {
            unsafe { &mut *a.get_unchecked_mut($r) }
        };
    }
    macro_rules! pool {
        ($k:expr) => {
            unsafe { *pool.get_unchecked($k) }
        };
    }
    macro_rules! intrinsic {
        ($k:expr) => {
            unsafe { *INTRINSICS.get_unchecked($k) }
        };
    }
    // Operand-field macros: direct narrow loads from the word stream,
    // addressed by `pc` alone. SAFETY: the loop head checks `pc < len`.
    macro_rules! fld {
        ($f:ident) => {
            unsafe { $f(words, pc) }
        };
    }
    // Element `$idx` of array register `$arr` holding `ArraySlot::$kind`,
    // as a place; out of bounds (or the wrong kind) traps.
    macro_rules! elem {
        ($kind:ident, $arr:expr, $idx:expr) => {{
            let index: i64 = $idx;
            match aslot!($arr) {
                ArraySlot::$kind(v) => {
                    let len = v.len();
                    match v.get_mut(index as usize) {
                        Some(x) if index >= 0 => x,
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len }, pc)),
                    }
                }
                _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
            }
        }};
    }
    macro_rules! jump {
        ($target:expr) => {{
            let t = $target;
            executed += (pc - block_start + 1) as u64;
            if t <= pc {
                if executed > budget {
                    return Err(trap(TrapKind::InstrBudgetExhausted { executed }, pc));
                }
                if executed >= deadline_at && deadline_probe(deadline, executed, &mut deadline_at) {
                    return Err(trap(TrapKind::DeadlineExceeded { executed }, pc));
                }
            }
            block_start = t;
            pc = t;
            continue;
        }};
    }
    macro_rules! ret {
        ($v:expr) => {{
            executed += (pc - block_start + 1) as u64;
            break $v;
        }};
    }
    // Shadow lane only: accumulates one local-error sample at `pc`.
    macro_rules! sample {
        ($local:expr) => {{
            let l: f64 = $local;
            if l > 0.0 {
                if l.is_finite() {
                    let s = &mut samples[pc];
                    s.sum += l;
                    if l > s.max {
                        s.max = l;
                    }
                    s.count += 1;
                    *acc += l;
                } else {
                    *nonfinite += 1;
                }
            } else if l.is_nan() {
                *nonfinite += 1;
            }
        }};
    }
    // Writes the primal float `$prim` to register `$dst` (trapping a
    // non-finite value when armed). The shadow lane also writes `$shadow`
    // and charges the pending error `$pend` to the variable homed there,
    // if any; both expressions are evaluated only in that lane.
    macro_rules! put {
        ($dst:expr, $prim:expr, $shadow:expr, $pend:expr) => {{
            let d: usize = $dst;
            let prim: f64 = $prim;
            if trap_nf && !prim.is_finite() {
                return Err(nonfinite_trap(func, Some(d), prim, pc));
            }
            unsafe { *f.get_unchecked_mut(d) = prim };
            if S::ACTIVE {
                sf[d] = $shadow;
                let mut p: f64 = $pend;
                let v = fvar_of[d];
                if v != 0 {
                    sf[d] = S::commit(sf[d], v, false);
                    var_err[(v - 1) as usize] += p;
                    p = 0.0;
                }
                pend[d] = p;
            }
        }};
    }
    // A rounding float op into `w_a`: `$prim` is the primal result,
    // `$exact` the same op evaluated in `S` on the primal operands (their
    // difference is this op's local error), `$shadow` the op on the
    // shadow operands and `$pend` the operands' pending error.
    macro_rules! arith {
        ($prim:expr, $exact:expr, $shadow:expr, $pend:expr) => {{
            let prim: f64 = $prim;
            let mut local = 0.0;
            if S::ACTIVE {
                local = S::sub($exact, S::from_f64(prim)).to_f64().abs();
                sample!(local);
            }
            put!(fld!(w_a), prim, S::rounded($shadow, prim), $pend + local);
        }};
    }
    // Binary `ShadowNum` method `$op` (evaluated in `f64` on the primal
    // side) on primal operands `$pa`/`$pb` and shadow operands `$sa`/`$sb`,
    // rounded to `$ty` when given.
    macro_rules! bin {
        ($op:ident, $pa:expr, $pb:expr, $sa:expr, $sb:expr, $pend:expr $(, $ty:expr)?) => {{
            let (pa, pb): (f64, f64) = ($pa, $pb);
            let prim = <f64 as ShadowNum>::$op(pa, pb);
            $(let prim = round_to(prim, $ty);)?
            arith!(
                prim,
                S::$op(S::from_f64(pa), S::from_f64(pb)),
                S::$op($sa, $sb),
                $pend
            );
        }};
    }
    // `$op` on registers `w_b` and `w_c`.
    macro_rules! rr {
        ($op:ident $(, $ty:expr)?) => {{
            let (x, y) = (fld!(w_b), fld!(w_c));
            bin!($op, fr!(x), fr!(y), sf[x], sf[y], pend[x] + pend[y] $(, $ty)?);
        }};
    }
    // `$op` on register `w_b` and pool constant `w_c`; `rev` swaps them.
    macro_rules! rk {
        ($op:ident) => {{
            let (x, k) = (fld!(w_b), f64::from_bits(pool!(fld!(w_c))));
            bin!($op, fr!(x), k, sf[x], S::from_f64(k), pend[x]);
        }};
        (rev $op:ident) => {{
            let (x, k) = (fld!(w_b), f64::from_bits(pool!(fld!(w_c))));
            bin!($op, k, fr!(x), S::from_f64(k), sf[x], pend[x]);
        }};
    }
    // Divergence checks (shadow lane, when enabled): re-decide a float
    // compare / float→int truncation on the shadow operands and record a
    // split when the decision differs, charged once to each distinct
    // named operand (`$vx`/`$vy` are `fvar_of` entries, 0 = none).
    // `at_instr` is the 1-based count of the current instruction: the
    // closed blocks plus this block so far.
    macro_rules! diverge {
        ($kind:expr, $vx:expr, $vy:expr) => {{
            *div_count += 1;
            let (vx, vy): (u32, u32) = ($vx, $vy);
            if vx != 0 {
                var_div[(vx - 1) as usize] += 1;
            }
            if vy != 0 && vy != vx {
                var_div[(vy - 1) as usize] += 1;
            }
            if divs.len() < MAX_DIVERGENCE_POINTS {
                divs.push(DivergencePoint {
                    pc,
                    at_instr: executed + (pc - block_start + 1) as u64,
                    kind: $kind,
                });
            }
        }};
    }
    macro_rules! diverge_fcmp {
        ($op:expr, $x:expr, $y:expr, $taken:expr) => {{
            if S::ACTIVE {
                let (xi, yi) = ($x, $y);
                let would = S::cmp($op, sf[xi], sf[yi]);
                if would != $taken {
                    let kind = DivergenceKind::FCmp {
                        op: $op,
                        primal: (fr!(xi), fr!(yi)),
                        shadow: (sf[xi].to_f64(), sf[yi].to_f64()),
                        taken: $taken,
                        would_take: would,
                    };
                    diverge!(kind, fvar_of[xi], fvar_of[yi]);
                }
            }
        }};
    }
    macro_rules! diverge_f2i {
        ($x:expr, $primal_int:expr) => {{
            if S::ACTIVE {
                let xi = $x;
                let si = S::trunc_i64(sf[xi]);
                if si != $primal_int {
                    let kind = DivergenceKind::F2I {
                        primal: fr!(xi),
                        shadow: sf[xi].to_f64(),
                        primal_int: $primal_int,
                        shadow_int: si,
                    };
                    diverge!(kind, fvar_of[xi], 0);
                }
            }
        }};
    }
    // Taping lane: commits element `$index` of float array `$arr` to its
    // variable `$var`.
    macro_rules! commit_elem {
        ($arr:expr, $index:expr, $var:expr) => {{
            if let Some(slot) = sa[$arr].get_mut($index as usize) {
                *slot = S::commit(*slot, $var, false);
            }
        }};
    }
    macro_rules! fload {
        ($index:expr) => {{
            let (arr, index) = (fld!(w_b), $index);
            let prim = *elem!(F, arr, index);
            put!(
                fld!(w_a),
                prim,
                sa[arr]
                    .get(index as usize)
                    .copied()
                    .unwrap_or(S::from_f64(prim)),
                0.0
            );
        }};
    }
    macro_rules! fstore {
        ($index:expr) => {{
            let (arr, index, src) = (fld!(w_a), $index, fld!(w_c));
            *elem!(F, arr, index) = fr!(src);
            if S::ACTIVE {
                if let Some(slot) = sa[arr].get_mut(index as usize) {
                    *slot = sf[src];
                }
                let var = avar_of[arr];
                if var != 0 {
                    commit_elem!(arr, index, var);
                    var_err[(var - 1) as usize] += pend[src];
                }
                pend[src] = 0.0;
            }
        }};
    }
    // `farr[$arr][$index] += f[$src]`: the work of the `FLoad` ; `FAdd` ;
    // `FStore` it fuses, in order, with the element and the sum in no
    // register (the unfused stream held them in unnamed temporaries).
    // `sub` subtracts instead (`FSubFrom`).
    macro_rules! faddto {
        ($arr:expr, $index:expr, $src:expr) => {
            faddto!(add, $arr, $index, $src)
        };
        ($op:ident, $arr:expr, $index:expr, $src:expr) => {{
            let (arr, index, src): (usize, i64, usize) = ($arr, $index, $src);
            let slot = elem!(F, arr, index);
            let (old, x) = (*slot, fr!(src));
            if trap_nf && !old.is_finite() {
                return Err(nonfinite_trap(func, None, old, pc));
            }
            let sum = <f64 as ShadowNum>::$op(old, x);
            if trap_nf && !sum.is_finite() {
                return Err(nonfinite_trap(func, None, sum, pc));
            }
            *slot = sum;
            if S::ACTIVE {
                let exact = S::$op(S::from_f64(old), S::from_f64(x));
                let local = S::sub(exact, S::from_f64(sum)).to_f64().abs();
                sample!(local);
                if let Some(shadow) = sa[arr].get_mut(index as usize) {
                    *shadow = S::$op(*shadow, sf[src]);
                }
                let var = avar_of[arr];
                if var != 0 {
                    commit_elem!(arr, index, var);
                    var_err[(var - 1) as usize] += pend[src] + local;
                }
            }
        }};
    }
    // Allocates a zeroed `$kind` array of length `w_b` into `w_a`,
    // reclaiming a stale buffer's capacity; evaluates to the length.
    macro_rules! alloc {
        ($kind:ident, $stale:ident, $zero:expr) => {{
            let n = ir!(fld!(w_b));
            if n < 0 {
                return Err(trap(TrapKind::NegativeArrayLen(n), pc));
            }
            stats.local_array_bytes += n as usize * 8;
            let slot = aslot!(fld!(w_a));
            match slot {
                ArraySlot::$kind(v) | ArraySlot::$stale(v) => {
                    v.clear();
                    v.resize(n as usize, $zero);
                    let buf = std::mem::take(v);
                    *slot = ArraySlot::$kind(buf);
                }
                other => *other = ArraySlot::$kind(vec![$zero; n as usize]),
            }
            n as usize
        }};
    }

    let ret: Option<Value> = loop {
        if pc >= len {
            executed += (pc - block_start) as u64;
            break None; // fall off the end: treated like RetVoid
        }
        // Per-pc profiling stays per-iteration even though `executed` is
        // block-granular: one increment per dispatched word sums to the
        // same total the block accounting reports.
        if PROFILE {
            prof[pc] += 1;
        }
        match fld!(w_op) {
            op::FCONST => {
                let v = f64::from_bits(pool!(fld!(w_b)));
                put!(fld!(w_a), v, S::from_f64(v), 0.0);
            }
            op::FMOV => {
                let s = fld!(w_b);
                put!(fld!(w_a), fr!(s), sf[s], pend[s]);
            }
            op::FADD => rr!(add),
            op::FSUB => rr!(sub),
            op::FMUL => rr!(mul),
            op::FDIV => rr!(div),
            op::FNEG => {
                let s = fld!(w_b);
                put!(fld!(w_a), -fr!(s), S::neg(sf[s]), pend[s]);
            }
            op::FROUND => {
                let s = fld!(w_b);
                let v = fr!(s);
                let prim = round_to(v, ty_from(fld!(w_d) as u8));
                let local = (v - prim).abs();
                if S::ACTIVE {
                    sample!(local);
                }
                put!(fld!(w_a), prim, S::rounded(sf[s], prim), pend[s] + local);
            }
            op::FINTR1 => {
                let (x, intr) = (fld!(w_b), intrinsic!(fld!(w_d)));
                let pa = fr!(x);
                arith!(
                    eval1(intr, pa),
                    S::intr1(intr, S::from_f64(pa)),
                    S::intr1(intr, sf[x]),
                    pend[x]
                );
            }
            op::FINTR2 => {
                let (x, y, intr) = (fld!(w_b), fld!(w_c), intrinsic!(fld!(w_d)));
                let (pa, pb) = (fr!(x), fr!(y));
                arith!(
                    eval2(intr, pa, pb),
                    S::intr2(intr, S::from_f64(pa), S::from_f64(pb)),
                    S::intr2(intr, sf[x], sf[y]),
                    pend[x] + pend[y]
                );
            }
            op::FCMP => {
                let (x, y, cmp) = (fld!(w_b), fld!(w_c), cmp_from(fld!(w_d) as u8));
                let taken = fcmp(cmp, fr!(x), fr!(y));
                iw!(fld!(w_a), taken as i64);
                diverge_fcmp!(cmp, x, y, taken);
            }
            op::FLOAD => fload!(ir!(fld!(w_c))),
            op::FSTORE => fstore!(ir!(fld!(w_b))),
            op::F2I => {
                let x = fld!(w_b);
                let trunc = fr!(x) as i64;
                iw!(fld!(w_a), trunc);
                diverge_f2i!(x, trunc);
            }
            op::I2F => {
                let v = ir!(fld!(w_b)) as f64;
                put!(fld!(w_a), v, S::from_f64(v), 0.0);
            }

            op::ICONST => iw!(fld!(w_a), fld!(w_b_i16)),
            op::ICONSTP => iw!(fld!(w_a), pool!(fld!(w_b)) as i64),
            op::IMOV => iw!(fld!(w_a), ir!(fld!(w_b))),
            op::IADD => iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_add(ir!(fld!(w_c)))),
            op::ISUB => iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_sub(ir!(fld!(w_c)))),
            op::IMUL => iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_mul(ir!(fld!(w_c)))),
            op::IMULADD => iw!(
                fld!(w_a),
                ir!(fld!(w_b))
                    .wrapping_mul(ir!(fld!(w_c)))
                    .wrapping_add(ir!(fld!(w_d)))
            ),
            op::IDIV => {
                let d = ir!(fld!(w_c));
                if d == 0 {
                    return Err(trap(TrapKind::DivByZero, pc));
                }
                iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_div(d));
            }
            op::IREM => {
                let d = ir!(fld!(w_c));
                if d == 0 {
                    return Err(trap(TrapKind::DivByZero, pc));
                }
                iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_rem(d));
            }
            op::INEG => iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_neg()),
            op::ICMP => iw!(
                fld!(w_a),
                icmp(cmp_from(fld!(w_d) as u8), ir!(fld!(w_b)), ir!(fld!(w_c))) as i64
            ),
            op::ILOAD => {
                let x = *elem!(I, fld!(w_b), ir!(fld!(w_c)));
                iw!(fld!(w_a), x);
            }
            op::ISTORE => {
                let v = ir!(fld!(w_c));
                *elem!(I, fld!(w_a), ir!(fld!(w_b))) = v;
            }
            op::BNOT => iw!(fld!(w_a), (ir!(fld!(w_b)) == 0) as i64),

            op::JMP => jump!(fld!(w_c)),
            op::JMPF => {
                if ir!(fld!(w_a)) == 0 {
                    jump!(fld!(w_c));
                }
            }
            op::JMPT => {
                if ir!(fld!(w_a)) != 0 {
                    jump!(fld!(w_c));
                }
            }

            op::TPUSHF => {
                let s = fld!(w_a);
                if let Err(e) = tape.push_f(fr!(s)) {
                    return Err(trap(TrapKind::Tape(e), pc));
                }
                if S::ACTIVE {
                    stape.push(sf[s]);
                }
            }
            op::TPOPF => match tape.pop_f() {
                Ok(v) => put!(fld!(w_a), v, stape.pop().unwrap_or(S::from_f64(v)), 0.0),
                Err(e) => return Err(trap(TrapKind::Tape(e), pc)),
            },
            op::TPUSHI => {
                if let Err(e) = tape.push_i(ir!(fld!(w_a))) {
                    return Err(trap(TrapKind::Tape(e), pc));
                }
            }
            op::TPOPI => match tape.pop_i() {
                Ok(v) => iw!(fld!(w_a), v),
                Err(e) => return Err(trap(TrapKind::Tape(e), pc)),
            },

            op::ALLOCF => {
                let n = alloc!(F, StaleF, 0.0);
                if S::ACTIVE {
                    let shadow = &mut sa[fld!(w_a)];
                    shadow.clear();
                    shadow.resize(n, S::from_f64(0.0));
                }
            }
            op::ALLOCI => {
                alloc!(I, StaleI, 0);
                if S::ACTIVE {
                    sa[fld!(w_a)].clear();
                }
            }

            op::FMULADD => {
                // Two separate roundings, exactly like the unfused pair.
                let (x, y, c) = (fld!(w_b), fld!(w_c), fld!(w_d));
                let (pa, pb, pcv) = (fr!(x), fr!(y), fr!(c));
                arith!(
                    pa * pb + pcv,
                    S::add(S::mul(S::from_f64(pa), S::from_f64(pb)), S::from_f64(pcv)),
                    S::add(S::mul(sf[x], sf[y]), sf[c]),
                    pend[x] + pend[y] + pend[c]
                );
            }
            op::FMULSUB => {
                let (x, y, c) = (fld!(w_b), fld!(w_c), fld!(w_d));
                let (pa, pb, pcv) = (fr!(x), fr!(y), fr!(c));
                arith!(
                    pcv - pa * pb,
                    S::sub(S::from_f64(pcv), S::mul(S::from_f64(pa), S::from_f64(pb))),
                    S::sub(sf[c], S::mul(sf[x], sf[y])),
                    pend[x] + pend[y] + pend[c]
                );
            }
            op::FADDROUND => rr!(add, ty_from(fld!(w_d) as u8)),
            op::FSUBROUND => rr!(sub, ty_from(fld!(w_d) as u8)),
            op::FMULROUND => rr!(mul, ty_from(fld!(w_d) as u8)),
            op::FDIVROUND => rr!(div, ty_from(fld!(w_d) as u8)),
            op::FINTR1ROUND => {
                let (x, d) = (fld!(w_b), fld!(w_d));
                let intr = intrinsic!(d & 63);
                let pa = fr!(x);
                arith!(
                    round_to(eval1(intr, pa), ty_from((d >> 6) as u8)),
                    S::intr1(intr, S::from_f64(pa)),
                    S::intr1(intr, sf[x]),
                    pend[x]
                );
            }
            op::FINTR2ROUND => {
                let (x, y, d) = (fld!(w_b), fld!(w_c), fld!(w_d));
                let intr = intrinsic!(d & 63);
                let (pa, pb) = (fr!(x), fr!(y));
                arith!(
                    round_to(eval2(intr, pa, pb), ty_from((d >> 6) as u8)),
                    S::intr2(intr, S::from_f64(pa), S::from_f64(pb)),
                    S::intr2(intr, sf[x], sf[y]),
                    pend[x] + pend[y]
                );
            }
            op::FLOADOFF => fload!(ir!(fld!(w_c)).wrapping_add(fld!(w_d_i8))),
            op::FSTOREOFF => fstore!(ir!(fld!(w_b)).wrapping_add(fld!(w_d_i8))),
            op::IADDIMM => iw!(fld!(w_a), ir!(fld!(w_b)).wrapping_add(fld!(w_c_i16))),
            op::IADDIMMP => iw!(
                fld!(w_a),
                ir!(fld!(w_b)).wrapping_add(pool!(fld!(w_c)) as i64)
            ),
            op::FCJF => {
                let (x, y, cmp) = (fld!(w_a), fld!(w_b), cmp_from(fld!(w_d) as u8));
                let taken = fcmp(cmp, fr!(x), fr!(y));
                diverge_fcmp!(cmp, x, y, taken);
                if !taken {
                    jump!(fld!(w_c));
                }
            }
            op::FCJT => {
                let (x, y, cmp) = (fld!(w_a), fld!(w_b), cmp_from(fld!(w_d) as u8));
                let taken = fcmp(cmp, fr!(x), fr!(y));
                diverge_fcmp!(cmp, x, y, taken);
                if taken {
                    jump!(fld!(w_c));
                }
            }
            op::ICJF => {
                if !icmp(cmp_from(fld!(w_d) as u8), ir!(fld!(w_a)), ir!(fld!(w_b))) {
                    jump!(fld!(w_c));
                }
            }
            op::ICJT => {
                if icmp(cmp_from(fld!(w_d) as u8), ir!(fld!(w_a)), ir!(fld!(w_b))) {
                    jump!(fld!(w_c));
                }
            }

            op::FADDC => rk!(add),
            op::FSUBC => rk!(sub),
            op::FSUBCR => rk!(rev sub),
            op::FMULC => rk!(mul),
            op::FMULCROUND => {
                // One rounding sample, as `FMulRound` takes for its pair.
                let (x, k) = (fld!(w_b), f64::from_bits(pool!(fld!(w_c))));
                let ty = ty_from(fld!(w_d) as u8);
                bin!(mul, fr!(x), k, sf[x], S::from_f64(k), pend[x], ty);
            }
            op::FDIVC => rk!(div),
            op::FDIVCR => rk!(rev div),
            op::FADDTO => faddto!(fld!(w_a), ir!(fld!(w_b)), fld!(w_c)),
            op::FADDTOK => faddto!(fld!(w_a), fld!(w_b_i16), fld!(w_c)),
            op::FSUBFROM => faddto!(sub, fld!(w_a), ir!(fld!(w_b)), fld!(w_c)),
            op::FABSMULC => {
                // The error term `|a·b|·k` in the steps of the `FMul` ;
                // `FIntr1 Fabs` ; `FMulC` it fuses, with the product and
                // its magnitude in no register (the unfused stream held
                // them in unnamed temporaries): each step keeps its
                // sample, and the exact `fabs` records one only for a
                // non-finite product.
                let (x, y) = (fld!(w_b), fld!(w_d));
                let (pa, pb) = (fr!(x), fr!(y));
                let prod = pa * pb;
                if trap_nf && !prod.is_finite() {
                    return Err(nonfinite_trap(func, None, prod, pc));
                }
                // `|prod|` is finite exactly when `prod` is.
                let mag = prod.abs();
                let (mut l_mul, mut l_abs) = (0.0, 0.0);
                if S::ACTIVE {
                    let exact = S::mul(S::from_f64(pa), S::from_f64(pb));
                    l_mul = S::sub(exact, S::from_f64(prod)).to_f64().abs();
                    sample!(l_mul);
                    let exact = S::intr1(Intrinsic::Fabs, S::from_f64(prod));
                    l_abs = S::sub(exact, S::from_f64(mag)).to_f64().abs();
                    sample!(l_abs);
                }
                let k = f64::from_bits(pool!(fld!(w_c)));
                bin!(
                    mul,
                    mag,
                    k,
                    S::intr1(Intrinsic::Fabs, S::mul(sf[x], sf[y])),
                    S::from_f64(k),
                    pend[x] + pend[y] + l_mul + l_abs
                );
            }
            op::FADDACCK => {
                // `FAdd acc,acc,src`, then `FAddToK arr,k,src`.
                let (acc, src) = (fld!(w_a), fld!(w_c));
                bin!(
                    add,
                    fr!(acc),
                    fr!(src),
                    sf[acc],
                    sf[src],
                    pend[acc] + pend[src]
                );
                faddto!(fld!(w_d), fld!(w_b_i16), src);
            }
            op::ICJFI => {
                if !icmp(cmp_from(fld!(w_d) as u8), ir!(fld!(w_a)), fld!(w_b_i16)) {
                    jump!(fld!(w_c));
                }
            }
            op::ICJTI => {
                if icmp(cmp_from(fld!(w_d) as u8), ir!(fld!(w_a)), fld!(w_b_i16)) {
                    jump!(fld!(w_c));
                }
            }
            op::RETF => {
                let src = fld!(w_a);
                let v = fr!(src);
                let rounded = match func.ret {
                    RetKind::F(ft) => round_to(v, ft),
                    _ => v,
                };
                if trap_nf && !rounded.is_finite() {
                    return Err(nonfinite_trap(func, Some(src), rounded, pc));
                }
                if S::ACTIVE {
                    sample!((v - rounded).abs());
                    // `get`, not indexing: with no panic path the
                    // lanes that ignore `var` compile it away.
                    let var = fvar_of.get(src).map_or(0, |&v| v);
                    let s = S::commit(S::rounded(sf[src], rounded), var, true);
                    *shadow_ret = Some(s.to_f64());
                    *ret_error = Some(S::sub(s, S::from_f64(rounded)).to_f64().abs());
                }
                ret!(Some(Value::F(rounded)));
            }
            op::RETI => ret!(Some(Value::I(ir!(fld!(w_a))))),
            op::RETB => ret!(Some(Value::B(ir!(fld!(w_a)) != 0))),
            op::RETVOID => ret!(None),
            op::TRAPMISSING => return Err(trap(TrapKind::MissingReturn, pc)),
            // Unreachable for validated functions; kept safe anyway.
            _ => {
                return Err(trap(
                    TrapKind::InvalidBytecode(format!("unknown packed opcode {}", fld!(w_op))),
                    pc,
                ))
            }
        }
        pc += 1;
    };
    stats.instrs_executed = executed;
    // Returns are the other budget checkpoint (backward jumps are the
    // first): a run never reports success past the budget.
    if executed > budget {
        return Err(trap(
            TrapKind::InstrBudgetExhausted { executed },
            pc.min(len.saturating_sub(1)),
        ));
    }
    Ok(ret)
}

/// Runs one fused shadow call on a machine from the process's pool of
/// `ShadowMachine<S>` (one pool per shadow type, shared by every caller
/// in the process).
pub fn run_shadow<S: ShadowNum>(
    func: &CompiledFunction,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
) -> Result<ShadowOutcome, Trap> {
    crate::arena::shadow_pool::<S>()
        .checkout()
        .run_reused(func, args, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_default, CompileOptions, PrecisionMap};
    use crate::tape::TapeError;
    use crate::vm::run;
    use chef_ir::ast::VarId;
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;
    use chef_ir::types::FloatTy;

    fn compiled(src: &str, pm: PrecisionMap) -> CompiledFunction {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        compile(
            &p.functions[0],
            &CompileOptions {
                precisions: pm,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Picks the value pinned for the stream `CompileOptions::default()`
    /// compiles: fused, or unfused under `CHEF_EXEC_FUSE=0`, which
    /// changes instruction counts.
    fn per_pipeline<T>(fused: T, unfused: T) -> T {
        if CompileOptions::default().fuse {
            fused
        } else {
            unfused
        }
    }

    #[test]
    fn shadow_primal_is_bit_identical_to_plain_run() {
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += sin(x + i * 0.01) * 0.5; }
            return s;
        }";
        let pm = PrecisionMap::empty().with(VarId(2), FloatTy::F32); // s
        let func = compiled(src, pm);
        let args = vec![ArgValue::F(0.37), ArgValue::I(200)];
        let plain = run(&func, args.clone()).unwrap();
        let shadow = run_shadow::<f64>(&func, args, &ExecOptions::default()).unwrap();
        assert_eq!(plain.ret_f().to_bits(), shadow.ret_f().to_bits());
        assert_eq!(plain.stats, shadow.stats);
    }

    #[test]
    fn f64_shadow_matches_undemoted_run() {
        // The f64 shadow of a demoted compilation reproduces the
        // undemoted program's result bit-for-bit: rounds are identity on
        // the shadow and the operation order is shared.
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += sin(x + i * 0.01) * 0.5; }
            return s;
        }";
        let args = vec![ArgValue::F(0.91), ArgValue::I(300)];
        let baseline = run(&compiled(src, PrecisionMap::empty()), args.clone())
            .unwrap()
            .ret_f();
        let pm = PrecisionMap::empty()
            .with(VarId(0), FloatTy::F32) // x
            .with(VarId(2), FloatTy::F32); // s
        let shadow = run_shadow::<f64>(&compiled(src, pm), args, &ExecOptions::default()).unwrap();
        assert_eq!(shadow.shadow_f().to_bits(), baseline.to_bits());
        assert!(shadow.output_error() > 0.0);
    }

    #[test]
    fn no_demotion_means_zero_error_everywhere() {
        let src = "double f(double x) {
            double u = x * 1.5 + 0.25;
            double w = sqrt(u) / 3.0;
            return w;
        }";
        let func = compiled(src, PrecisionMap::empty());
        let out =
            run_shadow::<f64>(&func, vec![ArgValue::F(1.7)], &ExecOptions::default()).unwrap();
        assert_eq!(out.output_error(), 0.0);
        assert_eq!(out.acc_error, 0.0);
        assert!(out.samples.iter().all(|s| s.sum == 0.0 && s.count == 0));
        assert!(out.var_error.iter().all(|(_, e)| *e == 0.0));
    }

    #[test]
    fn attribution_charges_the_demoted_variable() {
        let src = "double f(double x) {
            double noise = x * 0.3333333333333;
            double core = x * 2.0;
            return noise + core;
        }";
        let pm_src = compiled(src, PrecisionMap::empty());
        // Find `noise`'s var id by name through the table.
        assert!(pm_src.fvar_names.iter().any(|(_, n)| n == "noise"));
        let pm = PrecisionMap::empty().with(VarId(1), FloatTy::F32); // noise
        let func = compiled(src, pm);
        let out =
            run_shadow::<f64>(&func, vec![ArgValue::F(1.1)], &ExecOptions::default()).unwrap();
        let err_of = |name: &str| {
            out.var_error
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, e)| *e)
                .unwrap_or(0.0)
        };
        assert!(err_of("noise") > 0.0, "{:?}", out.var_error);
        assert_eq!(err_of("core"), 0.0, "{:?}", out.var_error);
        // The output error equals the single rounding that happened.
        assert!(out.output_error() > 0.0);
        assert!((out.acc_error - err_of("noise")).abs() <= f64::EPSILON * out.acc_error);
    }

    #[test]
    fn entry_rounding_of_demoted_params_is_charged() {
        let src = "double f(double x, double a[]) { return x + a[0]; }";
        let pm = PrecisionMap::empty()
            .with(VarId(0), FloatTy::F32)
            .with(VarId(1), FloatTy::F32);
        let func = compiled(src, pm);
        let x = 1.0 / 3.0;
        let a0 = 2.0 / 7.0;
        let out = run_shadow::<f64>(
            &func,
            vec![ArgValue::F(x), ArgValue::FArr(vec![a0])],
            &ExecOptions::default(),
        )
        .unwrap();
        let exact = x + a0;
        let demoted = (x as f32 as f64) + (a0 as f32 as f64);
        assert_eq!(out.ret_f(), demoted);
        assert_eq!(out.shadow_f(), exact);
        let err_of = |name: &str| {
            out.var_error
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, e)| *e)
                .unwrap()
        };
        assert!((err_of("x") - (x - x as f32 as f64).abs()).abs() < 1e-18);
        assert!((err_of("a") - (a0 - a0 as f32 as f64).abs()).abs() < 1e-18);
    }

    #[test]
    fn per_instruction_samples_land_on_rounding_sites() {
        let src = "float f(float x, float y) { float z; z = x + y; return z; }";
        let func = compile_default(
            &{
                let mut p = parse_program(src).unwrap();
                check_program(&mut p).unwrap();
                p
            }
            .functions[0],
        )
        .unwrap();
        let out = run_shadow::<f64>(
            &func,
            vec![ArgValue::F(1.95e-5), ArgValue::F(1.37e-7)],
            &ExecOptions::default(),
        )
        .unwrap();
        // Exactly the add-round site carries a sample (inputs are
        // f32-exact here, the return value is already rounded).
        let hot: Vec<usize> = out
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count > 0)
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(matches!(
            func.instrs[hot[0]],
            Instr::FAddRound { .. } | Instr::FRound { .. } | Instr::FAdd { .. }
        ));
        // The sample measures the rounding of the add performed on the
        // (already entry-rounded) primal inputs.
        let (xs, ys) = (1.95e-5f32 as f64, 1.37e-7f32 as f64);
        let unrounded = xs + ys;
        let f32_result = (1.95e-5f32 + 1.37e-7f32) as f64;
        assert!((out.samples[hot[0]].sum - (unrounded - f32_result).abs()).abs() < 1e-20);
    }

    #[test]
    fn shadow_batch_parallel_matches_serial() {
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += x * 1.0000001; }
            return s;
        }";
        let pm = PrecisionMap::empty().with(VarId(2), FloatTy::F32);
        let func = compiled(src, pm);
        let sets: Vec<Vec<ArgValue>> = (0..16)
            .map(|k| vec![ArgValue::F(0.1 + k as f64 * 0.01), ArgValue::I(50)])
            .collect();
        let opts = ExecOptions::default();
        let arena = crate::arena::Pool::<ShadowMachine<f64>>::new();
        let par = arena.run_batch(&func, sets.clone(), &opts, Some(4));
        let mut m = ShadowMachine::<f64>::new();
        for (set, p) in sets.into_iter().zip(&par) {
            let s = m.run_reused(&func, set, &opts).unwrap();
            let p = p.as_ref().unwrap();
            assert_eq!(s.ret_f().to_bits(), p.ret_f().to_bits());
            assert_eq!(s.shadow_f().to_bits(), p.shadow_f().to_bits());
            assert_eq!(s.acc_error.to_bits(), p.acc_error.to_bits());
        }
    }

    #[test]
    fn branch_flip_is_reported_not_followed() {
        // Demoting the accumulator makes the f32 sum of 100 × 0.01 land
        // below 1.0 while the f64 shadow lands above: the threshold
        // branch flips. The primal trace is still followed (bit-identical
        // to a plain run of the demoted compilation) and the split is
        // reported with the compare's operands.
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s = s + x; }
            double r = 0.0;
            if (s < 1.0) { r = s * 2.0; } else { r = s * 0.5; }
            return r;
        }";
        let pm = PrecisionMap::empty().with(VarId(2), FloatTy::F32); // s
        let func = compiled(src, pm);
        let args = vec![ArgValue::F(0.01), ArgValue::I(100)];
        let out = run_shadow::<f64>(&func, args.clone(), &ExecOptions::default()).unwrap();
        assert!(out.diverged());
        assert_eq!(out.divergence_count, 1, "{:?}", out.divergence);
        let p = &out.divergence[0];
        // Pinned: the compare's pc and its 1-based position in the run.
        assert_eq!(
            (p.pc, p.at_instr),
            per_pipeline((8, 306), (15, 709)),
            "{p:?}"
        );
        match p.kind {
            DivergenceKind::FCmp {
                op,
                primal,
                shadow,
                taken,
                would_take,
            } => {
                assert_eq!(op, CmpOp::Lt);
                assert!(primal.0 < 1.0 && primal.1 == 1.0, "{:?}", p);
                assert!(shadow.0 >= 1.0, "{:?}", p);
                assert!(taken && !would_take, "{:?}", p);
            }
            other => panic!("expected FCmp divergence, got {other:?}"),
        }
        // The split is attributed to the compared variable.
        let div_of = |name: &str| {
            out.var_divergence
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(div_of("s"), 1, "{:?}", out.var_divergence);
        // The primal still followed its own trace.
        let plain = run(&func, args).unwrap();
        assert_eq!(plain.ret_f().to_bits(), out.ret_f().to_bits());
    }

    #[test]
    fn f2i_truncation_divergence_is_reported() {
        let src = "double f(double h) {
            double t = 1.0 / h;
            int n = (int) t;
            double s = 0.0;
            for (int i = 0; i < n; i++) { s = s + h; }
            return s;
        }";
        let pm = PrecisionMap::empty().with(VarId(1), FloatTy::F32); // t
        let func = compiled(src, pm);
        let h = 1.0 / (100.0 - 1e-6);
        let out = run_shadow::<f64>(&func, vec![ArgValue::F(h)], &ExecOptions::default()).unwrap();
        assert!(out.diverged());
        let p = out
            .divergence
            .iter()
            .find(|p| matches!(p.kind, DivergenceKind::F2I { .. }))
            .expect("F2I divergence point");
        assert_eq!((p.pc, p.at_instr), per_pipeline((2, 3), (3, 4)), "{p:?}");
        match p.kind {
            DivergenceKind::F2I {
                primal_int,
                shadow_int,
                ..
            } => {
                assert_eq!(primal_int, 100, "{p:?}");
                assert_eq!(shadow_int, 99, "{p:?}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn stable_branches_report_no_divergence() {
        // Same kernel, but the sum stays far from the knot: demotion
        // still rounds (acc_error > 0) yet every decision is stable.
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s = s + x; }
            double r = 0.0;
            if (s < 1.0) { r = s * 2.0; } else { r = s * 0.5; }
            return r;
        }";
        let pm = PrecisionMap::empty().with(VarId(2), FloatTy::F32); // s
        let func = compiled(src, pm);
        let out = run_shadow::<f64>(
            &func,
            vec![ArgValue::F(0.01), ArgValue::I(42)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(!out.diverged());
        assert!(out.divergence.is_empty());
        assert!(out.var_divergence.iter().all(|(_, c)| *c == 0));
        assert!(out.acc_error > 0.0, "demotion still rounds");
    }

    /// Runs one failing call through `Machine` and `ShadowMachine<f64>`
    /// and requires the whole trap — kind, pc and span — to agree.
    fn same_trap(func: &CompiledFunction, args: Vec<ArgValue>, opts: &ExecOptions) -> Trap {
        let plain = Machine::new()
            .run_reused(func, args.clone(), opts)
            .unwrap_err();
        let shadow = ShadowMachine::<f64>::new()
            .run_reused(func, args, opts)
            .unwrap_err();
        assert_eq!(plain, shadow);
        plain
    }

    /// A hand-built, packed function with one span per instruction.
    fn hand_packed(instrs: Vec<Instr>, n_fregs: u32, ret: RetKind) -> CompiledFunction {
        let f = CompiledFunction {
            name: "hand".into(),
            spans: (0..instrs.len() as u32)
                .map(|k| Span::new(10 * k, 10 * k + 5))
                .collect(),
            instrs,
            n_fregs,
            n_iregs: 0,
            n_aregs: 0,
            params: vec![],
            ret,
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        CompiledFunction {
            packed: crate::pack::pack_function(&f),
            ..f
        }
    }

    #[test]
    fn traps_mirror_the_plain_vm() {
        let src = |s: &str| compiled(s, PrecisionMap::empty());
        let d = ExecOptions::default();
        let t = same_trap(
            &src("double f(double a[]) { return a[5]; }"),
            vec![ArgValue::FArr(vec![1.0, 2.0])],
            &d,
        );
        assert_eq!(t.kind, TrapKind::OobIndex { idx: 5, len: 2 });
        let t = same_trap(
            &src("int f(int x) { return 7 / x; }"),
            vec![ArgValue::I(0)],
            &d,
        );
        assert_eq!(t.kind, TrapKind::DivByZero);
        let t = same_trap(
            &src("void f(int n) { double r[n]; r[0] = 1.0; }"),
            vec![ArgValue::I(-3)],
            &d,
        );
        assert_eq!(t.kind, TrapKind::NegativeArrayLen(-3));
        let t = same_trap(
            &src("double f(double x) { x = x + 1.0; }"),
            vec![ArgValue::F(0.0)],
            &d,
        );
        assert_eq!(t.kind, TrapKind::MissingReturn);

        let budget = ExecOptions {
            max_instrs: Some(1000),
            ..Default::default()
        };
        let t = same_trap(&src("void f() { while (true) { } }"), vec![], &budget);
        assert_eq!(t.kind, TrapKind::InstrBudgetExhausted { executed: 1001 });

        let underflow = hand_packed(
            vec![Instr::TPopF { dst: FReg(0) }, Instr::RetVoid],
            1,
            RetKind::Void,
        );
        let t = same_trap(&underflow, vec![], &d);
        assert_eq!(
            (t.kind, t.pc, t.span),
            (TrapKind::Tape(TapeError::Underflow), 0, Span::new(0, 5))
        );

        // 1e300 is finite until the f32 return rounding.
        let overflow = hand_packed(
            vec![
                Instr::FConst {
                    dst: FReg(0),
                    v: 1e300,
                },
                Instr::RetF { src: FReg(0) },
            ],
            1,
            RetKind::F(FloatTy::F32),
        );
        let nf = ExecOptions {
            trap_on_nonfinite: true,
            ..Default::default()
        };
        let t = same_trap(&overflow, vec![], &nf);
        let expected = TrapKind::NonFinite {
            value: f64::INFINITY,
            op: "RetF".to_string(),
            var: None,
        };
        assert_eq!((t.kind, t.pc, t.span), (expected, 1, Span::new(10, 15)));
    }

    #[test]
    fn shadow_entry_points_reject_malformed_bytecode() {
        let opts = ExecOptions::default();
        let arena = crate::arena::Pool::<ShadowMachine<f64>>::new();
        let rejected = |r: &Result<ShadowOutcome, Trap>| matches!(r, Err(t) if matches!(t.kind, TrapKind::InvalidBytecode(_)));
        for f in crate::vm::tests::malformed_functions() {
            let r = ShadowMachine::<f64>::new().run_reused(&f, vec![], &opts);
            assert!(rejected(&r), "{}: {r:?}", f.name);
            let batch = vec![vec![], vec![]];
            for r in arena.run_batch(&f, batch, &opts, Some(2)) {
                assert!(rejected(&r), "{}: {r:?}", f.name);
            }
        }
    }

    #[test]
    fn deadline_traps_in_both_shadow_loops() {
        // Both monomorphizations of the dispatch loop: unprofiled and
        // profiled.
        let mut p = parse_program("void f() { while (true) { } }").unwrap();
        check_program(&mut p).unwrap();
        let func = compile_default(&p.functions[0]).unwrap();
        for profile in [false, true] {
            let opts = ExecOptions {
                profile,
                ..ExecOptions::default().deadline_in(std::time::Duration::from_millis(5))
            };
            let err = run_shadow::<f64>(&func, vec![], &opts).unwrap_err();
            let TrapKind::DeadlineExceeded { executed } = err.kind else {
                panic!(
                    "expected deadline trap, got {:?} (profile: {profile})",
                    err.kind
                );
            };
            assert!(executed >= crate::vm::DEADLINE_STRIDE, "{executed}");
            assert!(err.pc < func.instrs.len(), "pc {} out of range", err.pc);
        }
    }
}

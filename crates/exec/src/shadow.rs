//! Shadow execution: one fused VM pass that runs a compiled program and
//! its high-precision shadow side by side.
//!
//! The primal stream executes exactly like [`crate::vm`] — same
//! arithmetic, same rounding instructions, same traps, bit-identical
//! results — while every float register, float array slot and float tape
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
//! The pass reuses [`Machine`]'s buffers for the primal state and keeps
//! the shadow files alongside in [`ShadowMachine`], which is reusable
//! call-to-call exactly like `Machine`. Batches fan out over scoped
//! threads through [`crate::par::parallel_map_init`] (one shadow machine
//! per worker), mirroring [`crate::vm::run_batch_parallel`].

use crate::bytecode::*;
use crate::intrinsics::{eval1, eval2, ApproxConfig};
use crate::precision::round_to;
use crate::value::{ArgValue, Value};
use crate::vm::{
    fcmp, icmp, validate_function, ArraySlot, ExecOptions, ExecStats, Machine, Trap, TrapKind,
};
use chef_ir::ast::Intrinsic;
use chef_ir::span::Span;

/// The number type of the shadow stream.
///
/// Implemented by `f64` (unrounded double shadow — the oracle for
/// mixed-precision configurations) and by `chef-shadow`'s double-double
/// `DD` (quasi-exact shadow — the oracle for `f64` programs themselves).
pub trait ShadowNum: Copy + Send + Sync + 'static {
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
    /// the `f64` shadow; a wider type may override per intrinsic).
    fn intr1(i: Intrinsic, a: Self, approx: &ApproxConfig) -> Self {
        Self::from_f64(eval1(i, a.to_f64(), approx))
    }
    /// Binary intrinsic (see [`ShadowNum::intr1`]).
    fn intr2(i: Intrinsic, a: Self, b: Self, approx: &ApproxConfig) -> Self {
        Self::from_f64(eval2(i, a.to_f64(), b.to_f64(), approx))
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

/// A reusable fused primal+shadow activation: wraps a [`Machine`] (whose
/// register files, array slots and tape serve the primal stream
/// unchanged) and keeps the shadow register file, shadow arrays, shadow
/// tape and the attribution state alongside. Reusable across calls like
/// `Machine` — buffers keep their capacity.
pub struct ShadowMachine<S: ShadowNum> {
    m: Machine,
    /// Shadow float registers, parallel to `m.f`.
    sf: Vec<S>,
    /// Pending (not yet committed) absolute local error per float register.
    pend: Vec<f64>,
    /// Shadow float arrays, parallel to `m.a` (empty for int arrays).
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
        }
    }

    fn reset(&mut self, func: &CompiledFunction, opts: &ExecOptions) {
        self.m.reset(func, opts);
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
        if let Err(msg) = validate_function(func) {
            return Err(Trap {
                kind: TrapKind::InvalidBytecode(msg),
                pc: 0,
                span: Span::DUMMY,
            });
        }
        self.run_prevalidated(func, args, opts)
    }

    fn run_prevalidated(
        &mut self,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
        opts: &ExecOptions,
    ) -> Result<ShadowOutcome, Trap> {
        // Fault injection draws exactly like the plain VM's
        // `run_prevalidated`, so a plan schedules faults uniformly across
        // plain and shadow trials.
        let (fault_opts, inject_nan) = crate::vm::drawn_fault(func, opts);
        let opts = fault_opts.as_ref().unwrap_or(opts);
        self.reset(func, opts);
        // Snapshot the unrounded originals of demoted float parameters:
        // `Machine::bind_args` rounds them in place, and the shadow binds
        // the value *before* that representation rounding.
        let mut scalar_orig: Vec<Option<f64>> = Vec::with_capacity(func.params.len());
        let mut array_orig: Vec<Option<Vec<f64>>> = Vec::with_capacity(func.params.len());
        for (spec, arg) in func.params.iter().zip(&args) {
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
            scalar_orig.push(s);
            array_orig.push(a);
        }
        self.m.bind_args(func, args)?;
        if inject_nan {
            // Primal side only: the shadow keeps the caller's finite
            // value, so the measurement itself goes non-finite — the
            // silent-NaN hazard the fault layer exists to surface.
            crate::vm::inject_nan_param(func, &mut self.m.f);
        }
        if opts.trap_on_nonfinite {
            crate::vm::check_params_finite(func, &self.m.f, &self.m.a)?;
        }

        // Bind the shadow parameters and charge entry rounding.
        let mut acc = 0.0f64;
        let mut nonfinite = 0u64;
        for (k, spec) in func.params.iter().enumerate() {
            match spec.kind {
                ParamKind::F(_) => {
                    let orig = scalar_orig[k].unwrap_or(0.0);
                    let prim = self.m.f[spec.reg as usize];
                    self.sf[spec.reg as usize] = S::from_f64(orig);
                    charge_entry(
                        (orig - prim).abs(),
                        self.fvar_of[spec.reg as usize],
                        &mut self.var_err,
                        &mut acc,
                        &mut nonfinite,
                    );
                }
                ParamKind::FArr(_) => {
                    let slot = &self.m.a[spec.reg as usize];
                    let prim: &[f64] = match slot {
                        ArraySlot::F(v) => v,
                        _ => &[],
                    };
                    let shadow = &mut self.sa[spec.reg as usize];
                    shadow.clear();
                    match &array_orig[k] {
                        Some(orig) => {
                            let var = self.avar_of[spec.reg as usize];
                            for (o, p) in orig.iter().zip(prim) {
                                shadow.push(S::from_f64(*o));
                                charge_entry(
                                    (o - p).abs(),
                                    var,
                                    &mut self.var_err,
                                    &mut acc,
                                    &mut nonfinite,
                                );
                            }
                        }
                        None => shadow.extend(prim.iter().map(|&p| S::from_f64(p))),
                    }
                }
                _ => {}
            }
        }

        // Validation proved `packed` present. Profiling picks a separately
        // monomorphized loop, mirroring `Machine::run_prevalidated`.
        let packed = func
            .packed
            .as_ref()
            .expect("validated functions are packed");
        let ret = if opts.profile {
            self.exec_loop_packed::<true>(func, packed, opts, &mut acc, &mut nonfinite)?
        } else {
            self.exec_loop_packed::<false>(func, packed, opts, &mut acc, &mut nonfinite)?
        };
        self.m.stats.tape_peak_bytes = self.m.tape.peak_bytes();
        self.m.stats.tape_total_pushes = self.m.tape.total_pushes();
        let args = self.m.unbind_args(func);
        let var_error = self
            .var_names
            .iter()
            .cloned()
            .zip(self.var_err.iter().copied())
            .collect();
        let var_divergence = self
            .var_names
            .iter()
            .cloned()
            .zip(self.var_div.iter().copied())
            .collect();
        if self.div_count > 0 {
            chef_telemetry::counter!("exec.shadow.divergences").add(self.div_count);
        }
        let profile = opts.profile.then(|| crate::vm::ExecProfile {
            pc_counts: std::mem::take(&mut self.m.prof),
        });
        Ok(ShadowOutcome {
            ret: ret.0,
            shadow_ret: ret.1,
            ret_error: ret.2,
            args,
            stats: self.m.stats,
            samples: std::mem::take(&mut self.samples),
            var_error,
            acc_error: acc,
            nonfinite_samples: nonfinite,
            divergence_count: self.div_count,
            divergence: std::mem::take(&mut self.divs),
            var_divergence,
            profile,
        })
    }

    /// The fused primal+shadow dispatch loop. The primal side mirrors
    /// [`crate::vm`]'s loop opcode by opcode (same results, traps and
    /// budget checkpoints, read from the same packed words and pool);
    /// the shadow values, local-error samples and pending attribution
    /// are threaded alongside. Register accesses stay bounds-checked by
    /// slice indexing (the shadow arithmetic dominates this loop's cost).
    #[allow(clippy::type_complexity)]
    #[allow(unused_unsafe)] // `fld!` is an unsafe load and composes with other unsafe spots
    fn exec_loop_packed<const PROFILE: bool>(
        &mut self,
        func: &CompiledFunction,
        packed: &crate::pack::PackedCode,
        opts: &ExecOptions,
        acc: &mut f64,
        nonfinite: &mut u64,
    ) -> Result<(Option<Value>, Option<f64>, Option<f64>), Trap> {
        use crate::pack::{
            cmp_from, op, ty_from, w_a, w_b, w_b_i16, w_c, w_c_i16, w_d, w_d_i8, w_op, INTRINSICS,
        };
        let ShadowMachine {
            m,
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
            ..
        } = self;
        let Machine {
            f,
            i,
            a,
            tape,
            stats,
            prof,
        } = m;
        let f = &mut f[..];
        let i = &mut i[..];
        let words = &packed.words[..];
        let pool = &packed.pool[..];
        let len = words.len();
        let approx = &opts.approx;
        let budget = opts.max_instrs.unwrap_or(u64::MAX);
        let check_div = opts.detect_divergence;
        let trap_nf = opts.trap_on_nonfinite;
        let deadline = opts.deadline;
        let mut deadline_at: u64 = if deadline.is_some() {
            crate::vm::DEADLINE_STRIDE
        } else {
            u64::MAX
        };
        let mut executed: u64 = 0;
        let mut pc: usize = 0;

        let trap = |kind: TrapKind, pc: usize| Trap {
            kind,
            pc,
            span: func.spans.get(pc).copied().unwrap_or(Span::DUMMY),
        };

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
        // Writes primal+shadow to register index `$dst` (trapping a
        // non-finite primal when armed) and charges the pending error to
        // the variable homed there, if any.
        macro_rules! put {
            ($dst:expr, $prim:expr, $shadow:expr, $pend:expr) => {{
                let d: usize = $dst;
                let prim = $prim;
                if trap_nf && !prim.is_finite() {
                    return Err(crate::vm::nonfinite_trap(func, d, prim, pc));
                }
                f[d] = prim;
                sf[d] = $shadow;
                let mut p: f64 = $pend;
                let v = fvar_of[d];
                if v != 0 {
                    var_err[(v - 1) as usize] += p;
                    p = 0.0;
                }
                pend[d] = p;
            }};
        }
        macro_rules! jump {
            ($target:expr) => {{
                let t = $target;
                if t <= pc {
                    if executed > budget {
                        return Err(trap(TrapKind::InstrBudgetExhausted { executed }, pc));
                    }
                    if executed >= deadline_at
                        && crate::vm::deadline_probe(deadline, executed, &mut deadline_at)
                    {
                        return Err(trap(TrapKind::DeadlineExceeded { executed }, pc));
                    }
                }
                pc = t;
                continue;
            }};
        }
        // Divergence checks: re-decide a float compare / float→int
        // truncation on the shadow operands and record a split when the
        // decision differs (register operands are usize indices).
        macro_rules! diverge_fcmp {
            ($op:expr, $x:expr, $y:expr, $taken:expr) => {{
                if check_div {
                    let (xi, yi) = ($x, $y);
                    let would = S::cmp($op, sf[xi], sf[yi]);
                    if would != $taken {
                        *div_count += 1;
                        let vx = fvar_of[xi];
                        if vx != 0 {
                            var_div[(vx - 1) as usize] += 1;
                        }
                        let vy = fvar_of[yi];
                        if vy != 0 && vy != vx {
                            var_div[(vy - 1) as usize] += 1;
                        }
                        if divs.len() < MAX_DIVERGENCE_POINTS {
                            divs.push(DivergencePoint {
                                pc,
                                at_instr: executed,
                                kind: DivergenceKind::FCmp {
                                    op: $op,
                                    primal: (f[xi], f[yi]),
                                    shadow: (sf[xi].to_f64(), sf[yi].to_f64()),
                                    taken: $taken,
                                    would_take: would,
                                },
                            });
                        }
                    }
                }
            }};
        }
        macro_rules! diverge_f2i {
            ($x:expr, $primal_int:expr) => {{
                if check_div {
                    let xi = $x;
                    let si = S::trunc_i64(sf[xi]);
                    if si != $primal_int {
                        *div_count += 1;
                        let vx = fvar_of[xi];
                        if vx != 0 {
                            var_div[(vx - 1) as usize] += 1;
                        }
                        if divs.len() < MAX_DIVERGENCE_POINTS {
                            divs.push(DivergencePoint {
                                pc,
                                at_instr: executed,
                                kind: DivergenceKind::F2I {
                                    primal: f[xi],
                                    shadow: sf[xi].to_f64(),
                                    primal_int: $primal_int,
                                    shadow_int: si,
                                },
                            });
                        }
                    }
                }
            }};
        }
        // Operand-field macros: direct narrow loads from the word stream,
        // addressed by `pc` alone. SAFETY: the loop head checks `pc < len`.
        macro_rules! fld {
            ($f:ident) => {
                unsafe { $f(words, pc) }
            };
        }

        let ret: (Option<Value>, Option<f64>, Option<f64>) = loop {
            if pc >= len {
                break (None, None, None);
            }
            executed += 1;
            if PROFILE {
                prof[pc] += 1;
            }
            match fld!(w_op) {
                op::FCONST => {
                    let v = f64::from_bits(pool[fld!(w_b)]);
                    put!(fld!(w_a), v, S::from_f64(v), 0.0);
                }
                op::FMOV => {
                    let s = fld!(w_b);
                    put!(fld!(w_a), f[s], sf[s], pend[s]);
                }
                op::FADD => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = pa + pb;
                    let local = S::sub(S::add(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::add(sf[x], sf[y]), p);
                }
                op::FSUB => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = pa - pb;
                    let local = S::sub(S::sub(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::sub(sf[x], sf[y]), p);
                }
                op::FMUL => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = pa * pb;
                    let local = S::sub(S::mul(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::mul(sf[x], sf[y]), p);
                }
                op::FDIV => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = pa / pb;
                    let local = S::sub(S::div(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::div(sf[x], sf[y]), p);
                }
                op::FNEG => {
                    let s = fld!(w_b);
                    put!(fld!(w_a), -f[s], S::neg(sf[s]), pend[s]);
                }
                op::FROUND => {
                    let s = fld!(w_b);
                    let v = f[s];
                    let prim = round_to(v, ty_from(fld!(w_d) as u8));
                    let local = (v - prim).abs();
                    sample!(local);
                    put!(fld!(w_a), prim, sf[s], pend[s] + local);
                }
                op::FINTR1 => {
                    let x = fld!(w_b);
                    let intr = INTRINSICS[fld!(w_d)];
                    let pa = f[x];
                    let prim = eval1(intr, pa, approx);
                    let local = S::sub(S::intr1(intr, S::from_f64(pa), approx), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::intr1(intr, sf[x], approx),
                        pend[x] + local
                    );
                }
                op::FINTR2 => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let intr = INTRINSICS[fld!(w_d)];
                    let (pa, pb) = (f[x], f[y]);
                    let prim = eval2(intr, pa, pb, approx);
                    let local = S::sub(
                        S::intr2(intr, S::from_f64(pa), S::from_f64(pb), approx),
                        S::from_f64(prim),
                    )
                    .to_f64()
                    .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::intr2(intr, sf[x], sf[y], approx), p);
                }
                op::FCMP => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let cmp = cmp_from(fld!(w_d) as u8);
                    let taken = fcmp(cmp, f[x], f[y]);
                    i[fld!(w_a)] = taken as i64;
                    diverge_fcmp!(cmp, x, y, taken);
                }
                op::FLOAD => {
                    let arr = fld!(w_b);
                    let index = i[fld!(w_c)];
                    let prim = match &a[arr] {
                        ArraySlot::F(v) => match v.get(index as usize) {
                            Some(&x) if index >= 0 => x,
                            _ => {
                                let len = v.len();
                                return Err(trap(TrapKind::OobIndex { idx: index, len }, pc));
                            }
                        },
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
                    };
                    let sh = sa[arr]
                        .get(index as usize)
                        .copied()
                        .unwrap_or(S::from_f64(prim));
                    put!(fld!(w_a), prim, sh, 0.0);
                }
                op::FSTORE => {
                    let arr = fld!(w_a);
                    let index = i[fld!(w_b)];
                    let src = fld!(w_c);
                    let v = f[src];
                    match &mut a[arr] {
                        ArraySlot::F(vec) => match vec.get_mut(index as usize) {
                            Some(slot) if index >= 0 => *slot = v,
                            _ => {
                                let len = vec.len();
                                return Err(trap(TrapKind::OobIndex { idx: index, len }, pc));
                            }
                        },
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
                    }
                    if let Some(slot) = sa[arr].get_mut(index as usize) {
                        *slot = sf[src];
                    }
                    let var = avar_of[arr];
                    if var != 0 {
                        var_err[(var - 1) as usize] += pend[src];
                    }
                    pend[src] = 0.0;
                }
                op::F2I => {
                    let x = fld!(w_b);
                    let trunc = f[x] as i64;
                    i[fld!(w_a)] = trunc;
                    diverge_f2i!(x, trunc);
                }
                op::I2F => {
                    let v = i[fld!(w_b)] as f64;
                    put!(fld!(w_a), v, S::from_f64(v), 0.0);
                }

                op::ICONST => i[fld!(w_a)] = fld!(w_b_i16),
                op::ICONSTP => i[fld!(w_a)] = pool[fld!(w_b)] as i64,
                op::IMOV => i[fld!(w_a)] = i[fld!(w_b)],
                op::IADD => i[fld!(w_a)] = i[fld!(w_b)].wrapping_add(i[fld!(w_c)]),
                op::ISUB => i[fld!(w_a)] = i[fld!(w_b)].wrapping_sub(i[fld!(w_c)]),
                op::IMUL => i[fld!(w_a)] = i[fld!(w_b)].wrapping_mul(i[fld!(w_c)]),
                op::IDIV => {
                    let d = i[fld!(w_c)];
                    if d == 0 {
                        return Err(trap(TrapKind::DivByZero, pc));
                    }
                    i[fld!(w_a)] = i[fld!(w_b)].wrapping_div(d);
                }
                op::IREM => {
                    let d = i[fld!(w_c)];
                    if d == 0 {
                        return Err(trap(TrapKind::DivByZero, pc));
                    }
                    i[fld!(w_a)] = i[fld!(w_b)].wrapping_rem(d);
                }
                op::INEG => i[fld!(w_a)] = i[fld!(w_b)].wrapping_neg(),
                op::ICMP => {
                    i[fld!(w_a)] =
                        icmp(cmp_from(fld!(w_d) as u8), i[fld!(w_b)], i[fld!(w_c)]) as i64;
                }
                op::ILOAD => {
                    let index = i[fld!(w_c)];
                    match &a[fld!(w_b)] {
                        ArraySlot::I(v) => match v.get(index as usize) {
                            Some(&x) if index >= 0 => i[fld!(w_a)] = x,
                            _ => {
                                let len = v.len();
                                return Err(trap(TrapKind::OobIndex { idx: index, len }, pc));
                            }
                        },
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
                    }
                }
                op::ISTORE => {
                    let index = i[fld!(w_b)];
                    let v = i[fld!(w_c)];
                    match &mut a[fld!(w_a)] {
                        ArraySlot::I(vec) => match vec.get_mut(index as usize) {
                            Some(slot) if index >= 0 => *slot = v,
                            _ => {
                                let len = vec.len();
                                return Err(trap(TrapKind::OobIndex { idx: index, len }, pc));
                            }
                        },
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
                    }
                }
                op::BNOT => i[fld!(w_a)] = (i[fld!(w_b)] == 0) as i64,

                op::JMP => jump!(fld!(w_c)),
                op::JMPF => {
                    if i[fld!(w_a)] == 0 {
                        jump!(fld!(w_c));
                    }
                }
                op::JMPT => {
                    if i[fld!(w_a)] != 0 {
                        jump!(fld!(w_c));
                    }
                }

                op::TPUSHF => {
                    let s = fld!(w_a);
                    if let Err(e) = tape.push_f(f[s]) {
                        return Err(trap(TrapKind::Tape(e), pc));
                    }
                    stape.push(sf[s]);
                }
                op::TPOPF => match tape.pop_f() {
                    Ok(v) => {
                        let sh = stape.pop().unwrap_or(S::from_f64(v));
                        put!(fld!(w_a), v, sh, 0.0);
                    }
                    Err(e) => return Err(trap(TrapKind::Tape(e), pc)),
                },
                op::TPUSHI => {
                    if let Err(e) = tape.push_i(i[fld!(w_a)]) {
                        return Err(trap(TrapKind::Tape(e), pc));
                    }
                }
                op::TPOPI => match tape.pop_i() {
                    Ok(v) => i[fld!(w_a)] = v,
                    Err(e) => return Err(trap(TrapKind::Tape(e), pc)),
                },

                op::ALLOCF => {
                    let arr = fld!(w_a);
                    let n = i[fld!(w_b)];
                    if n < 0 {
                        return Err(trap(TrapKind::NegativeArrayLen(n), pc));
                    }
                    stats.local_array_bytes += n as usize * 8;
                    let slot = &mut a[arr];
                    match slot {
                        ArraySlot::F(v) | ArraySlot::StaleF(v) => {
                            v.clear();
                            v.resize(n as usize, 0.0);
                            let buf = std::mem::take(v);
                            *slot = ArraySlot::F(buf);
                        }
                        other => *other = ArraySlot::F(vec![0.0; n as usize]),
                    }
                    let shadow = &mut sa[arr];
                    shadow.clear();
                    shadow.resize(n as usize, S::from_f64(0.0));
                }
                op::ALLOCI => {
                    let arr = fld!(w_a);
                    let n = i[fld!(w_b)];
                    if n < 0 {
                        return Err(trap(TrapKind::NegativeArrayLen(n), pc));
                    }
                    stats.local_array_bytes += n as usize * 8;
                    let slot = &mut a[arr];
                    match slot {
                        ArraySlot::I(v) | ArraySlot::StaleI(v) => {
                            v.clear();
                            v.resize(n as usize, 0);
                            let buf = std::mem::take(v);
                            *slot = ArraySlot::I(buf);
                        }
                        other => *other = ArraySlot::I(vec![0; n as usize]),
                    }
                    sa[arr].clear();
                }

                op::FMULADD => {
                    let (x, y, c) = (fld!(w_b), fld!(w_c), fld!(w_d));
                    let (pa, pb, pcv) = (f[x], f[y], f[c]);
                    let prim = pa * pb + pcv;
                    let local = S::sub(
                        S::add(S::mul(S::from_f64(pa), S::from_f64(pb)), S::from_f64(pcv)),
                        S::from_f64(prim),
                    )
                    .to_f64()
                    .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + pend[c] + local;
                    put!(fld!(w_a), prim, S::add(S::mul(sf[x], sf[y]), sf[c]), p);
                }
                op::FADDROUND => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = round_to(pa + pb, ty_from(fld!(w_d) as u8));
                    let local = S::sub(S::add(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::add(sf[x], sf[y]), p);
                }
                op::FSUBROUND => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = round_to(pa - pb, ty_from(fld!(w_d) as u8));
                    let local = S::sub(S::sub(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::sub(sf[x], sf[y]), p);
                }
                op::FMULROUND => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = round_to(pa * pb, ty_from(fld!(w_d) as u8));
                    let local = S::sub(S::mul(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::mul(sf[x], sf[y]), p);
                }
                op::FDIVROUND => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let (pa, pb) = (f[x], f[y]);
                    let prim = round_to(pa / pb, ty_from(fld!(w_d) as u8));
                    let local = S::sub(S::div(S::from_f64(pa), S::from_f64(pb)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::div(sf[x], sf[y]), p);
                }
                op::FINTR1ROUND => {
                    let x = fld!(w_b);
                    let d = fld!(w_d);
                    let intr = INTRINSICS[d & 63];
                    let pa = f[x];
                    let prim = round_to(eval1(intr, pa, approx), ty_from((d >> 6) as u8));
                    let local = S::sub(S::intr1(intr, S::from_f64(pa), approx), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::intr1(intr, sf[x], approx),
                        pend[x] + local
                    );
                }
                op::FINTR2ROUND => {
                    let (x, y) = (fld!(w_b), fld!(w_c));
                    let d = fld!(w_d);
                    let intr = INTRINSICS[d & 63];
                    let (pa, pb) = (f[x], f[y]);
                    let prim = round_to(eval2(intr, pa, pb, approx), ty_from((d >> 6) as u8));
                    let local = S::sub(
                        S::intr2(intr, S::from_f64(pa), S::from_f64(pb), approx),
                        S::from_f64(prim),
                    )
                    .to_f64()
                    .abs();
                    sample!(local);
                    let p = pend[x] + pend[y] + local;
                    put!(fld!(w_a), prim, S::intr2(intr, sf[x], sf[y], approx), p);
                }
                op::FLOADOFF => {
                    let arr = fld!(w_b);
                    let index = i[fld!(w_c)].wrapping_add(fld!(w_d_i8));
                    let prim = match &a[arr] {
                        ArraySlot::F(v) => match v.get(index as usize) {
                            Some(&x) if index >= 0 => x,
                            _ => {
                                let len = v.len();
                                return Err(trap(TrapKind::OobIndex { idx: index, len }, pc));
                            }
                        },
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
                    };
                    let sh = sa[arr]
                        .get(index as usize)
                        .copied()
                        .unwrap_or(S::from_f64(prim));
                    put!(fld!(w_a), prim, sh, 0.0);
                }
                op::FSTOREOFF => {
                    let arr = fld!(w_a);
                    let index = i[fld!(w_b)].wrapping_add(fld!(w_d_i8));
                    let src = fld!(w_c);
                    let v = f[src];
                    match &mut a[arr] {
                        ArraySlot::F(vec) => match vec.get_mut(index as usize) {
                            Some(slot) if index >= 0 => *slot = v,
                            _ => {
                                let len = vec.len();
                                return Err(trap(TrapKind::OobIndex { idx: index, len }, pc));
                            }
                        },
                        _ => return Err(trap(TrapKind::OobIndex { idx: index, len: 0 }, pc)),
                    }
                    if let Some(slot) = sa[arr].get_mut(index as usize) {
                        *slot = sf[src];
                    }
                    let var = avar_of[arr];
                    if var != 0 {
                        var_err[(var - 1) as usize] += pend[src];
                    }
                    pend[src] = 0.0;
                }
                op::IADDIMM => i[fld!(w_a)] = i[fld!(w_b)].wrapping_add(fld!(w_c_i16)),
                op::IADDIMMP => i[fld!(w_a)] = i[fld!(w_b)].wrapping_add(pool[fld!(w_c)] as i64),
                op::FCJF => {
                    let (x, y) = (fld!(w_a), fld!(w_b));
                    let cmp = cmp_from(fld!(w_d) as u8);
                    let taken = fcmp(cmp, f[x], f[y]);
                    diverge_fcmp!(cmp, x, y, taken);
                    if !taken {
                        jump!(fld!(w_c));
                    }
                }
                op::FCJT => {
                    let (x, y) = (fld!(w_a), fld!(w_b));
                    let cmp = cmp_from(fld!(w_d) as u8);
                    let taken = fcmp(cmp, f[x], f[y]);
                    diverge_fcmp!(cmp, x, y, taken);
                    if taken {
                        jump!(fld!(w_c));
                    }
                }
                op::ICJF => {
                    if !icmp(cmp_from(fld!(w_d) as u8), i[fld!(w_a)], i[fld!(w_b)]) {
                        jump!(fld!(w_c));
                    }
                }
                op::ICJT => {
                    if icmp(cmp_from(fld!(w_d) as u8), i[fld!(w_a)], i[fld!(w_b)]) {
                        jump!(fld!(w_c));
                    }
                }

                op::FADDC => {
                    let x = fld!(w_b);
                    let k = f64::from_bits(pool[fld!(w_c)]);
                    let pa = f[x];
                    let prim = pa + k;
                    let local = S::sub(S::add(S::from_f64(pa), S::from_f64(k)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::add(sf[x], S::from_f64(k)),
                        pend[x] + local
                    );
                }
                op::FSUBC => {
                    let x = fld!(w_b);
                    let k = f64::from_bits(pool[fld!(w_c)]);
                    let pa = f[x];
                    let prim = pa - k;
                    let local = S::sub(S::sub(S::from_f64(pa), S::from_f64(k)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::sub(sf[x], S::from_f64(k)),
                        pend[x] + local
                    );
                }
                op::FSUBCR => {
                    let x = fld!(w_b);
                    let k = f64::from_bits(pool[fld!(w_c)]);
                    let pa = f[x];
                    let prim = k - pa;
                    let local = S::sub(S::sub(S::from_f64(k), S::from_f64(pa)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::sub(S::from_f64(k), sf[x]),
                        pend[x] + local
                    );
                }
                op::FMULC => {
                    let x = fld!(w_b);
                    let k = f64::from_bits(pool[fld!(w_c)]);
                    let pa = f[x];
                    let prim = pa * k;
                    let local = S::sub(S::mul(S::from_f64(pa), S::from_f64(k)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::mul(sf[x], S::from_f64(k)),
                        pend[x] + local
                    );
                }
                op::FDIVC => {
                    let x = fld!(w_b);
                    let k = f64::from_bits(pool[fld!(w_c)]);
                    let pa = f[x];
                    let prim = pa / k;
                    let local = S::sub(S::div(S::from_f64(pa), S::from_f64(k)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::div(sf[x], S::from_f64(k)),
                        pend[x] + local
                    );
                }
                op::FDIVCR => {
                    let x = fld!(w_b);
                    let k = f64::from_bits(pool[fld!(w_c)]);
                    let pa = f[x];
                    let prim = k / pa;
                    let local = S::sub(S::div(S::from_f64(k), S::from_f64(pa)), S::from_f64(prim))
                        .to_f64()
                        .abs();
                    sample!(local);
                    put!(
                        fld!(w_a),
                        prim,
                        S::div(S::from_f64(k), sf[x]),
                        pend[x] + local
                    );
                }
                op::ICJFI => {
                    if !icmp(cmp_from(fld!(w_d) as u8), i[fld!(w_a)], fld!(w_b_i16)) {
                        jump!(fld!(w_c));
                    }
                }
                op::ICJTI => {
                    if icmp(cmp_from(fld!(w_d) as u8), i[fld!(w_a)], fld!(w_b_i16)) {
                        jump!(fld!(w_c));
                    }
                }
                op::RETF => {
                    let src = fld!(w_a);
                    let v = f[src];
                    let rounded = match func.ret {
                        RetKind::F(ft) => round_to(v, ft),
                        _ => v,
                    };
                    if trap_nf && !rounded.is_finite() {
                        return Err(crate::vm::nonfinite_trap(func, src, rounded, pc));
                    }
                    sample!((v - rounded).abs());
                    let oerr = S::sub(sf[src], S::from_f64(rounded)).to_f64().abs();
                    break (Some(Value::F(rounded)), Some(sf[src].to_f64()), Some(oerr));
                }
                op::RETI => break (Some(Value::I(i[fld!(w_a)])), None, None),
                op::RETB => break (Some(Value::B(i[fld!(w_a)] != 0)), None, None),
                op::RETVOID => break (None, None, None),
                op::TRAPMISSING => return Err(trap(TrapKind::MissingReturn, pc)),
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
        if executed > budget {
            return Err(trap(
                TrapKind::InstrBudgetExhausted { executed },
                pc.min(len.saturating_sub(1)),
            ));
        }
        Ok(ret)
    }
}

fn charge_entry(err: f64, var: u32, var_err: &mut [f64], acc: &mut f64, nonfinite: &mut u64) {
    if err > 0.0 {
        if err.is_finite() {
            *acc += err;
            if var != 0 {
                var_err[(var - 1) as usize] += err;
            }
        } else {
            *nonfinite += 1;
        }
    } else if err.is_nan() {
        *nonfinite += 1;
    }
}

/// Runs one fused shadow call through a fresh machine (convenience entry
/// point; batch and reuse callers hold a [`ShadowMachine`]).
pub fn run_shadow<S: ShadowNum>(
    func: &CompiledFunction,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
) -> Result<ShadowOutcome, Trap> {
    ShadowMachine::<S>::new().run_reused(func, args, opts)
}

/// Runs `func` in fused shadow mode over every argument set, fanned out
/// over scoped threads via [`crate::par::parallel_map_init`] — one
/// reusable [`ShadowMachine`] per worker, results in input order, the
/// bytecode validated once for the whole batch (the shadow counterpart
/// of [`crate::vm::run_batch_parallel`]).
pub fn run_shadow_batch_parallel<S: ShadowNum>(
    func: &CompiledFunction,
    arg_sets: Vec<Vec<ArgValue>>,
    opts: &ExecOptions,
    max_threads: Option<usize>,
) -> Vec<Result<ShadowOutcome, Trap>> {
    if let Err(msg) = validate_function(func) {
        let trap = Trap {
            kind: TrapKind::InvalidBytecode(msg),
            pc: 0,
            span: Span::DUMMY,
        };
        return arg_sets.into_iter().map(|_| Err(trap.clone())).collect();
    }
    crate::par::parallel_map_init(arg_sets, max_threads, ShadowMachine::<S>::new, |m, args| {
        m.run_prevalidated(func, args, opts)
    })
}

/// [`run_shadow_batch_parallel`] drawing per-worker machines from a
/// shared [`ShadowMachineArena`](crate::arena::ShadowMachineArena):
/// consecutive oracle batches — even of different compiled variants —
/// reuse the same primal+shadow buffer allocations.
pub fn run_shadow_batch_parallel_in<S: ShadowNum>(
    func: &CompiledFunction,
    arg_sets: Vec<Vec<ArgValue>>,
    opts: &ExecOptions,
    max_threads: Option<usize>,
    arena: &crate::arena::ShadowMachineArena<S>,
) -> Vec<Result<ShadowOutcome, Trap>> {
    if let Err(msg) = validate_function(func) {
        let trap = Trap {
            kind: TrapKind::InvalidBytecode(msg),
            pc: 0,
            span: Span::DUMMY,
        };
        return arg_sets.into_iter().map(|_| Err(trap.clone())).collect();
    }
    // Same worker/run span pairing as `vm::run_batch_parallel_in`.
    crate::par::parallel_map_init(
        arg_sets,
        max_threads,
        || (arena.checkout(), chef_telemetry::span("exec.worker")),
        |worker, args| {
            let _run = chef_telemetry::span("exec.run");
            worker.0.run_prevalidated(func, args, opts)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_default, CompileOptions, PrecisionMap};
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
        let par = run_shadow_batch_parallel::<f64>(&func, sets.clone(), &opts, Some(4));
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

    #[test]
    fn divergence_detection_can_be_disabled() {
        let src = "double f(double x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s = s + x; }
            double r = 0.0;
            if (s < 1.0) { r = s * 2.0; } else { r = s * 0.5; }
            return r;
        }";
        let pm = PrecisionMap::empty().with(VarId(2), FloatTy::F32);
        let func = compiled(src, pm);
        let args = vec![ArgValue::F(0.01), ArgValue::I(100)];
        let opts = ExecOptions {
            detect_divergence: false,
            ..Default::default()
        };
        let off = run_shadow::<f64>(&func, args.clone(), &opts).unwrap();
        assert_eq!(off.divergence_count, 0);
        assert!(off.divergence.is_empty());
        // Everything else is unchanged by the toggle.
        let on = run_shadow::<f64>(&func, args, &ExecOptions::default()).unwrap();
        assert!(on.divergence_count > 0);
        assert_eq!(on.ret_f().to_bits(), off.ret_f().to_bits());
        assert_eq!(on.acc_error.to_bits(), off.acc_error.to_bits());
    }

    #[test]
    fn traps_mirror_the_plain_vm() {
        let mut p = parse_program("double f(double a[]) { return a[5]; }").unwrap();
        check_program(&mut p).unwrap();
        let func = compile_default(&p.functions[0]).unwrap();
        let err = run_shadow::<f64>(
            &func,
            vec![ArgValue::FArr(vec![1.0, 2.0])],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind, TrapKind::OobIndex { idx: 5, len: 2 });

        let mut p = parse_program("void f() { while (true) { } }").unwrap();
        check_program(&mut p).unwrap();
        let func = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions {
            max_instrs: Some(1000),
            ..Default::default()
        };
        let err = run_shadow::<f64>(&func, vec![], &opts).unwrap_err();
        assert!(
            matches!(err.kind, TrapKind::InstrBudgetExhausted { executed } if executed > 1000),
            "{:?}",
            err.kind
        );
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

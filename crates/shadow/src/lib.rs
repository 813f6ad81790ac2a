//! # chef-shadow — shadow-execution error oracle with per-instruction
//! attribution
//!
//! CHEF-FP (the rest of this workspace) *estimates* mixed-precision error
//! from AD-derived sensitivities. This crate is the **measurement side**:
//! a Herbgrind-style shadow-execution oracle that runs a compiled kernel
//! and its high-precision shadow in one fused VM pass
//! ([`chef_exec::shadow`]) and reports
//!
//! * the **ground-truth output error** of any [`PrecisionMap`]
//!   (`|shadow − primal|`, one run instead of the demoted-vs-baseline
//!   pair),
//! * **per-instruction** and **per-variable** error attribution, ranked
//!   by accumulated local rounding error, and
//! * an **estimate-quality** comparison
//!   ([`chef_core::report::EstimateQualityRow`]) of CHEF-FP's estimate
//!   against the measured error — the paper's Table I
//!   estimated-vs-actual relationship as a measured artifact.
//!
//! Two shadow precisions (see [`ShadowMode`]):
//!
//! * [`ShadowMode::F64`] — the shadow runs the same arithmetic unrounded
//!   in `f64`. This is the oracle for *demoted* configurations: the
//!   shadow reproduces the undemoted program bit-for-bit (shared
//!   operation order), so the output error is exactly what a two-run
//!   validation would measure, and every local sample is demotion
//!   rounding.
//! * [`ShadowMode::DD`] — the shadow runs in double-double
//!   ([`dd::DD`], ~106 bits). This measures an `f64` program's *own*
//!   rounding error (the Reduced-Precision-Checking direction), at the
//!   cost of intrinsics being evaluated at `f64` precision (except
//!   `sqrt`/`fabs`/`fmin`/`fmax`, which are exact or refined).
//!
//! See `ARCHITECTURE.md` in this crate for the value representation, the
//! DD arithmetic, and the attribution (pending/commit) semantics.
//!
//! ```
//! use chef_shadow::{shadow_run, OracleOptions};
//! use chef_exec::prelude::*;
//! use chef_ir::ast::VarId;
//! use chef_ir::types::FloatTy;
//!
//! let mut p = chef_ir::parser::parse_program(
//!     "double f(double x) { double t = x * 0.1; return t + x; }").unwrap();
//! chef_ir::typeck::check_program(&mut p).unwrap();
//! let config = PrecisionMap::empty().with(VarId(1), FloatTy::F32); // t
//! let report = chef_shadow::shadow_run(
//!     &p, "f", &[ArgValue::F(1.0 / 3.0)], &config, &OracleOptions::default()).unwrap();
//! assert!(report.output_error > 0.0);       // measured, not estimated
//! assert_eq!(report.per_variable[0].0, "t"); // the demotion is attributed
//! ```

pub mod dd;

pub use chef_exec::shadow::{DivergenceKind, DivergencePoint, MAX_DIVERGENCE_POINTS};
pub use dd::DD;

use chef_core::api::ChefError;
use chef_core::report::EstimateQualityRow;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::shadow::ShadowOutcome;
use chef_exec::value::ArgValue;
use chef_exec::vm::{ExecOptions, ExecStats};
use chef_ir::ast::Program;

/// Which number type carries the shadow stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShadowMode {
    /// Unrounded `f64` shadow — the oracle for demoted configurations.
    #[default]
    F64,
    /// Double-double shadow — the oracle for `f64` programs themselves.
    DD,
}

/// Options for the oracle entry points.
#[derive(Clone, Debug, Default)]
pub struct OracleOptions {
    /// Shadow precision.
    pub mode: ShadowMode,
    /// VM options for the primal stream (approximate intrinsics, tape
    /// limits, instruction budget).
    pub exec: ExecOptions,
}

/// One ranked per-instruction attribution entry.
#[derive(Clone, Debug)]
pub struct InstrAttribution {
    /// Instruction index in the compiled stream.
    pub pc: usize,
    /// Disassembled instruction (for reports).
    pub op: String,
    /// Accumulated `|local error|` over all executions of this pc.
    pub sum: f64,
    /// Largest single sample.
    pub max: f64,
    /// Number of non-zero samples.
    pub count: u64,
}

/// The oracle's measured view of one configuration on one input.
#[derive(Clone, Debug)]
pub struct ShadowReport {
    /// Kernel (function) name.
    pub kernel: String,
    /// Primal return value (the configured program's result).
    pub primal: f64,
    /// Shadow return value (the high-precision result along the primal
    /// trace).
    pub shadow: f64,
    /// Measured ground-truth output error `|shadow − primal|`.
    pub output_error: f64,
    /// Sum of all absolute local rounding errors (entry + instructions +
    /// return).
    pub acc_error: f64,
    /// Per-instruction attribution, ranked by `sum` descending
    /// (zero-error instructions omitted).
    pub per_instruction: Vec<InstrAttribution>,
    /// Per-variable attribution, ranked descending (zero-error variables
    /// omitted). Directly comparable to the estimator's per-variable
    /// table.
    pub per_variable: Vec<(String, f64)>,
    /// Primal execution statistics.
    pub stats: ExecStats,
    /// Non-finite local samples that were skipped (NaN/∞ involved).
    pub nonfinite_samples: u64,
    /// Total primal-vs-shadow control-flow splits observed: float
    /// comparisons and float→int truncations that would have decided
    /// differently on the shadow values. Non-zero means the whole report
    /// was measured along a trace the high-precision program would not
    /// have taken — treat [`ShadowReport::output_error`] as untrusted and
    /// fall back to a two-run validation (the tuner's policy).
    pub divergence_count: u64,
    /// The first [`MAX_DIVERGENCE_POINTS`] splits in execution order.
    pub divergence: Vec<DivergencePoint>,
    /// Per-variable divergence attribution, ranked descending
    /// (divergence-free variables omitted): how many splits read this
    /// named variable as a comparison/truncation operand.
    pub per_variable_divergence: Vec<(String, u64)>,
}

impl ShadowReport {
    /// Measured attribution of one variable (0.0 when absent).
    pub fn error_of(&self, var: &str) -> f64 {
        self.per_variable
            .iter()
            .find(|(n, _)| n == var)
            .map(|(_, e)| *e)
            .unwrap_or(0.0)
    }

    /// Divergence attribution of one variable (0 when absent).
    pub fn divergence_of(&self, var: &str) -> u64 {
        self.per_variable_divergence
            .iter()
            .find(|(n, _)| n == var)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// `true` when the run observed at least one control-flow split.
    pub fn diverged(&self) -> bool {
        self.divergence_count > 0
    }

    /// Builds the estimate-quality record against an estimator's figure.
    /// `fault_count` stays 0 — a direct oracle run has no fault-isolation
    /// layer; pipelines that retried faults (the tuner) stamp their
    /// `FaultSummary::total()` onto the row afterwards.
    pub fn against_estimate(&self, threshold: f64, estimated: f64) -> EstimateQualityRow {
        EstimateQualityRow {
            kernel: self.kernel.clone(),
            threshold,
            estimated,
            measured: self.output_error,
            divergence_count: self.divergence_count,
            fault_count: 0,
        }
    }
}

/// Packages a raw [`ShadowOutcome`] of `func` as a ranked
/// [`ShadowReport`]; errors (instead of panicking) when the function did
/// not return a float, which is the one shape the oracle's output-error
/// notion does not cover.
fn build_report(
    func: &chef_exec::bytecode::CompiledFunction,
    out: ShadowOutcome,
) -> Result<ShadowReport, ChefError> {
    if out.ret.is_none() || out.shadow_ret.is_none() {
        return Err(ChefError::Unsupported(format!(
            "shadow oracle needs a float-returning function; `{}` returns none",
            func.name
        )));
    }
    let mut per_instruction: Vec<InstrAttribution> = out
        .samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.sum > 0.0)
        .map(|(pc, s)| InstrAttribution {
            pc,
            op: format!("{:?}", func.instrs[pc]),
            sum: s.sum,
            max: s.max,
            count: s.count,
        })
        .collect();
    per_instruction.sort_by(|a, b| b.sum.total_cmp(&a.sum).then(a.pc.cmp(&b.pc)));
    let mut per_variable: Vec<(String, f64)> = out
        .var_error
        .iter()
        .filter(|(_, e)| *e > 0.0)
        .cloned()
        .collect();
    per_variable.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut per_variable_divergence: Vec<(String, u64)> = out
        .var_divergence
        .iter()
        .filter(|(_, c)| *c > 0)
        .cloned()
        .collect();
    per_variable_divergence.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(ShadowReport {
        kernel: func.name.clone(),
        primal: out.ret_f(),
        shadow: out.shadow_f(),
        output_error: out.output_error(),
        acc_error: out.acc_error,
        per_instruction,
        per_variable,
        stats: out.stats,
        nonfinite_samples: out.nonfinite_samples,
        divergence_count: out.divergence_count,
        divergence: out.divergence,
        per_variable_divergence,
    })
}

/// Compiles `func` under `config` (after inlining) and runs the fused
/// shadow pass on `args`, returning the ranked report.
///
/// The function must return a float (all five `chef-apps` kernels do);
/// use [`shadow_run_compiled`] for full control.
pub fn shadow_run(
    program: &Program,
    func: &str,
    args: &[ArgValue],
    config: &PrecisionMap,
    opts: &OracleOptions,
) -> Result<ShadowReport, ChefError> {
    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    let compiled = compile(
        primal,
        &CompileOptions {
            precisions: config.clone(),
            ..Default::default()
        },
    )
    .map_err(ChefError::Compile)?;
    shadow_run_compiled(&compiled, args.to_vec(), opts)
}

/// [`shadow_run`] on an already-compiled function. The run takes a
/// machine from the process's pool for the mode's shadow type
/// ([`chef_exec::shadow::run_shadow`]), so repeated measurements reuse
/// one set of buffers.
pub fn shadow_run_compiled(
    compiled: &chef_exec::bytecode::CompiledFunction,
    args: Vec<ArgValue>,
    opts: &OracleOptions,
) -> Result<ShadowReport, ChefError> {
    let out = match opts.mode {
        ShadowMode::F64 => chef_exec::shadow::run_shadow::<f64>(compiled, args, &opts.exec),
        ShadowMode::DD => chef_exec::shadow::run_shadow::<DD>(compiled, args, &opts.exec),
    }
    .map_err(ChefError::Trap)?;
    build_report(compiled, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_ir::ast::VarId;
    use chef_ir::types::FloatTy;

    fn program(src: &str) -> Program {
        let mut p = chef_ir::parser::parse_program(src).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        p
    }

    #[test]
    fn report_ranks_instructions_and_variables() {
        let src = "double f(double x) {
            double big = x / 3.0;
            double small = x * 1e-9;
            double r = big + small;
            return r;
        }";
        let p = program(src);
        // Demote both intermediates; `big`'s rounding dominates.
        let config = PrecisionMap::empty()
            .with(VarId(1), FloatTy::F32)
            .with(VarId(2), FloatTy::F32);
        let rep = shadow_run(
            &p,
            "f",
            &[ArgValue::F(1.234567890123)],
            &config,
            &OracleOptions::default(),
        )
        .unwrap();
        assert!(rep.output_error > 0.0);
        assert!(!rep.per_instruction.is_empty());
        // Ranked descending.
        for w in rep.per_instruction.windows(2) {
            assert!(w[0].sum >= w[1].sum);
        }
        assert_eq!(rep.per_variable[0].0, "big", "{:?}", rep.per_variable);
    }

    #[test]
    fn empty_config_measures_zero_in_f64_mode() {
        let p = program("double f(double x) { double s = x * 0.1 + 1.0; return s; }");
        let rep = shadow_run(
            &p,
            "f",
            &[ArgValue::F(0.7)],
            &PrecisionMap::empty(),
            &OracleOptions::default(),
        )
        .unwrap();
        assert_eq!(rep.output_error, 0.0);
        assert_eq!(rep.acc_error, 0.0);
        assert!(rep.per_instruction.is_empty());
        assert!(rep.per_variable.is_empty());
    }

    #[test]
    fn dd_mode_sees_f64_rounding_that_f64_mode_cannot() {
        // Classic non-associativity: (1 + tiny) accumulated many times.
        let src = "double f(int n) {
            double s = 1.0;
            for (int i = 0; i < n; i++) { s = s + 1e-17; }
            return s;
        }";
        let p = program(src);
        let f64_rep = shadow_run(
            &p,
            "f",
            &[ArgValue::I(1000)],
            &PrecisionMap::empty(),
            &OracleOptions::default(),
        )
        .unwrap();
        assert_eq!(f64_rep.output_error, 0.0); // f64 shadow == primal
        let dd_rep = shadow_run(
            &p,
            "f",
            &[ArgValue::I(1000)],
            &PrecisionMap::empty(),
            &OracleOptions {
                mode: ShadowMode::DD,
                ..Default::default()
            },
        )
        .unwrap();
        // Each f64 add of 1e-17 to 1.0 is absorbed; the DD shadow keeps
        // the true sum 1 + 1000e-17.
        assert!((dd_rep.shadow - (1.0 + 1000.0 * 1e-17)).abs() < 1e-16);
        assert!((dd_rep.output_error - 1000.0 * 1e-17).abs() < 1e-16);
        assert!(dd_rep.acc_error > 0.0);
    }

    #[test]
    fn dd_output_error_is_exact_below_one_ulp() {
        // The true error of `1.0 + 1e-17` is 1e-17 — far below
        // ulp(1.0)/2, so rounding the shadow to f64 before differencing
        // would report 0. The output error is differenced in shadow
        // precision instead.
        let p = program("double f(double x) { double s = x + 0.00000000000000001; return s; }");
        let rep = shadow_run(
            &p,
            "f",
            &[ArgValue::F(1.0)],
            &PrecisionMap::empty(),
            &OracleOptions {
                mode: ShadowMode::DD,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rep.shadow, rep.primal, "f64 view of the shadow rounds back");
        assert!(
            (rep.output_error - 1e-17).abs() < 1e-30,
            "sub-ulp error must survive: {}",
            rep.output_error
        );
    }

    #[test]
    fn oracle_returns_an_error_for_non_float_functions() {
        let p = program("int f(int n) { return n * 2; }");
        let err = shadow_run(
            &p,
            "f",
            &[ArgValue::I(21)],
            &PrecisionMap::empty(),
            &OracleOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, ChefError::Unsupported(_)),
            "expected Unsupported, got {err}"
        );
    }
}

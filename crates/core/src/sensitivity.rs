//! Per-iteration sensitivity profiling (paper §IV-4, Fig. 9).
//!
//! CHEF-FP's HPCCG study dumps the sensitivity `S_v = |v · v̄|` of selected
//! variables *per main-loop iteration*, revealing that all sensitivities
//! collapse after ~60 iterations — which motivates the loop-split
//! mixed-precision configuration (first 60 iterations in high precision,
//! the rest demoted).
//!
//! The profiler is an [`AdjointExtension`] that
//!
//! * appends a `double _sens_out[]` output parameter,
//! * maintains an iteration counter ticked by assignments to a designated
//!   *marker* variable (one assignment per outer-loop iteration, e.g.
//!   HPCCG's `rtrans`), and
//! * on every assignment to a tracked variable adds `|value · adjoint|`
//!   into `_sens_out[slot · max_ticks + tick]`.
//!
//! Because the hooks run in the *backward* sweep, tick 0 corresponds to
//! the **last** iteration; rows are reversed during extraction so the
//! profile reads forward.

use chef_ad::reverse::{
    reverse_diff_with, AdjointExtension, AssignCtx, FinalizeCtx, ReverseConfig,
};
use chef_exec::prelude::*;
use chef_ir::ast::*;
use chef_ir::types::{ElemTy, FloatTy, Type};

use crate::api::ChefError;

/// Profiler configuration.
#[derive(Clone, Debug)]
pub struct SensitivityConfig {
    /// Variables to track (scalar or array; arrays accumulate over their
    /// element stores).
    pub tracked: Vec<String>,
    /// Variable whose assignment marks an iteration boundary.
    pub tick_on: String,
    /// Maximum number of iterations recorded.
    pub max_ticks: usize,
}

/// The extracted profile: `matrix[v][t]` is the accumulated sensitivity of
/// tracked variable `v` at (forward) iteration `t`.
#[derive(Clone, Debug)]
pub struct SensitivityProfile {
    /// Tracked variable names (row order).
    pub vars: Vec<String>,
    /// Number of recorded iterations.
    pub ticks: usize,
    /// Row-major `vars.len() × ticks` sensitivities.
    pub matrix: Vec<Vec<f64>>,
}

impl SensitivityProfile {
    /// Rows normalized to their own maximum (the paper's heat-map scale).
    ///
    /// Non-finite sensitivities (an overflowed or NaN `|v · v̄|` on
    /// adversarial inputs) normalize to `1.0` — "maximally sensitive" —
    /// rather than poisoning the row max. A NaN that leaked into the
    /// scale would make `>= threshold` read false everywhere and
    /// [`split_point`](Self::split_point) report the variable as settled
    /// at the exact iterations where its error is unbounded.
    pub fn normalized(&self) -> Vec<Vec<f64>> {
        self.matrix
            .iter()
            .map(|row| {
                let m = row
                    .iter()
                    .cloned()
                    .filter(|v| v.is_finite())
                    .fold(0.0f64, f64::max);
                row.iter()
                    .map(|&v| {
                        if !v.is_finite() {
                            1.0
                        } else if m == 0.0 {
                            v
                        } else {
                            v / m
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// First iteration index after which every tracked variable's
    /// normalized sensitivity stays below `threshold` — the paper's
    /// "sensitivity drops below our threshold after almost 60 iterations"
    /// split point. Returns `None` if it never settles.
    pub fn split_point(&self, threshold: f64) -> Option<usize> {
        let norm = self.normalized();
        'outer: for t in 0..self.ticks {
            for row in &norm {
                if row[t..].iter().any(|&v| v >= threshold) {
                    continue 'outer;
                }
            }
            return Some(t);
        }
        None
    }

    /// Renders an ASCII heat map (rows = variables, columns = iterations,
    /// downsampled to `width` buckets).
    pub fn ascii_heatmap(&self, width: usize) -> String {
        const SHADES: [char; 5] = [' ', '.', ':', '#', '@'];
        let norm = self.normalized();
        let mut out = String::new();
        for (name, row) in self.vars.iter().zip(&norm) {
            let mut line = format!("{name:>8} |");
            let bucket = (self.ticks as f64 / width as f64).max(1.0);
            for b in 0..width.min(self.ticks) {
                let lo = (b as f64 * bucket) as usize;
                let hi = (((b + 1) as f64 * bucket) as usize).min(self.ticks);
                let v = row[lo..hi.max(lo + 1)]
                    .iter()
                    .cloned()
                    .fold(0.0f64, f64::max);
                let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                line.push(SHADES[idx]);
            }
            line.push('|');
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

struct Profiler {
    cfg: SensitivityConfig,
}

impl Profiler {
    fn slot(&self, name: &str) -> Option<usize> {
        self.cfg.tracked.iter().position(|t| t == name)
    }
}

/// Parameter/variable names used by the profiler.
const SENS_OUT: &str = "_sens_out";
const TICK: &str = "_sens_tick";

impl AdjointExtension for Profiler {
    fn extra_params(&self) -> Vec<Param> {
        vec![Param::array(SENS_OUT, ElemTy::Float(FloatTy::F64))]
    }

    fn on_assign(&mut self, ctx: &mut AssignCtx<'_>) -> Vec<Stmt> {
        let mut out = Vec::new();
        // Iteration marker: advance the tick counter. Only in-loop
        // assignments count — a declaration/initialization of the marker
        // outside the main loop is not an iteration boundary.
        if ctx.var_name == self.cfg.tick_on && ctx.in_loop {
            let tick_id = ensure_tick_var(ctx);
            out.push(Stmt::synth(StmtKind::Assign {
                lhs: LValue::Var(VarRef::resolved(TICK, tick_id)),
                op: AssignOp::AddAssign,
                rhs: Expr::ilit(1),
            }));
        }
        if let Some(slot) = self.slot(&ctx.var_name) {
            let tick_id = ensure_tick_var(ctx);
            let arr_id = ctx.grad.param_id(SENS_OUT).expect("profiler param");
            let tick = || Expr::var(TICK, tick_id, Type::Int);
            // _sens_out[slot * max_ticks + tick] += fabs(value * adjoint)
            let index = Expr::add(Expr::ilit((slot * self.cfg.max_ticks) as i64), tick());
            let sens = Expr::call(
                Intrinsic::Fabs,
                vec![Expr::mul(ctx.value.clone(), ctx.adjoint.clone())],
            );
            let guarded = Stmt::synth(StmtKind::If {
                cond: Expr::binary(BinOp::Lt, tick(), Expr::ilit(self.cfg.max_ticks as i64)),
                then_branch: Block::of(vec![Stmt::synth(StmtKind::Assign {
                    lhs: LValue::Index {
                        base: VarRef::resolved(SENS_OUT, arr_id),
                        index,
                    },
                    op: AssignOp::AddAssign,
                    rhs: sens,
                })]),
                else_branch: None,
            });
            out.push(guarded);
        }
        out
    }

    fn on_finalize(&mut self, _ctx: &mut FinalizeCtx<'_>) -> Vec<Stmt> {
        Vec::new()
    }
}

/// Registers the `_sens_tick` counter once (hoisted `int _sens_tick = 0;`).
fn ensure_tick_var(ctx: &mut AssignCtx<'_>) -> VarId {
    if let Some((id, _)) = ctx.grad.vars_iter().find(|(_, v)| v.name == TICK) {
        return id;
    }
    let id = ctx.grad.add_var(TICK, Type::Int);
    ctx.hoisted.push(Stmt::synth(StmtKind::Decl {
        name: TICK.to_string(),
        id: Some(id),
        ty: Type::Int,
        size: None,
        init: Some(Expr::ilit(0)),
    }));
    id
}

/// A profiler compiled once and runnable over many argument sets.
struct CompiledProfiler {
    compiled: chef_exec::bytecode::CompiledFunction,
    /// (name, type) of every primal parameter, for adjoint-seed layout.
    primal_params: Vec<(String, Type)>,
    cfg: SensitivityConfig,
}

/// The instrumented adjoint the profiler runs: `func`'s reverse-mode
/// adjoint with the `_sens_out` accumulation injected at every tracked
/// assignment, O2-optimized. [`profile_sensitivity`] compiles exactly
/// this function.
pub fn profiler_adjoint(
    program: &Program,
    func: &str,
    cfg: &SensitivityConfig,
) -> Result<Function, ChefError> {
    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
    instrumented_adjoint(primal, cfg)
}

fn instrumented_adjoint(primal: &Function, cfg: &SensitivityConfig) -> Result<Function, ChefError> {
    let mut profiler = Profiler { cfg: cfg.clone() };
    let rcfg = ReverseConfig::default();
    let mut grad = reverse_diff_with(primal, &rcfg, &mut profiler).map_err(ChefError::Ad)?;
    chef_passes::optimize_function(&mut grad, chef_passes::OptLevel::O2);
    Ok(grad)
}

impl CompiledProfiler {
    fn build(
        program: &Program,
        func: &str,
        cfg: &SensitivityConfig,
    ) -> Result<CompiledProfiler, ChefError> {
        let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
        let primal = inlined
            .function(func)
            .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;
        let grad = instrumented_adjoint(primal, cfg)?;
        let compiled = chef_exec::compile::compile_default(&grad).map_err(ChefError::Compile)?;
        Ok(CompiledProfiler {
            compiled,
            primal_params: primal
                .params
                .iter()
                .map(|p| (p.name.clone(), p.ty))
                .collect(),
            cfg: cfg.clone(),
        })
    }

    /// Appends adjoint seeds and the `_sens_out` buffer; returns the full
    /// VM argument vector and the index of the sensitivity buffer.
    fn build_vm_args(&self, primal_args: &[ArgValue]) -> (Vec<ArgValue>, usize) {
        let mut args: Vec<ArgValue> = primal_args.to_vec();
        for (i, (_, ty)) in self.primal_params.iter().enumerate() {
            match ty {
                Type::Float(_) => args.push(ArgValue::F(0.0)),
                Type::Array(ElemTy::Float(_)) => {
                    args.push(ArgValue::FArr(vec![0.0; primal_args[i].as_farr().len()]));
                }
                _ => {}
            }
        }
        let sens_at = args.len();
        args.push(ArgValue::FArr(vec![
            0.0;
            self.cfg.tracked.len()
                * self.cfg.max_ticks
        ]));
        (args, sens_at)
    }

    /// Extracts the profile from the flat `_sens_out` buffer. Ticks run
    /// backward (tick 0 = last iteration); rows are reversed so the
    /// profile reads forward.
    fn extract(&self, flat: &[f64]) -> SensitivityProfile {
        let cfg = &self.cfg;
        let used = (0..cfg.max_ticks)
            .rev()
            .find(|t| {
                cfg.tracked
                    .iter()
                    .enumerate()
                    .any(|(s, _)| flat[s * cfg.max_ticks + t] != 0.0)
            })
            .map_or(0, |t| t + 1);
        let matrix = cfg
            .tracked
            .iter()
            .enumerate()
            .map(|(s, _)| {
                let row = &flat[s * cfg.max_ticks..s * cfg.max_ticks + used];
                let mut row: Vec<f64> = row.to_vec();
                row.reverse();
                row
            })
            .collect();
        SensitivityProfile {
            vars: cfg.tracked.clone(),
            ticks: used,
            matrix,
        }
    }
}

/// Runs the sensitivity profiler over `func` on the given arguments.
pub fn profile_sensitivity(
    program: &Program,
    func: &str,
    cfg: &SensitivityConfig,
    primal_args: &[ArgValue],
    exec: &ExecOptions,
) -> Result<SensitivityProfile, ChefError> {
    let profiler = CompiledProfiler::build(program, func, cfg)?;
    let (args, sens_at) = profiler.build_vm_args(primal_args);
    let out = chef_exec::vm::run_with(&profiler.compiled, args, exec).map_err(ChefError::Trap)?;
    Ok(profiler.extract(out.args[sens_at].as_farr()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(matrix: Vec<Vec<f64>>) -> SensitivityProfile {
        SensitivityProfile {
            vars: (0..matrix.len()).map(|i| format!("v{i}")).collect(),
            ticks: matrix[0].len(),
            matrix,
        }
    }

    #[test]
    fn nonfinite_sensitivities_saturate_instead_of_poisoning_the_scale() {
        let p = profile(vec![vec![f64::NAN, 4.0, f64::INFINITY, 1.0, 0.0]]);
        let norm = &p.normalized()[0];
        assert_eq!(norm, &[1.0, 1.0, 1.0, 0.25, 0.0]);
        // The NaN/Inf ticks count as "still sensitive": the split point
        // lands after them, not at iteration 0.
        assert_eq!(p.split_point(0.5), Some(3));
        // An all-non-finite row never settles.
        let q = profile(vec![vec![f64::NAN; 4]]);
        assert_eq!(q.split_point(0.5), None);
    }

    #[test]
    fn split_point_finds_the_first_settled_iteration() {
        let p = profile(vec![
            vec![1.0, 0.8, 0.1, 0.05, 0.01],
            vec![0.5, 1.0, 0.2, 0.04, 0.02],
        ]);
        // Normalized rows dip below 0.25 from tick 2 on (both rows).
        assert_eq!(p.split_point(0.25), Some(2));
        assert_eq!(p.split_point(0.001), None);
    }
}

//! The tracing interpreter: executes a KernelC function while recording
//! every FP operation into the [`OpTape`].
//!
//! This is the architectural model of ADAPT-over-CoDiPack (paper §II-B
//! "Tracing"): an operator-overloading AD tool re-records the computation
//! graph **at every analysis run**, flattening control flow into the tape,
//! then reverse-interprets it. Consequences reproduced here:
//!
//! * analysis time includes tree-walking interpretation plus tape
//!   management on every run (no compile-once benefit);
//! * peak memory grows with the *operation count* of the execution
//!   (CHEF-FP's transformation needs only the TBR-selected values);
//! * error estimation happens post-hoc over the recorded tape.

use crate::tape::{Entry, EntryIdx, OpTape, TapeOom};
use chef_exec::precision::{self, demotion_error, round_to};
use chef_exec::value::ArgValue;
use chef_ir::ast::*;
use chef_ir::types::{ElemTy, FloatTy, Type};
use std::collections::HashMap;

/// Which per-assignment error formula the post-hoc pass applies.
#[derive(Clone, Copy, Debug)]
pub enum Formula {
    /// ADAPT's eq. 2: `|x̄ · (x − fl_target(x))|`.
    Demotion(FloatTy),
    /// The Taylor model of eq. 1 with a fixed epsilon.
    Epsilon(FloatTy),
}

/// Analysis options.
#[derive(Clone, Debug)]
pub struct AdaptOptions {
    /// The error formula.
    pub formula: Formula,
    /// Byte budget for the operation tape (reproduces the OOM points).
    pub memory_limit: Option<usize>,
    /// Safety valve on executed operations.
    pub max_ops: Option<u64>,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            formula: Formula::Demotion(FloatTy::F32),
            memory_limit: None,
            max_ops: None,
        }
    }
}

/// Analysis failure.
#[derive(Clone, Debug)]
pub enum AdaptError {
    /// Tape exceeded the configured memory budget.
    OutOfMemory(TapeOom),
    /// Runtime fault (division by zero, OOB, missing return…).
    Runtime(String),
    /// Construct the interpreter does not support.
    Unsupported(String),
    /// The operation budget ran out.
    OpBudget,
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::OutOfMemory(o) => write!(f, "{o}"),
            AdaptError::Runtime(m) => write!(f, "runtime error: {m}"),
            AdaptError::Unsupported(m) => write!(f, "unsupported: {m}"),
            AdaptError::OpBudget => write!(f, "operation budget exhausted"),
        }
    }
}

impl std::error::Error for AdaptError {}

impl From<TapeOom> for AdaptError {
    fn from(o: TapeOom) -> Self {
        AdaptError::OutOfMemory(o)
    }
}

/// The analysis result.
#[derive(Clone, Debug)]
pub struct AdaptOutcome {
    /// Primal function value.
    pub value: f64,
    /// Total estimated FP error.
    pub fp_error: f64,
    /// Per-variable attribution (float variables by name).
    pub per_variable: HashMap<String, f64>,
    /// Gradient of float inputs: name → scalar or per-element adjoints.
    pub gradient: Vec<(String, ArgValue)>,
    /// Number of tape entries recorded.
    pub tape_entries: usize,
    /// Peak tape bytes (entries + the reverse pass's adjoint vector).
    pub tape_peak_bytes: usize,
    /// Operations executed by the interpreter.
    pub ops_executed: u64,
}

/// Runs the ADAPT-style analysis of `func` (which must be inlined) on the
/// given arguments.
pub fn analyze(
    func: &Function,
    args: &[ArgValue],
    opts: &AdaptOptions,
) -> Result<AdaptOutcome, AdaptError> {
    let mut interp = Interp::new(func, opts)?;
    interp.bind(args)?;
    let (value, ret_idx) = interp.run()?;
    interp.finish(value, ret_idx)
}

#[derive(Clone, Debug)]
enum Slot {
    F(f64, Option<EntryIdx>),
    I(i64),
    B(bool),
    FA(Vec<f64>, Vec<Option<EntryIdx>>),
    IA(Vec<i64>),
    Unset,
}

#[derive(Clone, Copy, Debug)]
enum TVal {
    /// value, tape index, and the precision the rule of
    /// [`chef_ir::precision`] gives it, as the compiler does.
    F(f64, Option<EntryIdx>, FloatTy),
    I(i64),
    B(bool),
}

impl TVal {
    fn ty(self) -> Type {
        match self {
            TVal::F(.., p) => Type::Float(p),
            TVal::I(_) => Type::Int,
            TVal::B(_) => Type::Bool,
        }
    }

    fn as_f(self) -> (f64, Option<EntryIdx>, FloatTy) {
        match self {
            TVal::F(v, i, p) => (v, i, p),
            TVal::I(v) => (v as f64, None, FloatTy::F64),
            TVal::B(_) => panic!("bool used as float"),
        }
    }

    fn as_i(self) -> i64 {
        match self {
            TVal::I(v) => v,
            TVal::B(b) => b as i64,
            TVal::F(..) => panic!("float used as int"),
        }
    }

    fn as_b(self) -> bool {
        match self {
            TVal::B(b) => b,
            _ => panic!("non-bool condition"),
        }
    }
}

struct Interp<'a> {
    func: &'a Function,
    opts: &'a AdaptOptions,
    tape: OpTape,
    env: Vec<Slot>,
    /// (entry, attribution name) for every executed assignment and input.
    marks: Vec<(EntryIdx, u32)>,
    /// Attribution slot names.
    slot_names: Vec<String>,
    slot_of: HashMap<String, u32>,
    /// Float inputs for gradient extraction.
    inputs: Vec<(String, InputIdx)>,
    ops: u64,
}

enum InputIdx {
    Scalar(EntryIdx),
    Array(Vec<EntryIdx>),
}

/// Attribution sentinel for the function result (counted in the total,
/// not in any named variable's bucket).
const RESULT_SLOT: u32 = u32::MAX;

impl<'a> Interp<'a> {
    fn new(func: &'a Function, opts: &'a AdaptOptions) -> Result<Self, AdaptError> {
        let mut slot_names = Vec::new();
        let mut slot_of = HashMap::new();
        for (_, info) in func.vars_iter() {
            if info.ty.is_differentiable() {
                slot_of.insert(info.name.clone(), slot_names.len() as u32);
                slot_names.push(info.name.clone());
            }
        }
        let tape = match opts.memory_limit {
            Some(limit) => OpTape::with_limit(limit),
            None => OpTape::new(),
        };
        Ok(Interp {
            func,
            opts,
            tape,
            env: vec![Slot::Unset; func.vars.len()],
            marks: Vec::new(),
            slot_names,
            slot_of,
            inputs: Vec::new(),
            ops: 0,
        })
    }

    fn tick(&mut self) -> Result<(), AdaptError> {
        self.ops += 1;
        if let Some(max) = self.opts.max_ops {
            if self.ops > max {
                return Err(AdaptError::OpBudget);
            }
        }
        Ok(())
    }

    fn bind(&mut self, args: &[ArgValue]) -> Result<(), AdaptError> {
        if args.len() != self.func.params.len() {
            return Err(AdaptError::Runtime(format!(
                "expected {} args, got {}",
                self.func.params.len(),
                args.len()
            )));
        }
        for (p, arg) in self.func.params.iter().zip(args) {
            let id = p.id.expect("typeck ran").index();
            match (&p.ty, arg) {
                (Type::Float(ft), ArgValue::F(v)) => {
                    let v = round_to(*v, *ft);
                    let idx = self.tape.input(v)?;
                    self.mark(idx, &p.name);
                    self.inputs.push((p.name.clone(), InputIdx::Scalar(idx)));
                    self.env[id] = Slot::F(v, Some(idx));
                    let _ = ft;
                }
                (Type::Int, ArgValue::I(v)) => self.env[id] = Slot::I(*v),
                (Type::Bool, ArgValue::B(v)) => self.env[id] = Slot::B(*v),
                (Type::Array(ElemTy::Float(ft)), ArgValue::FArr(v)) => {
                    let mut vals = Vec::with_capacity(v.len());
                    let mut idxs = Vec::with_capacity(v.len());
                    let mut raw = Vec::with_capacity(v.len());
                    for &x in v {
                        let x = round_to(x, *ft);
                        let idx = self.tape.input(x)?;
                        self.mark(idx, &p.name);
                        vals.push(x);
                        idxs.push(Some(idx));
                        raw.push(idx);
                    }
                    self.inputs.push((p.name.clone(), InputIdx::Array(raw)));
                    self.env[id] = Slot::FA(vals, idxs);
                }
                (Type::Array(ElemTy::Int), ArgValue::IArr(v)) => {
                    self.env[id] = Slot::IA(v.clone());
                }
                (ty, got) => {
                    return Err(AdaptError::Runtime(format!(
                        "parameter `{}`: expected {ty}, got {got:?}",
                        p.name
                    )))
                }
            }
        }
        Ok(())
    }

    fn mark(&mut self, idx: EntryIdx, name: &str) {
        if let Some(&slot) = self.slot_of.get(name) {
            self.marks.push((idx, slot));
        }
    }

    fn run(&mut self) -> Result<(f64, Option<EntryIdx>), AdaptError> {
        match self.block(&self.func.body)? {
            Some(TVal::F(v, idx, _)) => Ok((v, idx)),
            Some(_) => Err(AdaptError::Unsupported("non-float return".into())),
            None => Err(AdaptError::Runtime("missing return".into())),
        }
    }

    /// Executes a block; `Some` = a return value was produced.
    fn block(&mut self, b: &Block) -> Result<Option<TVal>, AdaptError> {
        for s in &b.stmts {
            if let Some(ret) = self.stmt(s)? {
                return Ok(Some(ret));
            }
        }
        Ok(None)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Option<TVal>, AdaptError> {
        self.tick()?;
        match &s.kind {
            StmtKind::Decl {
                id, ty, size, init, ..
            } => {
                let id = id.expect("typeck ran").index();
                if let Some(sz) = size {
                    let n = self.expr(sz)?.as_i();
                    if n < 0 {
                        return Err(AdaptError::Runtime("negative array length".into()));
                    }
                    match ty {
                        Type::Array(ElemTy::Float(_)) => {
                            self.env[id] = Slot::FA(vec![0.0; n as usize], vec![None; n as usize]);
                        }
                        Type::Array(ElemTy::Int) => {
                            self.env[id] = Slot::IA(vec![0; n as usize]);
                        }
                        _ => unreachable!("typeck"),
                    }
                    return Ok(None);
                }
                if let Some(e) = init {
                    let v = self.expr(e)?;
                    self.assign_scalar(id, v)?;
                } else {
                    // C-like: uninitialized; model as zero/passive.
                    self.env[id] = match ty {
                        Type::Float(_) => Slot::F(0.0, None),
                        Type::Int => Slot::I(0),
                        Type::Bool => Slot::B(false),
                        _ => Slot::Unset,
                    };
                }
                Ok(None)
            }
            StmtKind::Assign { lhs, op, rhs } => {
                let mut val = self.expr(rhs)?;
                if let Some(bop) = op.binop() {
                    let cur = self.read_lvalue(lhs)?;
                    val = self.binop(bop, cur, val)?;
                }
                self.write_lvalue(lhs, val)?;
                Ok(None)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.expr(cond)?.as_b() {
                    self.block(then_branch)
                } else if let Some(eb) = else_branch {
                    self.block(eb)
                } else {
                    Ok(None)
                }
            }
            StmtKind::While { cond, body } => {
                while self.expr(cond)?.as_b() {
                    self.tick()?;
                    if let Some(r) = self.block(body)? {
                        return Ok(Some(r));
                    }
                }
                Ok(None)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                loop {
                    let go = match cond {
                        Some(c) => self.expr(c)?.as_b(),
                        None => true,
                    };
                    if !go {
                        break;
                    }
                    self.tick()?;
                    if let Some(r) = self.block(body)? {
                        return Ok(Some(r));
                    }
                    if let Some(st) = step {
                        self.stmt(st)?;
                    }
                }
                Ok(None)
            }
            StmtKind::Return(Some(e)) => {
                let ret = self.expr(e)?;
                // Round to the declared return precision. A non-trivial
                // return expression is an assignment to the output and
                // contributes an error term (same convention as CHEF-FP,
                // which instruments `_result = e` unless `e` is a bare
                // variable copy).
                if let Type::Float(ft) = self.func.ret {
                    let (v, idx, _) = ret.as_f();
                    let v = round_to(v, ft);
                    if !matches!(e.kind, ExprKind::Var(_)) {
                        let entry = self.tape.record(Entry {
                            a: idx.map(|j| (j, 1.0)),
                            b: None,
                            value: v,
                        })?;
                        self.marks.push((entry, RESULT_SLOT));
                        return Ok(Some(TVal::F(v, Some(entry), ft)));
                    }
                    return Ok(Some(TVal::F(v, idx, ft)));
                }
                Ok(Some(ret))
            }
            StmtKind::Return(None) => Err(AdaptError::Unsupported("void return".into())),
            StmtKind::Block(b) => self.block(b),
            StmtKind::ExprStmt(e) => {
                self.expr(e)?;
                Ok(None)
            }
            StmtKind::TapePush(_) | StmtKind::TapePop(_) => {
                Err(AdaptError::Unsupported("tape ops in primal".into()))
            }
        }
    }

    /// Assignment semantics: round to the variable's precision, record a
    /// copy entry, and mark it for attribution (every executed assignment
    /// contributes an error term — same aggregation CHEF-FP uses).
    fn assign_scalar(&mut self, id: usize, val: TVal) -> Result<(), AdaptError> {
        let info = &self.func.vars[id];
        match info.ty {
            Type::Float(ft) => {
                let (v, idx, _) = val.as_f();
                let v = round_to(v, ft);
                let e = self.tape.record(Entry {
                    a: idx.map(|i| (i, 1.0)),
                    b: None,
                    value: v,
                })?;
                let name = info.name.clone();
                self.mark(e, &name);
                self.env[id] = Slot::F(v, Some(e));
            }
            Type::Int => self.env[id] = Slot::I(val.as_i()),
            Type::Bool => self.env[id] = Slot::B(val.as_b()),
            _ => return Err(AdaptError::Unsupported("array scalar-assign".into())),
        }
        Ok(())
    }

    fn read_lvalue(&mut self, lv: &LValue) -> Result<TVal, AdaptError> {
        match lv {
            LValue::Var(v) => self.read_var(v),
            LValue::Index { base, index } => {
                let i = self.expr(index)?.as_i();
                let id = base.vid().index();
                let elem_ft = match self.func.vars[id].ty {
                    Type::Array(ElemTy::Float(ft)) => ft,
                    _ => FloatTy::F64,
                };
                match &self.env[id] {
                    Slot::FA(vals, idxs) => {
                        let n = vals.len();
                        if i < 0 || i as usize >= n {
                            return Err(AdaptError::Runtime(format!(
                                "index {i} out of bounds (len {n})"
                            )));
                        }
                        Ok(TVal::F(vals[i as usize], idxs[i as usize], elem_ft))
                    }
                    Slot::IA(vals) => {
                        let n = vals.len();
                        if i < 0 || i as usize >= n {
                            return Err(AdaptError::Runtime(format!(
                                "index {i} out of bounds (len {n})"
                            )));
                        }
                        Ok(TVal::I(vals[i as usize]))
                    }
                    _ => Err(AdaptError::Runtime(format!(
                        "`{}` is not an array",
                        base.name
                    ))),
                }
            }
        }
    }

    fn read_var(&mut self, v: &VarRef) -> Result<TVal, AdaptError> {
        let id = v.vid().index();
        let prec = match self.func.vars[id].ty {
            Type::Float(ft) => ft,
            _ => FloatTy::F64,
        };
        match &self.env[id] {
            Slot::F(val, idx) => Ok(TVal::F(*val, *idx, prec)),
            Slot::I(val) => Ok(TVal::I(*val)),
            Slot::B(val) => Ok(TVal::B(*val)),
            Slot::Unset => Ok(TVal::F(0.0, None, prec)),
            _ => Err(AdaptError::Runtime(format!(
                "array `{}` read as scalar",
                v.name
            ))),
        }
    }

    fn write_lvalue(&mut self, lv: &LValue, val: TVal) -> Result<(), AdaptError> {
        match lv {
            LValue::Var(v) => self.assign_scalar(v.vid().index(), val),
            LValue::Index { base, index } => {
                let i = self.expr(index)?.as_i();
                let id = base.vid().index();
                let name = base.name.clone();
                // Element precision.
                let elem_ft = match self.func.vars[id].ty {
                    Type::Array(ElemTy::Float(ft)) => Some(ft),
                    _ => None,
                };
                match &mut self.env[id] {
                    Slot::FA(vals, idxs) => {
                        let n = vals.len();
                        if i < 0 || i as usize >= n {
                            return Err(AdaptError::Runtime(format!(
                                "index {i} out of bounds (len {n})"
                            )));
                        }
                        let (v, idx, _) = val.as_f();
                        let v = round_to(v, elem_ft.unwrap_or(FloatTy::F64));
                        let e = self.tape.record(Entry {
                            a: idx.map(|j| (j, 1.0)),
                            b: None,
                            value: v,
                        })?;
                        vals[i as usize] = v;
                        idxs[i as usize] = Some(e);
                        self.mark(e, &name);
                        Ok(())
                    }
                    Slot::IA(vals) => {
                        let n = vals.len();
                        if i < 0 || i as usize >= n {
                            return Err(AdaptError::Runtime(format!(
                                "index {i} out of bounds (len {n})"
                            )));
                        }
                        vals[i as usize] = val.as_i();
                        Ok(())
                    }
                    _ => Err(AdaptError::Runtime(format!("`{name}` is not an array"))),
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<TVal, AdaptError> {
        self.tick()?;
        match &e.kind {
            ExprKind::FloatLit(v) => {
                let prec = match e.ty {
                    Some(Type::Float(ft)) => ft,
                    _ => FloatTy::F64,
                };
                Ok(TVal::F(*v, None, prec))
            }
            ExprKind::IntLit(v) => Ok(TVal::I(*v)),
            ExprKind::BoolLit(b) => Ok(TVal::B(*b)),
            ExprKind::Var(v) => self.read_var(v),
            ExprKind::Index { base, index } => {
                let lv = LValue::Index {
                    base: base.clone(),
                    index: (**index).clone(),
                };
                self.read_lvalue(&lv)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.expr(operand)?;
                match op {
                    UnOp::Neg => match v {
                        TVal::F(x, idx, p) => {
                            let r = -x;
                            let i = match idx {
                                Some(j) => Some(self.tape.record(Entry {
                                    a: Some((j, -1.0)),
                                    b: None,
                                    value: r,
                                })?),
                                None => None,
                            };
                            Ok(TVal::F(r, i, p))
                        }
                        TVal::I(x) => Ok(TVal::I(x.wrapping_neg())),
                        TVal::B(_) => Err(AdaptError::Runtime("negate bool".into())),
                    },
                    UnOp::Not => Ok(TVal::B(!v.as_b())),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                if op.is_logic() {
                    let l = self.expr(lhs)?.as_b();
                    return match op {
                        BinOp::And => {
                            if !l {
                                Ok(TVal::B(false))
                            } else {
                                Ok(TVal::B(self.expr(rhs)?.as_b()))
                            }
                        }
                        BinOp::Or => {
                            if l {
                                Ok(TVal::B(true))
                            } else {
                                Ok(TVal::B(self.expr(rhs)?.as_b()))
                            }
                        }
                        _ => unreachable!(),
                    };
                }
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                self.binop(*op, a, b)
            }
            ExprKind::Call {
                callee: Callee::Intrinsic(i),
                args,
            } => {
                let vals: Vec<TVal> = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                self.intrinsic(*i, &vals)
            }
            ExprKind::Call {
                callee: Callee::Func(n),
                ..
            } => Err(AdaptError::Unsupported(format!(
                "user call `{n}` (inline first)"
            ))),
            ExprKind::Cast { ty, expr } => {
                let v = self.expr(expr)?;
                match ty {
                    Type::Float(ft) => {
                        let (x, idx, p) = v.as_f();
                        if p.fits_in(*ft) {
                            // A cast to a precision holding every value
                            // of `p` is exact.
                            return Ok(TVal::F(x, idx, *ft));
                        }
                        let r = round_to(x, *ft);
                        let i = match idx {
                            Some(j) => Some(self.tape.record(Entry {
                                a: Some((j, 1.0)),
                                b: None,
                                value: r,
                            })?),
                            None => None,
                        };
                        Ok(TVal::F(r, i, *ft))
                    }
                    Type::Int => match v {
                        TVal::F(x, ..) => Ok(TVal::I(x as i64)),
                        TVal::I(x) => Ok(TVal::I(x)),
                        TVal::B(_) => Err(AdaptError::Runtime("bool cast".into())),
                    },
                    _ => Err(AdaptError::Unsupported("cast target".into())),
                }
            }
        }
    }

    fn binop(&mut self, op: BinOp, a: TVal, b: TVal) -> Result<TVal, AdaptError> {
        use BinOp::*;
        if op.is_cmp() {
            let r = if matches!(a, TVal::F(..)) || matches!(b, TVal::F(..)) {
                let (x, ..) = a.as_f();
                let (y, ..) = b.as_f();
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (a.as_i(), b.as_i());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            };
            return Ok(TVal::B(r));
        }
        if let Some(Type::Float(prec)) = precision::arith(a.ty(), b.ty()) {
            let (x, xi, _) = a.as_f();
            let (y, yi, _) = b.as_f();
            let (raw, da, db) = match op {
                Add => (x + y, 1.0, 1.0),
                Sub => (x - y, 1.0, -1.0),
                Mul => (x * y, y, x),
                Div => (x / y, 1.0 / y, -x / (y * y)),
                Rem => return Err(AdaptError::Runtime("float %".into())),
                _ => unreachable!(),
            };
            let value = round_to(raw, prec);
            let idx = if xi.is_some() || yi.is_some() {
                Some(self.tape.record(Entry {
                    a: xi.map(|j| (j, da)),
                    b: yi.map(|j| (j, db)),
                    value,
                })?)
            } else {
                None
            };
            Ok(TVal::F(value, idx, prec))
        } else {
            let (x, y) = (a.as_i(), b.as_i());
            let r = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(AdaptError::Runtime("integer division by zero".into()));
                    }
                    x.wrapping_div(y)
                }
                Rem => {
                    if y == 0 {
                        return Err(AdaptError::Runtime("integer remainder by zero".into()));
                    }
                    x.wrapping_rem(y)
                }
                _ => unreachable!(),
            };
            Ok(TVal::I(r))
        }
    }

    fn intrinsic(&mut self, i: Intrinsic, vals: &[TVal]) -> Result<TVal, AdaptError> {
        let prec = precision::intrinsic(vals.iter().map(|v| v.ty()));
        if i.arity() == 2 {
            let (x, xi, _) = vals[0].as_f();
            let (y, yi, _) = vals[1].as_f();
            let value = round_to(chef_exec::intrinsics::eval2(i, x, y), prec);
            let (da, db) = match i {
                Intrinsic::Pow => (y * x.powf(y - 1.0), x.powf(y) * x.ln()),
                Intrinsic::Fmin => {
                    if x <= y {
                        (1.0, 0.0)
                    } else {
                        (0.0, 1.0)
                    }
                }
                Intrinsic::Fmax => {
                    if x >= y {
                        (1.0, 0.0)
                    } else {
                        (0.0, 1.0)
                    }
                }
                _ => unreachable!(),
            };
            let idx = if xi.is_some() || yi.is_some() {
                Some(self.tape.record(Entry {
                    a: xi.map(|j| (j, da)),
                    b: yi.map(|j| (j, db)),
                    value,
                })?)
            } else {
                None
            };
            return Ok(TVal::F(value, idx, prec));
        }
        let (x, xi, _) = vals[0].as_f();
        let value = round_to(chef_exec::intrinsics::eval1(i, x), prec);
        let d = numeric_derivative(i, x);
        let idx = match xi {
            Some(j) => Some(self.tape.record(Entry {
                a: Some((j, d)),
                b: None,
                value,
            })?),
            None => None,
        };
        Ok(TVal::F(value, idx, prec))
    }

    fn finish(self, value: f64, ret_idx: Option<EntryIdx>) -> Result<AdaptOutcome, AdaptError> {
        let tape_entries = self.tape.len();
        // Peak memory: the tape plus the adjoint vector of the reverse
        // interpretation.
        let tape_peak_bytes = self.tape.bytes() + tape_entries * 8;
        let adj = match ret_idx {
            Some(idx) => self.tape.reverse(idx),
            None => vec![0.0; tape_entries],
        };
        let gap = |v: f64| match self.opts.formula {
            Formula::Demotion(ft) => demotion_error(v, ft).abs(),
            Formula::Epsilon(ft) => ft.epsilon() * v.abs(),
        };
        let mut fp_error = 0.0;
        let mut per_variable: HashMap<String, f64> = HashMap::new();
        for &(idx, slot) in &self.marks {
            let contribution = (adj[idx as usize]).abs() * gap(self.tape.value(idx));
            fp_error += contribution;
            if slot != RESULT_SLOT {
                *per_variable
                    .entry(self.slot_names[slot as usize].clone())
                    .or_insert(0.0) += contribution;
            }
        }
        let gradient = self
            .inputs
            .iter()
            .map(|(name, idx)| {
                let v = match idx {
                    InputIdx::Scalar(i) => ArgValue::F(adj[*i as usize]),
                    InputIdx::Array(is) => {
                        ArgValue::FArr(is.iter().map(|i| adj[*i as usize]).collect())
                    }
                };
                (name.clone(), v)
            })
            .collect();
        Ok(AdaptOutcome {
            value,
            fp_error,
            per_variable,
            gradient,
            tape_entries,
            tape_peak_bytes,
            ops_executed: self.ops,
        })
    }
}

/// Numeric derivative of a unary intrinsic at `x` (runtime values — the
/// tracing tool's equivalent of `chef-ad`'s symbolic rules).
fn numeric_derivative(i: Intrinsic, x: f64) -> f64 {
    match i {
        Intrinsic::Sin => x.cos(),
        Intrinsic::Cos => -x.sin(),
        Intrinsic::Tan => {
            let c = x.cos();
            1.0 / (c * c)
        }
        Intrinsic::Exp | Intrinsic::FastExp | Intrinsic::FasterExp => x.exp(),
        Intrinsic::Log | Intrinsic::FastLog => 1.0 / x,
        Intrinsic::Exp2 => x.exp2() * std::f64::consts::LN_2,
        Intrinsic::Log2 => 1.0 / (x * std::f64::consts::LN_2),
        Intrinsic::Sqrt | Intrinsic::FastSqrt => 0.5 / x.sqrt(),
        Intrinsic::Fabs => {
            if x >= 0.0 {
                1.0
            } else {
                -1.0
            }
        }
        Intrinsic::Floor | Intrinsic::Ceil => 0.0,
        Intrinsic::Erf => 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp(),
        Intrinsic::Erfc => -2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp(),
        Intrinsic::NormCdf | Intrinsic::FastNormCdf => {
            (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
        }
        Intrinsic::Tanh => {
            let t = x.tanh();
            1.0 - t * t
        }
        Intrinsic::Sinh => x.cosh(),
        Intrinsic::Cosh => x.sinh(),
        Intrinsic::Atan => 1.0 / (1.0 + x * x),
        Intrinsic::Pow | Intrinsic::Fmin | Intrinsic::Fmax => unreachable!("binary"),
    }
}

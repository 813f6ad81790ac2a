//! The KernelC abstract syntax tree.
//!
//! This AST plays the role Clang's AST plays for Clad: it is the typed,
//! source-located representation on which the AD transformation
//! (`chef-ad`), the optimization passes (`chef-passes`) and the error
//! estimation module (`chef-core`) all operate.
//!
//! Two node kinds exist only in *generated* code and are never produced by
//! the parser: [`StmtKind::TapePush`] and [`StmtKind::TapePop`]. They are
//! the `Push(out(Li))` / `Pop(out(Li))` operations of the paper's Fig. 2 —
//! the LIFO state-restoration mechanism of the adjoint's forward and
//! backward sweeps.

use crate::span::Span;
use crate::types::{ElemTy, FloatTy, Type};
use std::fmt;

/// Variable names. Plain strings: KernelC programs are small enough that
/// interning buys nothing over clarity.
pub type Symbol = String;

/// A unique variable identity within one function, assigned by the type
/// checker. Parameters come first (`0..#params`), then locals in
/// declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The index as `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A reference to a variable by name, resolved to a [`VarId`] by typeck.
#[derive(Clone, Debug, PartialEq)]
pub struct VarRef {
    /// Source-level name.
    pub name: Symbol,
    /// Resolved identity (`None` before type checking).
    pub id: Option<VarId>,
    /// Where the reference appears.
    pub span: Span,
}

impl VarRef {
    /// An unresolved reference (parser output / builder input).
    pub fn new(name: impl Into<Symbol>, span: Span) -> Self {
        VarRef {
            name: name.into(),
            id: None,
            span,
        }
    }

    /// A resolved reference (used by generated code).
    pub fn resolved(name: impl Into<Symbol>, id: VarId) -> Self {
        VarRef {
            name: name.into(),
            id: Some(id),
            span: Span::DUMMY,
        }
    }

    /// The resolved id; panics if typeck has not run.
    pub fn vid(&self) -> VarId {
        self.id
            .unwrap_or_else(|| panic!("variable `{}` not resolved", self.name))
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!b`.
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// `true` for `+ - * / %`.
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// `true` for comparison operators.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// `true` for `&&`/`||`.
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Operator lexeme.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Built-in math functions.
///
/// Each intrinsic has an exact semantic (the Rust `std` math function) and,
/// where the FastApprox library provides one, an approximate counterpart
/// used by the approximation-error analysis (paper §IV-5, Algorithm 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Intrinsic {
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `tan(x)`
    Tan,
    /// `exp(x)`
    Exp,
    /// `log(x)` (natural)
    Log,
    /// `exp2(x)`
    Exp2,
    /// `log2(x)`
    Log2,
    /// `sqrt(x)`
    Sqrt,
    /// `pow(x, y)`
    Pow,
    /// `fabs(x)`
    Fabs,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `fmin(x, y)`
    Fmin,
    /// `fmax(x, y)`
    Fmax,
    /// `erf(x)`
    Erf,
    /// `erfc(x)`
    Erfc,
    /// `normcdf(x)` — standard normal CDF (the CNDF of Black-Scholes)
    NormCdf,
    /// `tanh(x)`
    Tanh,
    /// `sinh(x)`
    Sinh,
    /// `cosh(x)`
    Cosh,
    /// `atan(x)`
    Atan,
    /// `fastexp(x)` — FastApprox `e^x` (~1e-4 relative error)
    FastExp,
    /// `fasterexp(x)` — FastApprox coarse `e^x` (~1e-2 relative error)
    FasterExp,
    /// `fastlog(x)` — FastApprox natural log
    FastLog,
    /// `fastsqrt(x)` — FastApprox square root
    FastSqrt,
    /// `fastnormcdf(x)` — FastApprox standard normal CDF
    FastNormCdf,
}

impl Intrinsic {
    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow | Intrinsic::Fmin | Intrinsic::Fmax => 2,
            _ => 1,
        }
    }

    /// Source-level name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Tan => "tan",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Exp2 => "exp2",
            Intrinsic::Log2 => "log2",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Pow => "pow",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Floor => "floor",
            Intrinsic::Ceil => "ceil",
            Intrinsic::Fmin => "fmin",
            Intrinsic::Fmax => "fmax",
            Intrinsic::Erf => "erf",
            Intrinsic::Erfc => "erfc",
            Intrinsic::NormCdf => "normcdf",
            Intrinsic::Tanh => "tanh",
            Intrinsic::Sinh => "sinh",
            Intrinsic::Cosh => "cosh",
            Intrinsic::Atan => "atan",
            Intrinsic::FastExp => "fastexp",
            Intrinsic::FasterExp => "fasterexp",
            Intrinsic::FastLog => "fastlog",
            Intrinsic::FastSqrt => "fastsqrt",
            Intrinsic::FastNormCdf => "fastnormcdf",
        }
    }

    /// Looks an intrinsic up by source name.
    pub fn from_name(s: &str) -> Option<Intrinsic> {
        Some(match s {
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "tan" => Intrinsic::Tan,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "exp2" => Intrinsic::Exp2,
            "log2" => Intrinsic::Log2,
            "sqrt" => Intrinsic::Sqrt,
            "pow" => Intrinsic::Pow,
            "fabs" => Intrinsic::Fabs,
            "floor" => Intrinsic::Floor,
            "ceil" => Intrinsic::Ceil,
            "fmin" => Intrinsic::Fmin,
            "fmax" => Intrinsic::Fmax,
            "erf" => Intrinsic::Erf,
            "erfc" => Intrinsic::Erfc,
            "normcdf" => Intrinsic::NormCdf,
            "tanh" => Intrinsic::Tanh,
            "sinh" => Intrinsic::Sinh,
            "cosh" => Intrinsic::Cosh,
            "atan" => Intrinsic::Atan,
            "fastexp" => Intrinsic::FastExp,
            "fasterexp" => Intrinsic::FasterExp,
            "fastlog" => Intrinsic::FastLog,
            "fastsqrt" => Intrinsic::FastSqrt,
            "fastnormcdf" => Intrinsic::FastNormCdf,
            _ => return None,
        })
    }

    /// All intrinsics (for exhaustive testing).
    pub const ALL: [Intrinsic; 26] = [
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Tan,
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Exp2,
        Intrinsic::Log2,
        Intrinsic::Sqrt,
        Intrinsic::Pow,
        Intrinsic::Fabs,
        Intrinsic::Floor,
        Intrinsic::Ceil,
        Intrinsic::Fmin,
        Intrinsic::Fmax,
        Intrinsic::Erf,
        Intrinsic::Erfc,
        Intrinsic::NormCdf,
        Intrinsic::Tanh,
        Intrinsic::Sinh,
        Intrinsic::Cosh,
        Intrinsic::Atan,
        Intrinsic::FastExp,
        Intrinsic::FasterExp,
        Intrinsic::FastLog,
        Intrinsic::FastSqrt,
        Intrinsic::FastNormCdf,
    ];
}

/// Call target: a built-in math intrinsic or a user-defined function.
#[derive(Clone, Debug, PartialEq)]
pub enum Callee {
    /// Built-in math function.
    Intrinsic(Intrinsic),
    /// User-defined function in the same [`Program`].
    Func(Symbol),
}

impl Callee {
    /// Name of the target for printing/diagnostics.
    pub fn name(&self) -> &str {
        match self {
            Callee::Intrinsic(i) => i.name(),
            Callee::Func(s) => s,
        }
    }
}

/// An expression node: kind, source span, and the type filled in by typeck.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// Type, populated by the type checker (or by generated-code builders).
    pub ty: Option<Type>,
}

/// Expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Floating literal (stored as f64, typed `double` by default).
    FloatLit(f64),
    /// Integer literal.
    IntLit(i64),
    /// Boolean literal.
    BoolLit(bool),
    /// Variable read.
    Var(VarRef),
    /// Array element read `a[i]`.
    Index {
        /// The array variable.
        base: VarRef,
        /// Element index (int-typed).
        index: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Call to an intrinsic or user function.
    Call {
        /// The target.
        callee: Callee,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Value cast `(float)x` — rounds to the target precision and back.
    /// Central to the ADAPT error model `x̄ · (x − (float)x)` (eq. 2).
    Cast {
        /// Target type (must be a scalar type).
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// Creates an untyped expression node.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr {
            kind,
            span,
            ty: None,
        }
    }

    /// Creates a typed expression node (generated code).
    pub fn typed(kind: ExprKind, ty: Type) -> Self {
        Expr {
            kind,
            span: Span::DUMMY,
            ty: Some(ty),
        }
    }

    /// The checked type; panics if typeck has not run over this node.
    pub fn type_of(&self) -> Type {
        self.ty
            .unwrap_or_else(|| panic!("untyped expression: {:?}", self.kind))
    }

    /// Float literal helper (typed `double`).
    pub fn flit(v: f64) -> Expr {
        Expr::typed(ExprKind::FloatLit(v), Type::Float(FloatTy::F64))
    }

    /// Int literal helper.
    pub fn ilit(v: i64) -> Expr {
        Expr::typed(ExprKind::IntLit(v), Type::Int)
    }

    /// Variable-read helper for resolved ids (generated code).
    pub fn var(name: impl Into<Symbol>, id: VarId, ty: Type) -> Expr {
        Expr::typed(ExprKind::Var(VarRef::resolved(name, id)), ty)
    }

    /// Array-read helper for resolved ids (generated code).
    pub fn index(name: impl Into<Symbol>, id: VarId, idx: Expr, elem: Type) -> Expr {
        Expr::typed(
            ExprKind::Index {
                base: VarRef::resolved(name, id),
                index: Box::new(idx),
            },
            elem,
        )
    }

    /// Binary-op helper; result type by [`crate::precision::arith`]
    /// (panics on non-numeric).
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        let ty = if op.is_arith() {
            crate::precision::arith(lhs.type_of(), rhs.type_of())
                .unwrap_or_else(|| panic!("bad promote {:?} {:?}", lhs.ty, rhs.ty))
        } else {
            Type::Bool
        };
        Expr::typed(
            ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            ty,
        )
    }

    /// `lhs + rhs`
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, lhs, rhs)
    }

    /// `lhs / rhs`
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, lhs, rhs)
    }

    /// `-operand`
    pub fn neg(operand: Expr) -> Expr {
        let ty = operand.type_of();
        Expr::typed(
            ExprKind::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
            },
            ty,
        )
    }

    /// Intrinsic call helper; result precision by
    /// [`crate::precision::intrinsic`].
    pub fn call(i: Intrinsic, args: Vec<Expr>) -> Expr {
        debug_assert_eq!(args.len(), i.arity(), "intrinsic {} arity", i.name());
        let ty = Type::Float(crate::precision::intrinsic(args.iter().map(Expr::type_of)));
        Expr::typed(
            ExprKind::Call {
                callee: Callee::Intrinsic(i),
                args,
            },
            ty,
        )
    }

    /// Cast helper.
    pub fn cast(ty: Type, e: Expr) -> Expr {
        Expr::typed(
            ExprKind::Cast {
                ty,
                expr: Box::new(e),
            },
            ty,
        )
    }
}

/// Assignable location: a scalar variable or an array element.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(VarRef),
    /// Array element `a[i]`.
    Index {
        /// The array variable.
        base: VarRef,
        /// Element index expression.
        index: Expr,
    },
}

impl LValue {
    /// The variable being written (the array itself for element writes).
    pub fn var(&self) -> &VarRef {
        match self {
            LValue::Var(v) => v,
            LValue::Index { base, .. } => base,
        }
    }

    /// Span of the whole lvalue.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(v) => v.span,
            LValue::Index { base, index } => base.span.to(index.span),
        }
    }

    /// Reads this lvalue as an expression of type `ty`.
    pub fn to_expr(&self, ty: Type) -> Expr {
        match self {
            LValue::Var(v) => Expr::typed(ExprKind::Var(v.clone()), ty),
            LValue::Index { base, index } => Expr::typed(
                ExprKind::Index {
                    base: base.clone(),
                    index: Box::new(index.clone()),
                },
                ty,
            ),
        }
    }
}

/// Compound-assignment operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
}

impl AssignOp {
    /// The underlying binary operator for compound assignments.
    pub fn binop(self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::DivAssign => Some(BinOp::Div),
        }
    }

    /// Lexeme.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
            AssignOp::DivAssign => "/=",
        }
    }
}

/// A statement node.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Creates a statement with a real span.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }

    /// Creates a synthesized (generated) statement.
    pub fn synth(kind: StmtKind) -> Self {
        Stmt {
            kind,
            span: Span::DUMMY,
        }
    }
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// Variable declaration, optionally array-sized and/or initialized:
    /// `double x = e;`, `double r[n];`, `int k;`.
    Decl {
        /// Declared name.
        name: Symbol,
        /// Resolved id (filled by typeck).
        id: Option<VarId>,
        /// Declared type (array types come from the `[size]` suffix).
        ty: Type,
        /// Array length expression for local arrays.
        size: Option<Expr>,
        /// Scalar initializer.
        init: Option<Expr>,
    },
    /// Assignment `lhs op rhs`.
    Assign {
        /// Target location.
        lhs: LValue,
        /// `=`, `+=`, …
        op: AssignOp,
        /// Right-hand side.
        rhs: Expr,
    },
    /// Conditional.
    If {
        /// Condition (bool).
        cond: Expr,
        /// Then-branch.
        then_branch: Block,
        /// Optional else-branch.
        else_branch: Option<Block>,
    },
    /// C-style `for (init; cond; step) body`.
    For {
        /// Init statement (decl or assignment), if any.
        init: Option<Box<Stmt>>,
        /// Loop condition, if any (absent = infinite).
        cond: Option<Expr>,
        /// Step statement, if any.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// A nested block `{ … }`.
    Block(Block),
    /// Expression statement (a call evaluated for effect).
    ExprStmt(Expr),
    /// Generated: push a scalar value onto the runtime tape
    /// (`Push(out(Li))` of Fig. 2).
    TapePush(Expr),
    /// Generated: pop the top of the tape into a location
    /// (`Pop(out(Li))` of Fig. 2).
    TapePop(LValue),
}

/// A `{ … }` sequence of statements.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Source span of the whole block.
    pub span: Span,
}

impl Block {
    /// Creates a block from statements (synthesized span).
    pub fn of(stmts: Vec<Stmt>) -> Self {
        Block {
            stmts,
            span: Span::DUMMY,
        }
    }

    /// An empty block.
    pub fn empty() -> Self {
        Block::default()
    }
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Resolved id (filled by typeck; params get the first ids).
    pub id: Option<VarId>,
    /// Parameter type. Arrays are always passed by reference.
    pub ty: Type,
    /// `true` for `double &x` scalar out-parameters (used by generated
    /// gradients for `_d_x` outputs and the `_fp_error` accumulator).
    pub by_ref: bool,
    /// Source location.
    pub span: Span,
}

impl Param {
    /// Scalar by-value parameter.
    pub fn scalar(name: impl Into<Symbol>, ty: Type) -> Self {
        Param {
            name: name.into(),
            id: None,
            ty,
            by_ref: false,
            span: Span::DUMMY,
        }
    }

    /// Scalar by-reference (out) parameter.
    pub fn by_ref(name: impl Into<Symbol>, ty: Type) -> Self {
        Param {
            name: name.into(),
            id: None,
            ty,
            by_ref: true,
            span: Span::DUMMY,
        }
    }

    /// Array parameter (always by reference).
    pub fn array(name: impl Into<Symbol>, elem: ElemTy) -> Self {
        Param {
            name: name.into(),
            id: None,
            ty: Type::Array(elem),
            by_ref: true,
            span: Span::DUMMY,
        }
    }
}

/// Metadata for one variable of a function, indexed by [`VarId`].
/// Built by the type checker; generated code extends it.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    /// Source-level name (unique per function after typeck renaming).
    pub name: Symbol,
    /// The variable's type.
    pub ty: Type,
    /// `true` if the variable is a parameter.
    pub is_param: bool,
    /// Declaration site.
    pub span: Span,
}

/// A KernelC function.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Symbol,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Type,
    /// Body.
    pub body: Block,
    /// Source location of the whole definition.
    pub span: Span,
    /// Variable table indexed by [`VarId`]; empty before typeck.
    pub vars: Vec<VarInfo>,
}

impl Function {
    /// Looks up variable metadata by id. Panics on out-of-range ids.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Registers a fresh (generated) variable and returns its id.
    pub fn add_var(&mut self, name: impl Into<Symbol>, ty: Type) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.into(),
            ty,
            is_param: false,
            span: Span::DUMMY,
        });
        id
    }

    /// Iterator over `(VarId, &VarInfo)` pairs.
    pub fn vars_iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }

    /// Finds a parameter's resolved [`VarId`] by name.
    pub fn param_id(&self, name: &str) -> Option<VarId> {
        self.params
            .iter()
            .find(|p| p.name == name)
            .and_then(|p| p.id)
    }
}

/// A whole translation unit: a set of functions.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Functions in definition order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates a program from a list of functions.
    pub fn of(functions: Vec<Function>) -> Self {
        Program { functions }
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_name_round_trip() {
        for i in Intrinsic::ALL {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("nosuch"), None);
    }

    #[test]
    fn intrinsic_arities() {
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::Fmin.arity(), 2);
        assert_eq!(Intrinsic::Sin.arity(), 1);
    }

    #[test]
    fn expr_builders_type_correctly() {
        let x = Expr::var("x", VarId(0), Type::Float(FloatTy::F64));
        let y = Expr::var("y", VarId(1), Type::Float(FloatTy::F32));
        let s = Expr::add(x, y);
        assert_eq!(s.type_of(), Type::Float(FloatTy::F64));
        let c = Expr::binary(BinOp::Lt, s.clone(), Expr::flit(1.0));
        assert_eq!(c.type_of(), Type::Bool);
        let call = Expr::call(Intrinsic::Sqrt, vec![s]);
        assert_eq!(call.type_of(), Type::Float(FloatTy::F64));
    }

    #[test]
    fn assign_op_binop_mapping() {
        assert_eq!(AssignOp::Assign.binop(), None);
        assert_eq!(AssignOp::AddAssign.binop(), Some(BinOp::Add));
        assert_eq!(AssignOp::DivAssign.binop(), Some(BinOp::Div));
    }

    #[test]
    fn lvalue_to_expr_round_trip() {
        let lv = LValue::Var(VarRef::resolved("x", VarId(3)));
        let e = lv.to_expr(Type::Float(FloatTy::F64));
        match e.kind {
            ExprKind::Var(v) => assert_eq!(v.id, Some(VarId(3))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_var_registration() {
        let mut f = Function {
            name: "f".into(),
            params: vec![],
            ret: Type::Void,
            body: Block::empty(),
            span: Span::DUMMY,
            vars: vec![],
        };
        let a = f.add_var("a", Type::Float(FloatTy::F64));
        let b = f.add_var("b", Type::Int);
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        assert_eq!(f.var(b).ty, Type::Int);
    }
}

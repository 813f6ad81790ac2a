//! Constant folding and (IEEE-safe) algebraic simplification.
//!
//! The paper's speed argument is that inlined error-estimation code
//! "becomes a candidate for further compiler optimizations". This pass is
//! the first of those: it evaluates literal subtrees at compile time and
//! applies only *value-preserving* identities. Unsafe rewrites of the
//! `-ffast-math` family (reassociation, `x*0 → 0`, `x-x → 0`) are
//! deliberately excluded — §V-B of the paper warns that exactly those
//! optimizations change the FP error behaviour being analyzed.

use chef_ir::ast::*;
use chef_ir::precision::{self, round_to};
use chef_ir::types::{FloatTy, Type};
use chef_ir::visit::{walk_expr_mut, MutVisitor};

/// Runs constant folding + safe algebraic simplification over a function.
/// Returns `true` if anything changed.
pub fn fold_function(f: &mut Function) -> bool {
    let mut v = Folder { changed: false };
    v.visit_block_mut(&mut f.body);
    v.changed
}

struct Folder {
    changed: bool,
}

impl MutVisitor for Folder {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        // Children first (bottom-up folding).
        walk_expr_mut(self, e);
        if let Some(new) = fold_expr(e) {
            *e = new;
            self.changed = true;
        }
    }

    fn visit_stmt_mut(&mut self, s: &mut Stmt) {
        chef_ir::visit::walk_stmt_mut(self, s);
        // `if (true) …` / `if (false) …` → keep only the taken branch.
        if let StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } = &mut s.kind
        {
            if let ExprKind::BoolLit(b) = cond.kind {
                let taken = if b {
                    std::mem::take(then_branch)
                } else {
                    else_branch.take().unwrap_or_default()
                };
                s.kind = StmtKind::Block(taken);
                self.changed = true;
            }
        }
        // `while (false) …` → nothing.
        if let StmtKind::While { cond, .. } = &s.kind {
            if matches!(cond.kind, ExprKind::BoolLit(false)) {
                s.kind = StmtKind::Block(Block::empty());
                self.changed = true;
            }
        }
    }
}

/// Attempts to rewrite one (already children-folded) expression node.
fn fold_expr(e: &Expr) -> Option<Expr> {
    let ty = e.ty;
    let span = e.span;
    let mk = |kind: ExprKind| Expr { kind, span, ty };
    match &e.kind {
        ExprKind::Unary { op, operand } => match (op, &operand.kind) {
            (UnOp::Neg, ExprKind::FloatLit(v)) => Some(mk(ExprKind::FloatLit(-v))),
            (UnOp::Neg, ExprKind::IntLit(v)) => Some(mk(ExprKind::IntLit(v.wrapping_neg()))),
            (UnOp::Not, ExprKind::BoolLit(b)) => Some(mk(ExprKind::BoolLit(!b))),
            // -(-x) → x ; !(!b) → b (exact for IEEE negation).
            (
                UnOp::Neg,
                ExprKind::Unary {
                    op: UnOp::Neg,
                    operand: inner,
                },
            )
            | (
                UnOp::Not,
                ExprKind::Unary {
                    op: UnOp::Not,
                    operand: inner,
                },
            ) => Some((**inner).clone()),
            _ => None,
        },
        ExprKind::Binary { op, lhs, rhs } => fold_binary(*op, lhs, rhs, ty, &mk),
        // A cast of a literal rounds it to the target precision.
        ExprKind::Cast { ty: target, expr } => match (&expr.kind, target) {
            (ExprKind::FloatLit(v), Type::Float(ft)) => {
                Some(mk(ExprKind::FloatLit(round_to(*v, *ft))))
            }
            (ExprKind::IntLit(v), Type::Float(ft)) => {
                Some(mk(ExprKind::FloatLit(round_to(*v as f64, *ft))))
            }
            (ExprKind::FloatLit(v), Type::Int) if v.is_finite() => {
                Some(mk(ExprKind::IntLit(*v as i64)))
            }
            (ExprKind::IntLit(v), Type::Int) => Some(mk(ExprKind::IntLit(*v))),
            _ => None,
        },
        _ => None,
    }
}

fn fold_binary(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    ty: Option<Type>,
    mk: &dyn Fn(ExprKind) -> Expr,
) -> Option<Expr> {
    use ExprKind::*;
    let num = |e: &Expr| match e.kind {
        FloatLit(v) => Some(v),
        IntLit(v) => Some(v as f64),
        _ => None,
    };
    // Literal ⊕ literal.
    match (&lhs.kind, &rhs.kind) {
        (IntLit(a), IntLit(b)) => {
            return fold_int_binop(op, *a, *b).map(mk);
        }
        (FloatLit(_) | IntLit(_), FloatLit(_) | IntLit(_)) => {
            // Rounded where the program would round it: at the precision
            // of the operands' arithmetic (an untyped one counts as double).
            let ty_of = |e: &Expr| e.ty.unwrap_or(Type::Float(FloatTy::F64));
            let prec = match precision::arith(ty_of(lhs), ty_of(rhs)) {
                Some(Type::Float(p)) => p,
                _ => FloatTy::F64,
            };
            return fold_float_binop(op, num(lhs)?, num(rhs)?, prec).map(mk);
        }
        (BoolLit(a), BoolLit(b)) => {
            let v = match op {
                BinOp::And => *a && *b,
                BinOp::Or => *a || *b,
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                _ => return None,
            };
            return Some(mk(BoolLit(v)));
        }
        _ => {}
    }
    // IEEE-safe identities. `x + (-0.0)`, `(-0.0) + x`, `x - 0.0`,
    // `x * 1.0` and `x / 1.0` are exact for every x including NaN,
    // infinities and both zeros. `x + 0.0` is not: `-0.0 + 0.0` is
    // `+0.0`; nor is `0.0 - x`, which is not `-x` for x = 0.0. An int
    // sum still folds `n + 0`. The operand replaces the node only if it
    // has the node's type: `n - 0.0` must stay a float and
    // `(x - 0.0) * y` must keep computing at double for a `float` x.
    let zero = |e: &Expr| num(e).is_some_and(|v| v.to_bits() == 0);
    let add_identity = |e: &Expr| match e.kind {
        FloatLit(v) => v.to_bits() == (-0.0f64).to_bits(),
        IntLit(v) => v == 0 && ty == Some(Type::Int),
        _ => false,
    };
    let one = |e: &Expr| num(e) == Some(1.0);
    let keep = |e: &Expr| (ty.is_some() && e.ty == ty).then(|| e.clone());
    match op {
        BinOp::Add if add_identity(rhs) => return keep(lhs),
        BinOp::Add if add_identity(lhs) => return keep(rhs),
        BinOp::Sub if zero(rhs) => return keep(lhs),
        BinOp::Mul if one(rhs) => return keep(lhs),
        BinOp::Mul if one(lhs) => return keep(rhs),
        BinOp::Div if one(rhs) => return keep(lhs),
        // b && true → b ; b && false → false (no side effects in KernelC
        // expressions, so dropping the left operand is safe only when it
        // is the one being erased — here we only erase literals).
        BinOp::And => {
            if matches!(rhs.kind, BoolLit(true)) {
                return Some(lhs.clone());
            }
            if matches!(lhs.kind, BoolLit(true)) {
                return Some(rhs.clone());
            }
            if matches!(lhs.kind, BoolLit(false)) {
                return Some(mk(BoolLit(false)));
            }
        }
        BinOp::Or => {
            if matches!(rhs.kind, BoolLit(false)) {
                return Some(lhs.clone());
            }
            if matches!(lhs.kind, BoolLit(false)) {
                return Some(rhs.clone());
            }
            if matches!(lhs.kind, BoolLit(true)) {
                return Some(mk(BoolLit(true)));
            }
        }
        _ => {}
    }
    None
}

fn fold_float_binop(op: BinOp, a: f64, b: f64, prec: FloatTy) -> Option<ExprKind> {
    let r = |v: f64| round_to(v, prec);
    Some(match op {
        BinOp::Add => ExprKind::FloatLit(r(a + b)),
        BinOp::Sub => ExprKind::FloatLit(r(a - b)),
        BinOp::Mul => ExprKind::FloatLit(r(a * b)),
        BinOp::Div => ExprKind::FloatLit(r(a / b)),
        BinOp::Eq => ExprKind::BoolLit(a == b),
        BinOp::Ne => ExprKind::BoolLit(a != b),
        BinOp::Lt => ExprKind::BoolLit(a < b),
        BinOp::Le => ExprKind::BoolLit(a <= b),
        BinOp::Gt => ExprKind::BoolLit(a > b),
        BinOp::Ge => ExprKind::BoolLit(a >= b),
        BinOp::Rem | BinOp::And | BinOp::Or => return None,
    })
}

fn fold_int_binop(op: BinOp, a: i64, b: i64) -> Option<ExprKind> {
    Some(match op {
        BinOp::Add => ExprKind::IntLit(a.wrapping_add(b)),
        BinOp::Sub => ExprKind::IntLit(a.wrapping_sub(b)),
        BinOp::Mul => ExprKind::IntLit(a.wrapping_mul(b)),
        // Division/remainder by zero traps at runtime; keep it visible.
        BinOp::Div if b != 0 => ExprKind::IntLit(a.wrapping_div(b)),
        BinOp::Rem if b != 0 => ExprKind::IntLit(a.wrapping_rem(b)),
        BinOp::Eq => ExprKind::BoolLit(a == b),
        BinOp::Ne => ExprKind::BoolLit(a != b),
        BinOp::Lt => ExprKind::BoolLit(a < b),
        BinOp::Le => ExprKind::BoolLit(a <= b),
        BinOp::Gt => ExprKind::BoolLit(a > b),
        BinOp::Ge => ExprKind::BoolLit(a >= b),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_ir::parser::parse_program;
    use chef_ir::printer::print_function;
    use chef_ir::typeck::check_program;

    fn folded(src: &str) -> String {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        fold_function(&mut p.functions[0]);
        print_function(&p.functions[0])
    }

    #[test]
    fn folds_literal_arithmetic() {
        let s = folded("double f() { return 2.0 * 3.0 + 4.0; }");
        assert!(s.contains("return 10.0;"), "{s}");
    }

    #[test]
    fn folds_nested_and_mixed() {
        let s = folded("double f() { return (1 + 2) * 2.5; }");
        assert!(s.contains("return 7.5;"), "{s}");
    }

    #[test]
    fn identity_mul_one() {
        let s = folded("double f(double x) { return x * 1.0 - 0.0; }");
        assert!(s.contains("return x;"), "{s}");
    }

    #[test]
    fn keeps_int_promotion_with_float_zero() {
        // n - 0.0 must stay a float expression, not collapse to int n.
        let s = folded("double f(int n) { return n - 0.0; }");
        assert!(s.contains("n - 0.0"), "{s}");
    }

    #[test]
    fn does_not_fold_unsafe_identities() {
        // x * 0.0 could hide NaN/Inf; x - x could hide NaN.
        let s = folded("double f(double x) { return x * 0.0 + (x - x); }");
        assert!(s.contains("x * 0.0"), "{s}");
        assert!(s.contains("x - x"), "{s}");
    }

    #[test]
    fn negative_zero_is_not_erased() {
        // `0.0 - x` is not `-x`, and `x + 0.0` is not `x`, for x = ±0.0.
        let s = folded("double f(double x) { return 0.0 - x; }");
        assert!(s.contains("0.0 - x"), "{s}");
        let s = folded("double f(double x) { return 1.0 / (x + 0.0); }");
        assert!(s.contains("x + 0.0"), "{s}");
    }

    #[test]
    fn adding_negative_zero_folds() {
        let s = folded("double f(double x) { return (x + -0.0) * (-0.0 + x); }");
        assert!(s.contains("return x * x;"), "{s}");
        let s = folded("int f(int n) { return n + 0; }");
        assert!(s.contains("return n;"), "{s}");
    }

    #[test]
    fn folds_branches_on_literal_conditions() {
        let s = folded("double f(double x) { if (true) { x = 1.0; } else { x = 2.0; } return x; }");
        assert!(s.contains("x = 1.0;"), "{s}");
        assert!(!s.contains("x = 2.0;"), "{s}");
    }

    #[test]
    fn folds_double_negation() {
        let s = folded("double f(double x) { return -(-x); }");
        assert!(s.contains("return x;"), "{s}");
    }

    #[test]
    fn folds_float_casts() {
        let s = folded("double f() { return (float)0.1; }");
        assert!(s.contains(&format!("return {:?};", 0.1f32 as f64)), "{s}");
    }

    #[test]
    fn folds_half_and_bfloat_literals_at_their_join() {
        let s = folded("double f() { return (half) 0.1 * (bfloat) 3.0; }");
        let want = round_to(round_to(0.1, FloatTy::F16) * 3.0, FloatTy::F32);
        assert!(s.contains(&format!("return {want:?};")), "{s}");
    }

    #[test]
    fn identity_keeps_the_node_type() {
        // `x - 0.0` is double for a float x, so `* y` computes at double.
        let s = folded("double f(float x, float y) { return (x - 0.0) * y; }");
        assert!(s.contains("x - 0.0"), "{s}");
        let s = folded("double f(double x, int n) { return (x - 0.0) * (n * 1); }");
        assert!(s.contains("return x * n;"), "{s}");
    }

    #[test]
    fn does_not_fold_div_by_zero_int() {
        let s = folded("int f() { return 1 / 0; }");
        assert!(s.contains("1 / 0"), "{s}");
    }

    #[test]
    fn folds_comparisons_and_logic() {
        let s = folded("bool f() { return 1.0 < 2.0 && !(3 > 4); }");
        assert!(s.contains("return true;"), "{s}");
    }
}

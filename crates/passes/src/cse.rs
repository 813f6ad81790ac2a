//! Local common-subexpression elimination.
//!
//! Within each block, pure non-trivial subexpressions that occur two or
//! more times with the same operand values are hoisted into a fresh
//! temporary declared before their first occurrence. This is the
//! optimization the paper gets "for free" from Clang once the
//! error-estimation arithmetic is inlined into the adjoint: expressions
//! like `x * y` shared between the primal recomputation, the adjoint
//! update and the error term collapse into one evaluation.
//!
//! Two occurrences match when they are the same expression over the same
//! *versions* of the variables they read. A variable's version is the
//! number of writes to it (assignments, tape pops and declarations, those
//! nested in `if`s and loops included) in the block's earlier
//! statements. A write between two occurrences keeps them apart; a write
//! elsewhere in the block does not, so a backward loop body, which pops
//! its primals from the tape, still shares `cos(k * x)` between the
//! adjoint updates that follow the pop. One pass over the block counts
//! the versions and value-numbers every expression node.
//!
//! Candidates must be call-free of user functions, index-free (array
//! loads may trap and alias stores), and evaluated unconditionally:
//! nothing below the right operand of `&&` or `||` is collected, because
//! hoisting it would evaluate it, and raise its traps, where the guard
//! skips it.
//!
//! A temporary is added only when it costs no dispatch. Hoisting an
//! expression of `k` operations out of `n` occurrences saves `(n-1)·k`
//! of them, but each occurrence that is a product feeding an add or a
//! subtraction, which the bytecode fuser would merge with it into one
//! `FMulAdd` or `FMulSub`, gives one back: two `s += p * q` stay as they
//! are, and so do two `s -= p * q`.

use chef_ir::ast::*;
use chef_ir::types::Type;
use chef_ir::visit::Visitor;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Runs local CSE over every block of `f`. Returns `true` if anything
/// changed.
pub fn cse_function(f: &mut Function) -> bool {
    // Take the body out, transform recursively with access to the
    // function's variable table (fresh temps are registered there), put it
    // back.
    let mut fresh = 0usize;
    let mut body = std::mem::take(&mut f.body);
    let changed = transform_block(&mut body, f, &mut fresh);
    f.body = body;
    changed
}

fn transform_block(b: &mut Block, f: &mut Function, fresh: &mut usize) -> bool {
    let mut changed = false;
    // Recurse into nested blocks first.
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                changed |= transform_block(then_branch, f, fresh);
                if let Some(eb) = else_branch {
                    changed |= transform_block(eb, f, fresh);
                }
            }
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
                changed |= transform_block(body, f, fresh);
            }
            StmtKind::Block(inner) => {
                changed |= transform_block(inner, f, fresh);
            }
            _ => {}
        }
    }
    changed |= cse_one_block(b, f, fresh);
    changed
}

/// Bumps the version of every variable `s` writes, nested statements
/// included.
fn count_writes(s: &Stmt, versions: &mut [u32]) {
    struct W<'a>(&'a mut [u32]);
    impl Visitor for W<'_> {
        fn visit_stmt(&mut self, s: &Stmt) {
            let written = match &s.kind {
                StmtKind::Assign { lhs, .. } | StmtKind::TapePop(lhs) => lhs.var().id,
                StmtKind::Decl { id, .. } => *id,
                _ => None,
            };
            if let Some(id) = written {
                self.0[id.index()] += 1;
            }
            chef_ir::visit::walk_stmt(self, s);
        }
    }
    W(versions).visit_stmt(s);
}

/// A multiplicative hasher for value numbering's small integer keys,
/// which the default SipHash makes the pass's main cost.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The expression borne directly by a top-level statement that is safe to
/// rewrite (not a loop header or condition).
fn stmt_expr(s: &Stmt) -> Option<&Expr> {
    match &s.kind {
        StmtKind::Decl { init: Some(e), .. }
        | StmtKind::Assign { rhs: e, .. }
        | StmtKind::Return(Some(e))
        | StmtKind::ExprStmt(e)
        | StmtKind::TapePush(e) => Some(e),
        _ => None,
    }
}

fn stmt_expr_mut(s: &mut Stmt) -> Option<&mut Expr> {
    match &mut s.kind {
        StmtKind::Decl { init: Some(e), .. }
        | StmtKind::Assign { rhs: e, .. }
        | StmtKind::Return(Some(e))
        | StmtKind::ExprStmt(e)
        | StmtKind::TapePush(e) => Some(e),
        _ => None,
    }
}

/// The operands of `e`, in the order [`Collector`] numbers them.
fn children(e: &Expr) -> Vec<&Expr> {
    match &e.kind {
        ExprKind::Unary { operand: x, .. }
        | ExprKind::Cast { expr: x, .. }
        | ExprKind::Index { index: x, .. } => vec![x],
        ExprKind::Binary { lhs, rhs, .. } => vec![lhs, rhs],
        ExprKind::Call { args, .. } => args.iter().collect(),
        _ => vec![],
    }
}

fn children_mut(e: &mut Expr) -> Vec<&mut Expr> {
    match &mut e.kind {
        ExprKind::Unary { operand: x, .. }
        | ExprKind::Cast { expr: x, .. }
        | ExprKind::Index { index: x, .. } => vec![x],
        ExprKind::Binary { lhs, rhs, .. } => vec![lhs, rhs],
        ExprKind::Call { args, .. } => args.iter_mut().collect(),
        _ => vec![],
    }
}

/// One expression node, numbered in preorder within its statement.
struct Node {
    /// Nodes in the subtree rooted here, itself included.
    len: usize,
    /// A float product the fuser merges with the add it feeds.
    fused: bool,
}

/// What a pure, index-free node computes: equal values are equal
/// expressions over the same variable versions. [`Collector`] numbers
/// each distinct value once per block.
#[derive(PartialEq, Eq, Hash)]
enum Value {
    Var(VarId, u32),
    Float(u64),
    Int(i64),
    Bool(bool),
    Unary(UnOp, u32),
    Binary(BinOp, u32, u32),
    Call(Intrinsic, u32, Option<u32>),
    Cast(Type, u32),
}

/// A numbered node's value number and its subtree's shape.
#[derive(Clone, Copy)]
struct Numbered {
    value: u32,
    size: usize,
    /// Operations one evaluation dispatches (non-leaf nodes).
    ops: usize,
    reads_var: bool,
}

/// One candidate: every occurrence of one value.
struct Cand {
    size: usize,
    ops: usize,
    /// `(statement, node)` of every occurrence, in program order.
    occs: Vec<(usize, usize)>,
}

/// Numbers the nodes of a block's statement expressions in preorder,
/// value-numbers the pure ones and files each candidate occurrence
/// under its value.
struct Collector {
    /// Per variable index: writes in the statements walked so far.
    versions: Vec<u32>,
    values: HashMap<Value, u32, BuildHasherDefault<MulHasher>>,
    cand_of: HashMap<u32, usize, BuildHasherDefault<MulHasher>>,
    cands: Vec<Cand>,
    stmt: usize,
    nodes: Vec<Node>,
}

impl Collector {
    fn walk(&mut self, e: &Expr, guarded: bool, fused: bool) -> Option<Numbered> {
        let at = self.nodes.len();
        self.nodes.push(Node { len: 0, fused });
        let (value, kids) = match &e.kind {
            ExprKind::Var(v) => {
                let value = v.id.map(|id| Value::Var(id, self.versions[id.index()]));
                (value, vec![])
            }
            ExprKind::FloatLit(x) => (Some(Value::Float(x.to_bits())), vec![]),
            ExprKind::IntLit(i) => (Some(Value::Int(*i)), vec![]),
            ExprKind::BoolLit(b) => (Some(Value::Bool(*b)), vec![]),
            ExprKind::Unary { op, operand } => {
                let x = self.walk(operand, guarded, false);
                (x.map(|x| Value::Unary(*op, x.value)), vec![x])
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let feeds_add = *op == BinOp::Add && is_float(e);
                let leaf = matches!(rhs.kind, ExprKind::Var(_) | ExprKind::FloatLit(_));
                let l = self.walk(lhs, guarded, feeds_add && leaf && is_fmul(lhs));
                let short_circuit = matches!(op, BinOp::And | BinOp::Or);
                let r = self.walk(rhs, guarded || short_circuit, feeds_add && is_fmul(rhs));
                (
                    l.zip(r).map(|(l, r)| Value::Binary(*op, l.value, r.value)),
                    vec![l, r],
                )
            }
            ExprKind::Cast { ty, expr } => {
                let x = self.walk(expr, guarded, false);
                (x.map(|x| Value::Cast(*ty, x.value)), vec![x])
            }
            ExprKind::Call {
                callee: Callee::Intrinsic(i),
                args,
            } if args.len() <= 2 => {
                let xs: Vec<_> = args.iter().map(|a| self.walk(a, guarded, false)).collect();
                let value = match xs[..] {
                    [Some(x)] => Some(Value::Call(*i, x.value, None)),
                    [Some(x), Some(y)] => Some(Value::Call(*i, x.value, Some(y.value))),
                    _ => None,
                };
                (value, xs)
            }
            // Array loads may trap and alias stores; user calls are
            // impure. Neither they nor anything around them is shared.
            _ => {
                for c in children(e) {
                    self.walk(c, guarded, false);
                }
                (None, vec![])
            }
        };
        self.nodes[at].len = self.nodes.len() - at;
        let next = self.values.len() as u32;
        let mut n = Numbered {
            value: *self.values.entry(value?).or_insert(next),
            size: 1,
            ops: usize::from(!kids.is_empty()),
            reads_var: matches!(e.kind, ExprKind::Var(_)),
        };
        for k in kids.iter().flatten() {
            n.size += k.size;
            n.ops += k.ops;
            n.reads_var |= k.reads_var;
        }
        let numeric = e.ty.is_some_and(|t| t.is_numeric_scalar());
        if n.ops > 0 && n.reads_var && numeric && !guarded {
            let c = *self.cand_of.entry(n.value).or_insert(self.cands.len());
            if c == self.cands.len() {
                self.cands.push(Cand {
                    size: n.size,
                    ops: n.ops,
                    occs: Vec::new(),
                });
            }
            self.cands[c].occs.push((self.stmt, at));
        }
        Some(n)
    }
}

fn is_float(e: &Expr) -> bool {
    matches!(e.ty, Some(t) if t.is_float())
}

fn is_fmul(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Binary { op: BinOp::Mul, .. }) && is_float(e)
}

fn cse_one_block(b: &mut Block, f: &mut Function, fresh: &mut usize) -> bool {
    // One pass: number every statement's nodes and value-number each
    // at the versions in force before its statement.
    let mut c = Collector {
        versions: vec![0; f.vars.len()],
        values: HashMap::default(),
        cand_of: HashMap::default(),
        cands: Vec::new(),
        stmt: 0,
        nodes: Vec::new(),
    };
    let mut trees: Vec<Vec<Node>> = Vec::with_capacity(b.stmts.len());
    for (si, s) in b.stmts.iter().enumerate() {
        c.stmt = si;
        if let Some(e) = stmt_expr(s) {
            let into_add = matches!(
                &s.kind,
                StmtKind::Assign {
                    lhs: LValue::Var(_),
                    op: AssignOp::AddAssign | AssignOp::SubAssign,
                    ..
                }
            );
            c.walk(e, false, into_add && is_fmul(e));
        }
        trees.push(std::mem::take(&mut c.nodes));
        count_writes(s, &mut c.versions);
    }
    let cands = c.cands;
    let mut order: Vec<usize> = (0..cands.len())
        .filter(|&c| cands[c].occs.len() >= 2)
        .collect();
    if order.is_empty() {
        return false;
    }
    // Largest expressions first, so inner repeats stay inside the hoisted
    // initializer of the outer one; then in program order.
    order.sort_by(|&x, &y| {
        cands[y]
            .size
            .cmp(&cands[x].size)
            .then(cands[x].occs[0].cmp(&cands[y].occs[0]))
    });

    // Decide, largest first. An occurrence inside a hoisted occurrence of
    // a larger candidate disappears with it, unless that occurrence is
    // the larger one's first, which becomes its temporary's initializer.
    let mut hoisted: Vec<Vec<Hoisted>> = (0..b.stmts.len()).map(|_| Vec::new()).collect();
    let mut chosen: Vec<usize> = Vec::new();
    for c in order {
        let live: Vec<(usize, usize)> = cands[c]
            .occs
            .iter()
            .copied()
            .filter(|&(s, o)| {
                let enclosing = hoisted[s]
                    .iter()
                    .filter(|h| h.node < o && o < h.node + h.len)
                    .max_by_key(|h| h.node);
                enclosing.is_none_or(|h| h.first)
            })
            .collect();
        let fused = live.iter().filter(|&&(s, o)| trees[s][o].fused).count();
        if live.len() < 2 || (live.len() - 1) * cands[c].ops < fused {
            continue;
        }
        for &(s, o) in &live {
            hoisted[s].push(Hoisted {
                node: o,
                len: trees[s][o].len,
                temp: chosen.len(),
                first: (s, o) == cands[c].occs[0],
            });
        }
        chosen.push(c);
    }
    if chosen.is_empty() {
        return false;
    }

    let temps: Vec<(VarRef, Type)> = chosen
        .iter()
        .map(|&c| {
            let (s, o) = cands[c].occs[0];
            let ty =
                subtree(stmt_expr(&b.stmts[s]).expect("occurrence"), 0, o, &trees[s]).type_of();
            let name = format!("_cse{}", *fresh);
            *fresh += 1;
            let id = f.add_var(name.clone(), ty);
            (VarRef::resolved(name, id), ty)
        })
        .collect();
    let read = |t: usize| Expr::typed(ExprKind::Var(temps[t].0.clone()), temps[t].1);
    let reads: Vec<HashMap<usize, Expr>> = hoisted
        .iter()
        .map(|hs| hs.iter().map(|h| (h.node, read(h.temp))).collect())
        .collect();
    // Each temporary is declared before the statement of its first
    // occurrence; before one statement, smaller candidates (chosen later)
    // come first, since a larger one's initializer may read them.
    let mut decls: Vec<Vec<Stmt>> = (0..b.stmts.len()).map(|_| Vec::new()).collect();
    for (t, &c) in chosen.iter().enumerate().rev() {
        let (s, o) = cands[c].occs[0];
        let mut init =
            subtree(stmt_expr(&b.stmts[s]).expect("occurrence"), 0, o, &trees[s]).clone();
        replace_below(&mut init, o, &trees[s], &reads[s]);
        decls[s].push(Stmt::synth(StmtKind::Decl {
            name: temps[t].0.name.clone(),
            id: temps[t].0.id,
            ty: temps[t].1,
            size: None,
            init: Some(init),
        }));
    }
    let old = std::mem::take(&mut b.stmts);
    for (si, (mut s, ds)) in old.into_iter().zip(decls).enumerate() {
        b.stmts.extend(ds);
        if let Some(e) = stmt_expr_mut(&mut s) {
            replace_at(e, 0, &trees[si], &reads[si]);
        }
        b.stmts.push(s);
    }
    true
}

/// A hoisted occurrence, which the read of temporary `temp` replaces.
struct Hoisted {
    node: usize,
    len: usize,
    temp: usize,
    /// The candidate's first occurrence: the temporary's initializer.
    first: bool,
}

/// The node numbered `want` in the subtree of `e`, which is numbered `at`.
fn subtree<'e>(e: &'e Expr, at: usize, want: usize, nodes: &[Node]) -> &'e Expr {
    if at == want {
        return e;
    }
    let mut child = at + 1;
    for c in children(e) {
        if want < child + nodes[child].len {
            return subtree(c, child, want, nodes);
        }
        child += nodes[child].len;
    }
    unreachable!("node {want} lies outside the subtree of node {at}")
}

/// Replaces `e`, numbered `at`, or the outermost hoisted nodes below it,
/// by their temporaries.
fn replace_at(e: &mut Expr, at: usize, nodes: &[Node], temps: &HashMap<usize, Expr>) {
    match temps.get(&at) {
        Some(t) => *e = t.clone(),
        None => replace_below(e, at, nodes, temps),
    }
}

fn replace_below(e: &mut Expr, at: usize, nodes: &[Node], temps: &HashMap<usize, Expr>) {
    let mut child = at + 1;
    for c in children_mut(e) {
        replace_at(c, child, nodes, temps);
        child += nodes[child].len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_ir::parser::parse_program;
    use chef_ir::printer::print_function;
    use chef_ir::typeck::check_program;

    fn csed(src: &str) -> String {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        cse_function(&mut p.functions[0]);
        print_function(&p.functions[0])
    }

    #[test]
    fn hoists_repeated_products() {
        let s = csed(
            "double f(double x, double y) { double a = x * y + 1.0; double b = x * y - 1.0; return a + b; }",
        );
        assert!(s.contains("_cse0 = x * y;"), "{s}");
        assert_eq!(s.matches("x * y").count(), 1, "{s}");
    }

    #[test]
    fn respects_reassignment_kill() {
        // x is reassigned in the block: x * y must NOT be CSEd.
        let s = csed(
            "double f(double x, double y) { double a = x * y; x = 2.0; double b = x * y; return a + b; }",
        );
        assert!(!s.contains("_cse"), "{s}");
    }

    /// `src` with a `__tape_pop(x)` inserted before statement `at` of
    /// the body, after CSE.
    fn csed_with_pop(src: &str, at: usize) -> String {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let f = &mut p.functions[0];
        let x = f.vars_iter().find(|(_, v)| v.name == "x").unwrap().0;
        let pop = Stmt::synth(StmtKind::TapePop(LValue::Var(VarRef::resolved("x", x))));
        f.body.stmts.insert(at, pop);
        cse_function(f);
        print_function(f)
    }

    #[test]
    fn reuses_a_product_between_two_writes_but_not_across_one() {
        let s = csed(
            "double f(double x, double y) { x = 1.5; double a = x * y - 1.0; double b = x * y - 2.0; \
             x = 2.0; double c = x * y - 3.0; return a + b + c; }",
        );
        assert!(s.contains("_cse0 = x * y;"), "{s}");
        assert_eq!(s.matches("x * y").count(), 2, "{s}");
        assert!(!s.contains("_cse1"), "{s}");
        // A write nested in a statement between the two counts too.
        let s = csed(
            "double f(double x, double y) { double a = x * y - 1.0; if (y > 0.0) { x = 2.0; } \
             double b = x * y - 2.0; return a + b; }",
        );
        assert!(!s.contains("_cse"), "{s}");
    }

    #[test]
    fn a_tape_pop_is_a_write() {
        let src = "double f(double x, double y) { double a = x * y - 1.0; double b = x * y - 2.0; \
                   double c = x * y - 3.0; return a + b + c; }";
        // Popped between the second and the third: the first two share.
        let s = csed_with_pop(src, 2);
        assert!(s.contains("_cse0 = x * y;"), "{s}");
        assert_eq!(s.matches("x * y").count(), 2, "{s}");
        // Popped between every pair: nothing is shared.
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let f = &mut p.functions[0];
        let x = f.vars_iter().find(|(_, v)| v.name == "x").unwrap().0;
        for at in [2, 1] {
            let pop = Stmt::synth(StmtKind::TapePop(LValue::Var(VarRef::resolved("x", x))));
            f.body.stmts.insert(at, pop);
        }
        assert!(!cse_function(f), "{}", print_function(f));
    }

    #[test]
    fn leaves_products_that_fuse_into_their_adds() {
        // Each `+= p * q` is one `FMulAdd`, each `-= p * q` one `FMulSub`;
        // a temporary would add one.
        let s =
            csed("double f(double p, double q, double s) { s += p * q; s += p * q; return s; }");
        assert!(!s.contains("_cse"), "{s}");
        let s =
            csed("double f(double p, double q, double s) { s -= p * q; s -= p * q; return s; }");
        assert!(!s.contains("_cse"), "{s}");
        let s = csed(
            "double f(double p, double q, double s) { double a = s + p * q; double b = p * q + s; return a - b; }",
        );
        assert!(!s.contains("_cse"), "{s}");
        // A larger shared expression pays for its temporary.
        let s = csed("double f(double p, double q, double s) { s += sqrt(p * q); s += sqrt(p * q); return s; }");
        assert!(s.contains("_cse0 = sqrt(p * q);"), "{s}");
        assert!(!s.contains("_cse1"), "{s}");
    }

    #[test]
    fn an_inner_repeat_is_declared_before_the_outer_one() {
        let s = csed(
            "double f(double x, double y) { double a = sqrt(x * y + 1.0) - 1.0; \
             double b = sqrt(x * y + 1.0) - 2.0; double c = x * y - 3.0; return a + b + c; }",
        );
        let inner = s.find("_cse1 = x * y;").expect(&s);
        let outer = s.find("_cse0 = sqrt(_cse1 + 1.0);").expect(&s);
        assert!(inner < outer, "{s}");
        assert_eq!(s.matches("x * y").count(), 1, "{s}");
    }

    #[test]
    fn hoists_intrinsic_calls() {
        let s = csed(
            "double f(double x) { double a = sqrt(x + 1.0); double b = sqrt(x + 1.0) * 2.0; return a + b; }",
        );
        assert!(s.contains("_cse"), "{s}");
        assert_eq!(s.matches("sqrt").count(), 1, "{s}");
    }

    #[test]
    fn skips_array_reads() {
        let s = csed(
            "double f(double a[], int i) { double p = a[i] * 2.0; double q = a[i] * 2.0; return p + q; }",
        );
        assert!(!s.contains("_cse"), "{s}");
    }

    #[test]
    fn works_inside_loop_bodies() {
        let s = csed(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += x * x + 1.0; s += x * x - 1.0; } return s; }",
        );
        assert!(s.contains("_cse0 = x * x;"), "{s}");
    }

    #[test]
    fn single_occurrence_untouched() {
        let s = csed("double f(double x, double y) { return x * y; }");
        assert!(!s.contains("_cse"), "{s}");
    }

    #[test]
    fn prefers_larger_expressions() {
        let s = csed(
            "double f(double x, double y) { double a = (x + y) * (x - y); double b = (x + y) * (x - y); return a + b; }",
        );
        // The whole product is hoisted once; inner x+y / x-y live in the
        // initializer only.
        assert!(s.contains("_cse0 = (x + y) * (x - y);"), "{s}");
        assert_eq!(s.matches(r"(x + y) * (x - y)").count(), 1, "{s}");
    }
}

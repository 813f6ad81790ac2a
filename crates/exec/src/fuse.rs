//! Peephole bytecode fusion: collapses the hot multi-instruction idioms
//! the compiler emits into single superinstructions.
//!
//! The pass runs after codegen (wired into [`crate::compile::compile`] behind
//! [`crate::compile::CompileOptions::fuse`], on by default) and rewrites
//! windows of adjacent instructions:
//!
//! | window | fused |
//! |---|---|
//! | `FMul t,a,b` ; `FAdd d,t,c` | [`Instr::FMulAdd`] |
//! | `FMul t,a,b` ; `FSub d,c,t` | [`Instr::FMulSub`] |
//! | `FMul t,a,b` ; `FConst k` ; `FAdd d,t,k` | `FConst` + [`Instr::FMulAdd`] |
//! | `FAdd/FSub/FMul/FDiv t,a,b` ; `FRound d,t,ty` | [`Instr::FAddRound`] … |
//! | `FMulC t,a,k` ; `FRound d,t,ty` | [`Instr::FMulCRound`] |
//! | `FIntr1/FIntr2 t,…` ; `FRound d,t,ty` | [`Instr::FIntr1Round`] … |
//! | `FMov t,s` ; `FRound d,t,ty` | [`Instr::FRound`] `d,s,ty` |
//! | `IConst t,c` ; `IAdd d,a,t` | [`Instr::IAddImm`] |
//! | `IMul t,a,b` ; `IAdd d,t,c` | [`Instr::IMulAdd`] |
//! | `IConst t,c` ; `IAdd u,i,t` ; `FLoad d,arr,u` | [`Instr::FLoadOff`] |
//! | `IConst t,c` ; `IAdd u,i,t` ; `FStore arr,u,s` | [`Instr::FStoreOff`] |
//! | `FCmp/ICmp t,…` ; `JmpIfFalse/True t,L` | [`Instr::FCmpJmpFalse`] … |
//! | `FLoad u,arr,i` ; `FAdd w,u,s` ; `FStore arr,i,w` | [`Instr::FAddTo`] |
//! | `FLoad u,arr,i` ; `FSub w,u,s` ; `FStore arr,i,w` | [`Instr::FSubFrom`] |
//! | `IConst t,k` ; `FAddTo arr,t,s` | [`Instr::FAddToK`] |
//! | `FMul t,a,b` ; `FIntr1 u,Fabs,t` ; `FMulC d,u,k` | [`Instr::FAbsMulC`] |
//! | `FAdd acc,acc,s` ; `FAddToK arr,k,s` | [`Instr::FAddAccK`] |
//!
//! The last two are the error-estimation code's `ε·|x·x̄|` term and its
//! two accumulations (into the running total and the variable's
//! attribution slot), which every instrumented assignment repeats.
//!
//! A fused form is emitted only when [`crate::pack::fits`] says it has a
//! packed encoding (an `FLoadOff` offset within `i8`, an immediate
//! compare or `FAddToK`/`FAddAccK` index within `i16`, an `FMulAdd`,
//! `FMulSub` or `IMulAdd` addend, `FAbsMulC` second factor or `FAddAccK` array
//! register below 256);
//! otherwise the window stays unfused, so fusion never makes a function
//! unpackable.
//!
//! Every fused instruction computes the exact composition of the originals
//! (separate rounding steps, same trap conditions), so fused and unfused
//! programs are **bit-identical** in results, traps and tape counters —
//! only `ExecStats::instrs_executed` shrinks. The `fusion_differential`
//! integration test pins this across every `chef-apps` kernel.
//!
//! One caveat: the variable a `NonFinite` trap names can differ. Copy
//! elimination retargets a write from a temporary to the variable the
//! following `FMov` fed, so the trap raised by that write names the
//! variable when fused and nothing when unfused:
//! `double e = 1e10 * fabs(x * xb);` overflowing at the multiply by
//! `1e10` traps with `var: Some("e")` fused and `var: None` unfused.
//!
//! ## Safety conditions
//!
//! A window is only fused when eliminating its intermediate register
//! cannot change observable behaviour:
//!
//! * inner window instructions must not be jump targets — no path may
//!   enter the middle of a fused sequence;
//! * the eliminated temporary is either overwritten by the window's own
//!   final instruction, or **dead after the window**: a reachability
//!   query over the bytecode CFG (`Analysis::dead_after`, reading the
//!   reads, writes and jump targets off [`Instr`]'s operand visitor,
//!   generated from the opcode table in `opcodes.rs`) proves every
//!   path re-writes the register before reading it (parameter registers
//!   are additionally considered read at every function exit, because
//!   call teardown copies them back to the caller).
//!
//! The accumulate windows (`a[i] += s`, `a[i] -= s`) have two more: the
//! loaded element must be the sum's (difference's) **left** operand, so
//! the fused op sees its operands in the original order; and neither the element's nor the
//! sum's register may be a named variable, because the shadow lane
//! charges a named register's pending error to that variable and a
//! non-finite trap names it. `f32`/`f16` arrays round the sum before
//! the store, so their accumulations keep the `FRound` and stay unfused.
//! The error-term window's product and magnitude registers must be
//! unnamed for the same reasons; `FAddAccK` eliminates no register, but
//! its add must read the accumulator on the left and a source distinct
//! from it, so the fused op adds the same operands in the same order.

use crate::bytecode::*;

/// What [`fuse_function`] did, by pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// `FMul`+`FAdd` → [`Instr::FMulAdd`], `FMul`+`FSub` →
    /// [`Instr::FMulSub`], and `IMul`+`IAdd` → [`Instr::IMulAdd`].
    pub mul_add: u32,
    /// Arithmetic (`FMulC` included) + `FRound` → `F*Round`.
    pub op_round: u32,
    /// Constant-offset array loads.
    pub load_off: u32,
    /// Constant-offset array stores.
    pub store_off: u32,
    /// `FLoad`+`FAdd`/`FSub`+`FStore` → [`Instr::FAddTo`]/
    /// [`Instr::FSubFrom`], and `IConst`+`FAddTo` → [`Instr::FAddToK`].
    pub accumulate: u32,
    /// `FMul`+`FIntr1 Fabs`+`FMulC` → [`Instr::FAbsMulC`], and
    /// `FAdd`+`FAddToK` → [`Instr::FAddAccK`].
    pub error_term: u32,
    /// `IConst`+`IAdd` → [`Instr::IAddImm`].
    pub add_imm: u32,
    /// Compare + conditional jump.
    pub cmp_branch: u32,
    /// Intrinsic + `FRound` → [`Instr::FIntr1Round`]/[`Instr::FIntr2Round`].
    pub intr_round: u32,
    /// `FMov` + `FRound` collapsed into one [`Instr::FRound`].
    pub mov_round: u32,
    /// `FConst` + arithmetic → constant-operand forms ([`Instr::FAddC`] …),
    /// and `IConst` + compare-and-branch → [`Instr::ICmpImmJmpFalse`] ….
    pub const_op: u32,
    /// Writing op + `FMov`/`IMov` retargeted to the copy's destination
    /// (generic copy elimination).
    pub mov_elim: u32,
}

impl FuseStats {
    /// The counters as one array (order matches the field declarations).
    fn counters(&mut self) -> [&mut u32; 12] {
        [
            &mut self.mul_add,
            &mut self.op_round,
            &mut self.load_off,
            &mut self.store_off,
            &mut self.accumulate,
            &mut self.error_term,
            &mut self.add_imm,
            &mut self.cmp_branch,
            &mut self.intr_round,
            &mut self.mov_round,
            &mut self.const_op,
            &mut self.mov_elim,
        ]
    }

    /// Total number of fusions performed.
    pub fn total(&self) -> u32 {
        let mut s = *self;
        s.counters().into_iter().map(|c| *c).sum()
    }
}

impl std::ops::AddAssign for FuseStats {
    fn add_assign(&mut self, mut rhs: FuseStats) {
        for (acc, add) in self.counters().into_iter().zip(rhs.counters()) {
            *acc += *add;
        }
    }
}

struct Analysis {
    f_param: Vec<bool>,
    i_param: Vec<bool>,
    is_target: Vec<bool>,
    /// Scratch for [`Analysis::dead_after`] (reused across queries).
    visited: std::cell::RefCell<Vec<bool>>,
}

impl Analysis {
    fn of(func: &CompiledFunction) -> Self {
        let mut a = Analysis {
            f_param: vec![false; func.n_fregs as usize],
            i_param: vec![false; func.n_iregs as usize],
            is_target: vec![false; func.instrs.len() + 1],
            visited: std::cell::RefCell::new(vec![false; func.instrs.len()]),
        };
        for t in func.instrs.iter().filter_map(Instr::target) {
            if let Some(t) = a.is_target.get_mut(t as usize) {
                *t = true;
            }
        }
        for p in &func.params {
            match p.kind.class() {
                RegClass::F => a.f_param[p.reg as usize] = true,
                RegClass::I => a.i_param[p.reg as usize] = true,
                RegClass::A => {}
            }
        }
        a
    }

    fn is_param(&self, (class, r): Reg) -> bool {
        let file = match class {
            RegClass::F => &self.f_param,
            RegClass::I => &self.i_param,
            RegClass::A => return false,
        };
        file.get(r as usize).copied().unwrap_or(false)
    }

    /// `true` when `reg` is dead at every program point in `starts`: no
    /// path reads it before writing it. Function exits count as reads of
    /// parameter registers (call teardown copies them back).
    ///
    /// The compiler reuses temporary registers across statements, so this
    /// reachability query (rather than a global read count) is what makes
    /// the fusion patterns actually fire: a temp's next use is always
    /// preceded by a fresh write, which terminates the search.
    fn dead_after(&self, func: &CompiledFunction, starts: &[usize], reg: Reg) -> bool {
        let instrs = &func.instrs;
        let mut visited = self.visited.borrow_mut();
        visited.iter_mut().for_each(|v| *v = false);
        let mut stack: Vec<usize> = Vec::with_capacity(8);
        let exit_reads = self.is_param(reg);
        for &s in starts {
            if s >= instrs.len() {
                if exit_reads {
                    return false;
                }
            } else {
                stack.push(s);
            }
        }
        while let Some(pc) = stack.pop() {
            if visited[pc] {
                continue;
            }
            visited[pc] = true;
            let ins = &instrs[pc];
            let (mut read, mut written) = (false, false);
            ins.visit_regs(|class, r, w| {
                if (class, r) == reg {
                    *(if w { &mut written } else { &mut read }) = true;
                }
            });
            if read {
                return false;
            }
            if written {
                continue; // overwritten: this path is safe
            }
            let mut succ = [None, None];
            if !ins.successors(pc, &mut succ) && exit_reads {
                return false;
            }
            for s in succ.into_iter().flatten() {
                if s >= instrs.len() {
                    if exit_reads {
                        return false;
                    }
                } else if !visited[s] {
                    stack.push(s);
                }
            }
        }
        true
    }
}

/// One fusion decision: the replacement instructions and the number of
/// original instructions they consume.
struct Rewrite {
    out: [Option<Instr>; 2],
    width: usize,
}

impl Rewrite {
    fn one(ins: Instr, width: usize) -> Option<Rewrite> {
        Some(Rewrite {
            out: [Some(ins), None],
            width,
        })
    }

    fn two(first: Instr, second: Instr, width: usize) -> Option<Rewrite> {
        Some(Rewrite {
            out: [Some(first), Some(second)],
            width,
        })
    }
}

/// Runs [`fuse_function`] to fixpoint: one pass's rewrites expose new
/// windows to the next (a constant-operand op followed by the `Mov` that
/// stored its temp, a compare freshly adjacent to its branch, …). Every
/// rewrite strictly shrinks the stream, so this terminates; the returned
/// stats are the accumulated totals. This is what [`crate::compile::compile`]
/// invokes.
pub fn fuse_to_fixpoint(func: &mut CompiledFunction) -> FuseStats {
    let mut acc = FuseStats::default();
    loop {
        let pass = fuse_function(func);
        if pass.total() == 0 {
            return acc;
        }
        acc += pass;
    }
}

/// Fuses `func` in place (one pass); returns what happened. Callers
/// wanting the full effect run [`fuse_to_fixpoint`] — a single pass can
/// expose further windows.
pub fn fuse_function(func: &mut CompiledFunction) -> FuseStats {
    // The pass rewrites the instruction stream, so any packed form is
    // stale; [`crate::compile`] re-packs after fusing.
    func.packed = None;
    let analysis = Analysis::of(func);
    let mut stats = FuseStats::default();
    let old_len = func.instrs.len();
    let mut out: Vec<Instr> = Vec::with_capacity(old_len);
    let mut out_spans = Vec::with_capacity(old_len);
    // old instruction index → new index (old_len maps to the new end).
    let mut remap: Vec<u32> = vec![0; old_len + 1];

    let mut pc = 0usize;
    while pc < old_len {
        let rewrite = match_window(func, &analysis, pc, &mut stats);
        let (instrs_out, width) = match rewrite {
            Some(Rewrite { out, width }) => (out, width),
            None => ([Some(func.instrs[pc].clone()), None], 1),
        };
        remap[pc..pc + width].fill(out.len() as u32);
        // The fused window traps/behaves as its final original
        // instruction; keep that span for diagnostics.
        let span = func.spans[pc + width - 1];
        for ins in instrs_out.into_iter().flatten() {
            out.push(ins);
            out_spans.push(span);
        }
        pc += width;
    }
    remap[old_len] = out.len() as u32;

    for t in out.iter_mut().filter_map(Instr::target_mut) {
        *t = remap[*t as usize];
    }
    func.instrs = out;
    func.spans = out_spans;
    stats
}

/// Tries every fusion pattern anchored at `pc`: the shape-specific
/// patterns first, then generic copy elimination.
fn match_window(
    func: &CompiledFunction,
    analysis: &Analysis,
    pc: usize,
    stats: &mut FuseStats,
) -> Option<Rewrite> {
    match_specific(func, analysis, pc, stats).or_else(|| mov_elim(func, analysis, pc, stats))
}

/// Generic copy elimination: any instruction that writes a scalar
/// register `t`, immediately followed by a same-file `Mov d ← t` with `t`
/// dead afterwards, is retargeted to write `d` directly. This collapses
/// the compiler's compute-into-temp / move-into-variable idiom (3 of the
/// 13 instructions in a typical inner loop) and composes with the other
/// patterns across fixpoint passes.
fn mov_elim(
    func: &CompiledFunction,
    analysis: &Analysis,
    pc: usize,
    stats: &mut FuseStats,
) -> Option<Rewrite> {
    let (t, d) = match *func.instrs.get(pc + 1)? {
        Instr::FMov { dst, src } => ((RegClass::F, src.0), dst.0),
        Instr::IMov { dst, src } => ((RegClass::I, src.0), dst.0),
        _ => return None,
    };
    let ins = &func.instrs[pc];
    // An accumulator's read and write share one field: retargeting the
    // write would move the read too.
    if analysis.is_target[pc + 1]
        || ins.write() != Some(t)
        || ins.updated() == Some(t)
        || d == t.1
        || !analysis.dead_after(func, &[pc + 2], t)
    {
        return None;
    }
    // Retarget the write to `d` (same file as `t`).
    let mut retargeted = ins.clone();
    retargeted.visit_regs_mut(|class, r, w| {
        if w && class == t.0 {
            *r = d;
        }
    });
    stats.mov_elim += 1;
    Rewrite::one(retargeted, 2)
}

/// Tries the shape-specific fusion patterns anchored at `pc`.
fn match_specific(
    func: &CompiledFunction,
    analysis: &Analysis,
    pc: usize,
    stats: &mut FuseStats,
) -> Option<Rewrite> {
    let instrs = &func.instrs;
    let at = |k: usize| instrs.get(pc + k);
    // Inner window instructions must not be jump targets: no path may
    // enter the middle of a fused sequence.
    let free = |k: usize| !analysis.is_target[pc + k];
    // The eliminated temp is dead right after the window (which starts at
    // `pc + width`; the last window instruction here is never a branch).
    let dead_f =
        |width: usize, r: FReg| analysis.dead_after(func, &[pc + width], (RegClass::F, r.0));
    let dead_i =
        |width: usize, r: IReg| analysis.dead_after(func, &[pc + width], (RegClass::I, r.0));
    let named = |r: FReg| func.fvar_names.iter().any(|&(n, _)| n == r.0);

    match *at(0)? {
        // IConst t ; IAdd … — address arithmetic and loop increments —
        // IConst t ; FAddTo arr,t,s — an accumulation at a constant index
        // — or IConst t ; ICmpJmp… — the constant-bound loop test.
        Instr::IConst { dst: t, v } => {
            if let Some(&Instr::FAddTo { arr, idx, src }) = at(1) {
                let ins = Instr::FAddToK { arr, k: v, src };
                if free(1) && idx == t && crate::pack::fits(&ins) && dead_i(2, t) {
                    stats.accumulate += 1;
                    return Rewrite::one(ins, 2);
                }
                return None;
            }
            if let Some(&Instr::IAdd { dst: u, a, b }) = at(1) {
                if !free(1) {
                    return None;
                }
                let base = other_operand(t.0, a.0, b.0)?;
                let base = IReg(base);
                // 3-instruction form: the sum feeds an array access. Taken
                // only when the fused form has a packed encoding
                // (`pack::fits`); otherwise the add-immediate form below
                // still applies.
                let fused = match (i32::try_from(v), at(2)) {
                    (Ok(off), Some(&Instr::FLoad { dst, arr, idx })) if idx == u => Some((
                        Instr::FLoadOff {
                            dst,
                            arr,
                            base,
                            off,
                        },
                        &mut stats.load_off,
                    )),
                    (Ok(off), Some(&Instr::FStore { arr, idx, src })) if idx == u => Some((
                        Instr::FStoreOff {
                            arr,
                            base,
                            off,
                            src,
                        },
                        &mut stats.store_off,
                    )),
                    _ => None,
                };
                if let Some((ins, count)) = fused {
                    let fits = free(2) && u != t && crate::pack::fits(&ins);
                    if fits && dead_i(3, u) && dead_i(3, t) {
                        *count += 1;
                        return Rewrite::one(ins, 3);
                    }
                }
                // 2-instruction form: plain add-immediate.
                if u == t || dead_i(2, t) {
                    stats.add_imm += 1;
                    return Rewrite::one(
                        Instr::IAddImm {
                            dst: u,
                            a: base,
                            imm: v,
                        },
                        2,
                    );
                }
                return None;
            }
            // IConst t ; ICmpJmpFalse/True involving t → immediate
            // compare-and-branch (the `i <= 5` inner-loop test), when the
            // immediate fits the packed form.
            let (op, a, b, target, neg) = match *at(1)? {
                Instr::ICmpJmpFalse { op, a, b, target } if free(1) => (op, a, b, target, true),
                Instr::ICmpJmpTrue { op, a, b, target } if free(1) => (op, a, b, target, false),
                _ => return None,
            };
            // Normalize the constant onto the right: mirror the operator
            // when the constant is the left operand.
            let (op, reg) = if b == t && a != t {
                (op, a)
            } else if a == t && b != t {
                (op.mirror(), b)
            } else {
                return None;
            };
            let ins = if neg {
                Instr::ICmpImmJmpFalse {
                    op,
                    a: reg,
                    imm: v,
                    target,
                }
            } else {
                Instr::ICmpImmJmpTrue {
                    op,
                    a: reg,
                    imm: v,
                    target,
                }
            };
            if !crate::pack::fits(&ins)
                || !analysis.dead_after(func, &[target as usize, pc + 2], (RegClass::I, t.0))
            {
                return None;
            }
            stats.const_op += 1;
            Rewrite::one(ins, 2)
        }
        // IMul t,a,b ; IAdd d,t,c  →  IMulAdd: the row-major index
        // `p * n + f` of array code.
        Instr::IMul { dst: t, a, b } => {
            let &Instr::IAdd { dst, a: x, b: y } = at(1)? else {
                return None;
            };
            let c = IReg(other_operand(t.0, x.0, y.0)?);
            let ins = Instr::IMulAdd { dst, a, b, c };
            if free(1) && crate::pack::fits(&ins) && (dst == t || dead_i(2, t)) {
                stats.mul_add += 1;
                return Rewrite::one(ins, 2);
            }
            None
        }
        // FLoad u,arr,i ; FAdd w,u,s ; FStore arr,i,w → FAddTo arr,i,s:
        // the `a[i] += s` of adjoint and error-estimation code; with an
        // `FSub`, the adjoint's `a[i] -= s` → FSubFrom.
        Instr::FLoad { dst: u, arr, idx } => {
            let (w, a, s, sub) = match *at(1)? {
                Instr::FAdd { dst, a, b } => (dst, a, b, false),
                Instr::FSub { dst, a, b } => (dst, a, b, true),
                _ => return None,
            };
            let &Instr::FStore {
                arr: arr2,
                idx: idx2,
                src,
            } = at(2)?
            else {
                return None;
            };
            if !free(1)
                || !free(2)
                || a != u
                || s == u
                || (arr2, idx2, src) != (arr, idx, w)
                || named(u)
                || named(w)
                || !dead_f(3, u)
                || (w != u && !dead_f(3, w))
            {
                return None;
            }
            stats.accumulate += 1;
            Rewrite::one(
                if sub {
                    Instr::FSubFrom { arr, idx, src: s }
                } else {
                    Instr::FAddTo { arr, idx, src: s }
                },
                3,
            )
        }
        // FConst t ; arithmetic using t → constant-operand form: the
        // constant stops being re-materialized on every loop iteration.
        Instr::FConst { dst: t, v } => {
            let (ins, dst) = match *at(1)? {
                Instr::FAdd { dst, a: x, b: y } if free(1) => {
                    let o = FReg(other_operand(t.0, x.0, y.0)?);
                    (Instr::FAddC { dst, a: o, k: v }, dst)
                }
                Instr::FMul { dst, a: x, b: y } if free(1) => {
                    let o = FReg(other_operand(t.0, x.0, y.0)?);
                    (Instr::FMulC { dst, a: o, k: v }, dst)
                }
                Instr::FSub { dst, a: x, b: y } if free(1) && y == t && x != t => {
                    (Instr::FSubC { dst, a: x, k: v }, dst)
                }
                Instr::FSub { dst, a: x, b: y } if free(1) && x == t && y != t => {
                    (Instr::FSubCR { dst, k: v, a: y }, dst)
                }
                Instr::FDiv { dst, a: x, b: y } if free(1) && y == t && x != t => {
                    (Instr::FDivC { dst, a: x, k: v }, dst)
                }
                Instr::FDiv { dst, a: x, b: y } if free(1) && x == t && y != t => {
                    (Instr::FDivCR { dst, k: v, a: y }, dst)
                }
                _ => return None,
            };
            if dst == t || dead_f(2, t) {
                stats.const_op += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }
        // FMul t,a,b ; [FConst k ;] FAdd d,t,c  →  FMulAdd,
        // FMul t,a,b ; FSub d,c,t  →  FMulSub, or
        // FMul t,a,b ; FIntr1 u,Fabs,t ; FMulC d,u,k  →  FAbsMulC.
        Instr::FMul { dst: t, a, b } => {
            match *at(1)? {
                Instr::FIntr1 {
                    dst: u,
                    intr: chef_ir::ast::Intrinsic::Fabs,
                    a: t2,
                } if free(1) && t2 == t => {
                    let &Instr::FMulC { dst, a: u2, k } = at(2)? else {
                        return None;
                    };
                    let ins = Instr::FAbsMulC { dst, a, k, b };
                    let gone = |r: FReg| !named(r) && (r == dst || dead_f(3, r));
                    if free(2) && u2 == u && crate::pack::fits(&ins) && gone(t) && gone(u) {
                        stats.error_term += 1;
                        return Rewrite::one(ins, 3);
                    }
                    None
                }
                Instr::FAdd { dst, a: x, b: y } if free(1) => {
                    let c = FReg(other_operand(t.0, x.0, y.0)?);
                    let ins = Instr::FMulAdd { dst, a, b, c };
                    if crate::pack::fits(&ins) && (dst == t || dead_f(2, t)) {
                        stats.mul_add += 1;
                        return Rewrite::one(ins, 2);
                    }
                    None
                }
                // The product is the subtrahend: `c - a * b`.
                Instr::FSub { dst, a: c, b: y } if free(1) && y == t && c != t => {
                    let ins = Instr::FMulSub { dst, a, b, c };
                    if crate::pack::fits(&ins) && (dst == t || dead_f(2, t)) {
                        stats.mul_add += 1;
                        return Rewrite::one(ins, 2);
                    }
                    None
                }
                // The addend constant is often materialized between the
                // mul and the add (`x * y + 3.5`); hoist it above the
                // fused op. Safe when the constant register is distinct
                // from the product and the mul operands.
                Instr::FConst { dst: k, v } if free(1) && k != t && k != a && k != b => {
                    let &Instr::FAdd { dst, a: x, b: y } = at(2)? else {
                        return None;
                    };
                    if !free(2) {
                        return None;
                    }
                    let c = FReg(other_operand(t.0, x.0, y.0)?);
                    let ins = Instr::FMulAdd { dst, a, b, c };
                    if crate::pack::fits(&ins) && (dst == t || dead_f(3, t)) {
                        stats.mul_add += 1;
                        return Rewrite::two(Instr::FConst { dst: k, v }, ins, 3);
                    }
                    None
                }
                Instr::FRound { dst, src, ty } if free(1) && src == t => {
                    if dst == t || dead_f(2, t) {
                        stats.op_round += 1;
                        return Rewrite::one(Instr::FMulRound { dst, a, b, ty }, 2);
                    }
                    None
                }
                _ => None,
            }
        }
        // FAdd acc,acc,s ; FAddToK arr,k,s  →  FAddAccK (the error term
        // added to the running total and to its attribution slot), or
        // FAdd/FSub/FDiv t,a,b ; FRound d,t  →  fused op+round.
        Instr::FAdd { dst: t, a, b } => {
            if let Some(&Instr::FAddToK { arr, k, src }) = at(1) {
                let ins = Instr::FAddAccK {
                    acc: t,
                    k,
                    src,
                    arr,
                };
                if free(1) && a == t && b == src && src != t && crate::pack::fits(&ins) {
                    stats.error_term += 1;
                    return Rewrite::one(ins, 2);
                }
                return None;
            }
            fuse_round(at(1), free(1), t, |dst, ty| Instr::FAddRound {
                dst,
                a,
                b,
                ty,
            })
            .and_then(|(ins, dst)| {
                if dst == t || dead_f(2, t) {
                    stats.op_round += 1;
                    Rewrite::one(ins, 2)
                } else {
                    None
                }
            })
        }
        Instr::FSub { dst: t, a, b } => fuse_round(at(1), free(1), t, |dst, ty| Instr::FSubRound {
            dst,
            a,
            b,
            ty,
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.op_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        Instr::FDiv { dst: t, a, b } => fuse_round(at(1), free(1), t, |dst, ty| Instr::FDivRound {
            dst,
            a,
            b,
            ty,
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.op_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        // FMulC t,a,k ; FRound d,t  →  FMulCRound (demoted `k * 2.0`).
        Instr::FMulC { dst: t, a, k } => fuse_round(at(1), free(1), t, |dst, ty| {
            Instr::FMulCRound { dst, a, k, ty }
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.op_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        // FIntr1/FIntr2 t,… ; FRound d,t  →  fused intrinsic+round (the
        // `float y = sin(x)` idiom in demoted code).
        Instr::FIntr1 { dst: t, intr, a } => fuse_round(at(1), free(1), t, |dst, ty| {
            Instr::FIntr1Round { dst, intr, a, ty }
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.intr_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        Instr::FIntr2 { dst: t, intr, a, b } => {
            fuse_round(at(1), free(1), t, |dst, ty| Instr::FIntr2Round {
                dst,
                intr,
                a,
                b,
                ty,
            })
            .and_then(|(ins, dst)| {
                if dst == t || dead_f(2, t) {
                    stats.intr_round += 1;
                    Rewrite::one(ins, 2)
                } else {
                    None
                }
            })
        }
        // FMov t,s ; FRound d,t  →  FRound d,s (the demoted-assignment
        // copy; the round reads through the mov).
        Instr::FMov { dst: t, src } => {
            fuse_round(at(1), free(1), t, |dst, ty| Instr::FRound { dst, src, ty }).and_then(
                |(ins, dst)| {
                    if dst == t || dead_f(2, t) {
                        stats.mov_round += 1;
                        Rewrite::one(ins, 2)
                    } else {
                        None
                    }
                },
            )
        }
        // FCmp/ICmp t ; JmpIfFalse/True t  →  compare-and-branch. The
        // condition register is not written by the fused form, so it must
        // be dead along both branch successors.
        Instr::FCmp { dst: t, op, a, b } => {
            let (ins, target) = match *at(1)? {
                Instr::JmpIfFalse { cond, target } if free(1) && cond == t => {
                    (Instr::FCmpJmpFalse { op, a, b, target }, target)
                }
                Instr::JmpIfTrue { cond, target } if free(1) && cond == t => {
                    (Instr::FCmpJmpTrue { op, a, b, target }, target)
                }
                _ => return None,
            };
            if analysis.dead_after(func, &[target as usize, pc + 2], (RegClass::I, t.0)) {
                stats.cmp_branch += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }
        Instr::ICmp { dst: t, op, a, b } => {
            if a == t || b == t {
                return None;
            }
            let (ins, target) = match *at(1)? {
                Instr::JmpIfFalse { cond, target } if free(1) && cond == t => {
                    (Instr::ICmpJmpFalse { op, a, b, target }, target)
                }
                Instr::JmpIfTrue { cond, target } if free(1) && cond == t => {
                    (Instr::ICmpJmpTrue { op, a, b, target }, target)
                }
                _ => return None,
            };
            if analysis.dead_after(func, &[target as usize, pc + 2], (RegClass::I, t.0)) {
                stats.cmp_branch += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Matches `FRound d, t, ty` following an arithmetic op that wrote `t`.
fn fuse_round(
    next: Option<&Instr>,
    free: bool,
    t: FReg,
    make: impl FnOnce(FReg, chef_ir::types::FloatTy) -> Instr,
) -> Option<(Instr, FReg)> {
    match next? {
        &Instr::FRound { dst, src, ty } if free && src == t => Some((make(dst, ty), dst)),
        _ => None,
    }
}

/// When exactly one of the same-file indices `x`/`y` equals `t`,
/// returns the other.
fn other_operand(t: u32, x: u32, y: u32) -> Option<u32> {
    match (x == t, y == t) {
        (true, false) => Some(y),
        (false, true) => Some(x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::value::ArgValue;
    use crate::vm::{CallOutcome, Trap};
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;
    use chef_ir::types::FloatTy;

    /// Packs `f` and runs it: fusion drops the stale packed form, and
    /// only packed code runs.
    fn run(f: &CompiledFunction, args: Vec<ArgValue>) -> Result<CallOutcome, Trap> {
        let mut f = f.clone();
        f.packed = crate::pack::pack_function(&f);
        crate::vm::run(&f, args)
    }

    fn compile_unfused(src: &str) -> CompiledFunction {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            fuse: false,
            // A pristine stream: these tests drive `fuse_function`
            // by hand and match on exact pre-fusion shapes, register
            // numbers included, which compaction would renumber.
            cfg: false,
            ..Default::default()
        };
        compile(&p.functions[0], &opts).unwrap()
    }

    #[test]
    fn loop_condition_and_increment_fuse() {
        let mut f = compile_unfused(
            "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += 1.0; } return s; }",
        );
        let stats = fuse_function(&mut f);
        assert!(stats.cmp_branch >= 1, "{stats:?}\n{}", f.disassemble());
        assert!(stats.add_imm >= 1, "{stats:?}\n{}", f.disassemble());
        let out = run(&f, vec![ArgValue::I(100)]).unwrap();
        assert_eq!(out.ret_f(), 100.0);
    }

    #[test]
    fn mul_add_fuses_and_matches_unfused() {
        let src = "double f(double x, double y) { return x * y + 3.5; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.mul_add >= 1, "{stats:?}\n{}", fused.disassemble());
        let a = run(&fused, vec![ArgValue::F(1.1), ArgValue::F(2.2)]).unwrap();
        let b = run(&unfused, vec![ArgValue::F(1.1), ArgValue::F(2.2)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    }

    #[test]
    fn mul_add_is_not_an_fma() {
        // The fused form must round the product before the add, exactly
        // like the two original instructions.
        let src = "double f(double x, double y, double z) { return x * y + z; }";
        let mut fused = compile_unfused(src);
        fuse_function(&mut fused);
        assert!(fused
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::FMulAdd { .. })));
        let (x, y, z) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        let expect = x * y + z; // two roundings
        let fma = x.mul_add(y, z); // one rounding — must NOT match
        let got = run(&fused, vec![ArgValue::F(x), ArgValue::F(y), ArgValue::F(z)])
            .unwrap()
            .ret_f();
        assert_eq!(got.to_bits(), expect.to_bits());
        assert_ne!(got.to_bits(), fma.to_bits());
    }

    #[test]
    fn demoted_arithmetic_fuses_op_round() {
        let src = "float f(float x, float y) { float z; z = x * y; return z; }";
        let mut fused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.op_round >= 1, "{stats:?}\n{}", fused.disassemble());
        assert!(
            fused
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::FMulRound { .. })),
            "{}",
            fused.disassemble()
        );
        // Same rounding behaviour as the unfused program.
        let unfused = compile_unfused(src);
        let args = vec![ArgValue::F(1.0 / 3.0), ArgValue::F(3.0 / 7.0)];
        let a = run(&fused, args.clone()).unwrap();
        let b = run(&unfused, args).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    }

    #[test]
    fn constant_offset_array_access_fuses() {
        let src = "double f(double a[], int i) { return a[i + 1] + a[i - 0]; }";
        let mut fused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.load_off >= 1, "{stats:?}\n{}", fused.disassemble());
        let out = run(
            &fused,
            vec![ArgValue::FArr(vec![10.0, 20.0, 30.0]), ArgValue::I(1)],
        )
        .unwrap();
        assert_eq!(out.ret_f(), 30.0 + 20.0);
    }

    #[test]
    fn constant_offset_store_fuses() {
        let src = "void f(double a[], int i, double v) { a[i + 2] = v; }";
        let mut fused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.store_off >= 1, "{stats:?}\n{}", fused.disassemble());
        let out = run(
            &fused,
            vec![
                ArgValue::FArr(vec![0.0; 5]),
                ArgValue::I(1),
                ArgValue::F(9.5),
            ],
        )
        .unwrap();
        assert_eq!(out.args[0].as_farr(), &[0.0, 0.0, 0.0, 9.5, 0.0]);
    }

    #[test]
    fn fused_load_still_bounds_checks() {
        let src = "double f(double a[], int i) { return a[i + 1]; }";
        let mut fused = compile_unfused(src);
        fuse_function(&mut fused);
        let err = run(&fused, vec![ArgValue::FArr(vec![1.0, 2.0]), ArgValue::I(5)]).unwrap_err();
        assert!(
            matches!(err.kind, crate::vm::TrapKind::OobIndex { idx: 6, len: 2 }),
            "{err:?}"
        );
    }

    #[test]
    fn jump_targets_survive_fusion() {
        // Nested control flow with fusable windows before and after the
        // branches: all jumps must land where they used to.
        let src = "double f(int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { s += i * 1.5 + 0.25; } else { s -= 0.5; }
            }
            return s;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.total() > 0);
        for n in [0i64, 1, 2, 7, 100] {
            let a = run(&fused, vec![ArgValue::I(n)]).unwrap();
            let b = run(&unfused, vec![ArgValue::I(n)]).unwrap();
            assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "n={n}");
        }
    }

    #[test]
    fn fixpoint_is_stable() {
        let src = "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += i * 2.0 + 1.0; } return s; }";
        let mut f = compile_unfused(src);
        let first = fuse_to_fixpoint(&mut f);
        assert!(first.total() > 0);
        let snapshot = f.instrs.clone();
        let again = fuse_function(&mut f);
        assert_eq!(again.total(), 0, "{again:?}");
        assert_eq!(f.instrs, snapshot);
    }

    #[test]
    fn intrinsic_round_fuses_and_matches_unfused() {
        let src =
            "float f(float x) { float y; y = sin(x) + 0.0; float z; z = pow(y, 2.0); return z; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert!(stats.intr_round >= 1, "{stats:?}\n{}", fused.disassemble());
        let args = vec![ArgValue::F(0.7)];
        let a = run(&fused, args.clone()).unwrap();
        let b = run(&unfused, args).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
        assert!(a.stats.instrs_executed < b.stats.instrs_executed);
    }

    #[test]
    fn mov_round_collapses_to_single_round() {
        use chef_ir::span::Span;
        use chef_ir::types::FloatTy;
        // The compiler mostly emits FRound directly, so pin the window on
        // hand-built bytecode: FMov t←x ; FRound d←t must become
        // FRound d←x when t is dead.
        let mut f = CompiledFunction {
            name: "mr".into(),
            instrs: vec![
                Instr::FMov {
                    dst: FReg(1),
                    src: FReg(0),
                },
                Instr::FRound {
                    dst: FReg(2),
                    src: FReg(1),
                    ty: FloatTy::F32,
                },
                Instr::RetF { src: FReg(2) },
            ],
            spans: vec![Span::DUMMY; 3],
            n_fregs: 3,
            n_iregs: 0,
            n_aregs: 0,
            params: vec![ParamSpec {
                name: "x".into(),
                kind: ParamKind::F(FloatTy::F64),
                by_ref: false,
                reg: 0,
            }],
            ret: RetKind::F(FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        let stats = fuse_to_fixpoint(&mut f);
        assert!(stats.mov_round >= 1, "{stats:?}\n{}", f.disassemble());
        assert!(matches!(
            f.instrs[0],
            Instr::FRound {
                dst: FReg(2),
                src: FReg(0),
                ty: FloatTy::F32
            }
        ));
        let x = 1.0 / 3.0;
        let out = run(&f, vec![ArgValue::F(x)]).unwrap();
        assert_eq!(out.ret_f(), x as f32 as f64);
    }

    #[test]
    fn loop_constants_fuse_into_operands() {
        // `k * 2.0` and `i <= 5` re-materialize constants every iteration
        // without the const+op patterns.
        let src = "double f(double x) {
            double k = 1.0;
            for (int j = 1; j <= 5; j++) { k = k * 2.0 + x / 4.0; }
            return k;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert!(stats.const_op >= 2, "{stats:?}\n{}", fused.disassemble());
        assert!(
            fused
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::FMulC { .. })),
            "{}",
            fused.disassemble()
        );
        assert!(
            fused.instrs.iter().any(|i| matches!(
                i,
                Instr::ICmpImmJmpFalse { .. } | Instr::ICmpImmJmpTrue { .. }
            )),
            "{}",
            fused.disassemble()
        );
        let a = run(&fused, vec![ArgValue::F(0.123)]).unwrap();
        let b = run(&unfused, vec![ArgValue::F(0.123)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    }

    #[test]
    fn copy_elimination_retargets_ops() {
        // `s = s + d` compiles to FAdd-into-temp + FMov-into-s; copy
        // elimination folds the mov away.
        let src = "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s = s + 1.5; } return s; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert!(stats.mov_elim >= 1, "{stats:?}\n{}", fused.disassemble());
        assert!(
            !fused.instrs.iter().any(|i| matches!(i, Instr::FMov { .. })),
            "copies survived:\n{}",
            fused.disassemble()
        );
        let a = run(&fused, vec![ArgValue::I(1000)]).unwrap();
        let b = run(&unfused, vec![ArgValue::I(1000)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
        assert_eq!(a.ret_f(), 1500.0);
    }

    #[test]
    fn by_ref_param_register_is_not_dropped() {
        // `out` is a by-ref scalar: its register is read at call exit, so
        // fusion must never treat it as dead at a return.
        let src = "void f(double x, double &out) { out = x * 2.0 + 1.0; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        fuse_function(&mut fused);
        let a = run(&fused, vec![ArgValue::F(3.0), ArgValue::F(0.0)]).unwrap();
        let b = run(&unfused, vec![ArgValue::F(3.0), ArgValue::F(0.0)]).unwrap();
        assert_eq!(a.args[1], b.args[1]);
        assert_eq!(a.args[1], ArgValue::F(7.0));
    }

    #[test]
    fn array_accumulation_fuses_to_one_dispatch() {
        let src = "void f(double a[], int i, double v) { a[i] += v; a[3] += v; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        // Two `FAddTo`s, then the constant index folds into `FAddToK`.
        assert_eq!(stats.accumulate, 3, "{stats:?}\n{}", fused.disassemble());
        assert!(
            fused
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::FAddToK { k: 3, .. })),
            "{}",
            fused.disassemble()
        );
        let args = || {
            vec![
                ArgValue::FArr(vec![0.5, 1.0 / 3.0, 0.1, 0.7]),
                ArgValue::I(1),
                ArgValue::F(0.2),
            ]
        };
        let a = run(&fused, args()).unwrap();
        let b = run(&unfused, args()).unwrap();
        assert_eq!(a.args, b.args);
        assert_eq!(b.stats.instrs_executed - a.stats.instrs_executed, 5);
    }

    #[test]
    fn error_term_and_its_accumulations_fuse_to_two_dispatches() {
        // The estimator's instrumented assignment in miniature.
        let src = "void f(double x, double xb, double v[], double &fp) {
            double ee = 1e-16 * fabs(x * xb);
            fp += ee;
            v[1] += ee;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert_eq!(stats.error_term, 2, "{stats:?}\n{}", fused.disassemble());
        assert!(
            matches!(
                fused.instrs[..],
                [Instr::FAbsMulC { .. }, Instr::FAddAccK { k: 1, .. }, ..]
            ),
            "{}",
            fused.disassemble()
        );
        let args = || {
            vec![
                ArgValue::F(0.1),
                ArgValue::F(-3.0),
                ArgValue::FArr(vec![0.5, 1.0 / 3.0]),
                ArgValue::F(0.7),
            ]
        };
        let a = run(&fused, args()).unwrap();
        let b = run(&unfused, args()).unwrap();
        assert_eq!(a.args, b.args);
    }

    #[test]
    fn a_named_product_keeps_the_error_term_unfused() {
        // `p` is a variable: its write is observable, so the product
        // stays in its own instruction.
        let mut f = compile_unfused(
            "double f(double x, double xb) { double p = x * xb; return 1e-16 * fabs(p); }",
        );
        let stats = fuse_to_fixpoint(&mut f);
        assert_eq!(stats.error_term, 0, "{}", f.disassemble());
    }

    #[test]
    fn copy_elimination_leaves_an_accumulator_alone() {
        // `FAddAccK t,…` ; `FMov d,t` with `t` dead afterwards: moving
        // the write to `d` would move the read of `t` with it.
        let (x, t, d) = (FReg(0), FReg(1), FReg(2));
        let instrs = vec![
            Instr::FConst { dst: t, v: 2.0 },
            Instr::FAddAccK {
                acc: t,
                k: 0,
                src: x,
                arr: AReg(0),
            },
            Instr::FMov { dst: d, src: t },
            Instr::RetF { src: d },
        ];
        let param = |name: &str, kind, reg| ParamSpec {
            name: name.into(),
            kind,
            by_ref: false,
            reg,
        };
        let unfused = CompiledFunction {
            name: "hand".into(),
            spans: vec![chef_ir::span::Span::default(); instrs.len()],
            instrs,
            n_fregs: 3,
            n_iregs: 0,
            n_aregs: 1,
            params: vec![
                param("x", ParamKind::F(FloatTy::F64), 0),
                param("a", ParamKind::FArr(FloatTy::F64), 0),
            ],
            ret: RetKind::F(FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![(0, "a".into())],
            packed: None,
        };
        let mut fused = unfused.clone();
        let stats = fuse_to_fixpoint(&mut fused);
        assert_eq!(stats.mov_elim, 0, "{}", fused.disassemble());
        let args = || vec![ArgValue::F(0.25), ArgValue::FArr(vec![1.0])];
        let a = run(&fused, args()).unwrap();
        let b = run(&unfused, args()).unwrap();
        assert_eq!((a.ret, a.args), (b.ret, b.args));
    }

    #[test]
    fn narrow_array_accumulation_keeps_its_round() {
        // The sum is rounded to `float` before the store: no window.
        let mut f = compile_unfused("void f(float a[], int i, double v) { a[i] += v; }");
        let stats = fuse_to_fixpoint(&mut f);
        assert_eq!(stats.accumulate, 0, "{}", f.disassemble());
    }

    #[test]
    fn instruction_count_shrinks_on_app_style_loop() {
        let src = "double f(int n) {
            double s = 0.0;
            for (int i = 1; i <= n; i++) {
                double d = i * 0.001;
                s += d * d + 1.0;
            }
            return s;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        fuse_function(&mut fused);
        let a = run(&fused, vec![ArgValue::I(1000)]).unwrap();
        let b = run(&unfused, vec![ArgValue::I(1000)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
        assert!(
            a.stats.instrs_executed < b.stats.instrs_executed,
            "fused {} !< unfused {}",
            a.stats.instrs_executed,
            b.stats.instrs_executed
        );
    }
}

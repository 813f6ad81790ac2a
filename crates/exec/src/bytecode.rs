//! The register bytecode the VM executes.
//!
//! KernelC functions are compiled ([`mod@crate::compile`]) to a flat
//! instruction vector over three register files: floats (`f64` slots),
//! integers (`i64` slots, also holding booleans as 0/1), and arrays.
//! Narrow float precisions are simulated explicitly in the instruction
//! stream with [`Instr::FRound`] — the compiler inserts a round after
//! every operation whose result precision is below `f64`, which is what
//! makes a "demoted" compilation behave like the hand-rewritten
//! mixed-precision source of the paper.

use chef_ir::ast::Intrinsic;
use chef_ir::span::Span;
use chef_ir::types::FloatTy;

/// Index into the float register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FReg(pub u32);

/// Index into the integer register file (also used for booleans).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IReg(pub u32);

/// Index into the array register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AReg(pub u32);

/// Comparison operator for `FCmp`/`ICmp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
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
}

impl CmpOp {
    /// The comparison with its operands swapped: `a op b` ≡ `b op' a`.
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// One VM instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `f[dst] = v`
    FConst { dst: FReg, v: f64 },
    /// `f[dst] = f[src]`
    FMov { dst: FReg, src: FReg },
    /// `f[dst] = f[a] + f[b]`
    FAdd { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = f[a] - f[b]`
    FSub { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = f[a] * f[b]`
    FMul { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = f[a] / f[b]` (IEEE semantics: ±∞/NaN on zero divisor)
    FDiv { dst: FReg, a: FReg, b: FReg },
    /// `f[dst] = -f[src]`
    FNeg { dst: FReg, src: FReg },
    /// `f[dst] = round_to(f[src], ty)` — the precision-simulation hook.
    FRound { dst: FReg, src: FReg, ty: FloatTy },
    /// `f[dst] = intr(f[a])` (dispatches through the approx config)
    FIntr1 { dst: FReg, intr: Intrinsic, a: FReg },
    /// `f[dst] = intr(f[a], f[b])`
    FIntr2 {
        dst: FReg,
        intr: Intrinsic,
        a: FReg,
        b: FReg,
    },
    /// `i[dst] = f[a] op f[b]`
    FCmp {
        dst: IReg,
        op: CmpOp,
        a: FReg,
        b: FReg,
    },
    /// `f[dst] = farr[arr][i[idx]]` (bounds-checked)
    FLoad { dst: FReg, arr: AReg, idx: IReg },
    /// `farr[arr][i[idx]] = f[src]` (bounds-checked)
    FStore { arr: AReg, idx: IReg, src: FReg },
    /// `i[dst] = trunc(f[src])` (C cast semantics)
    F2I { dst: IReg, src: FReg },
    /// `f[dst] = i[src] as f64`
    I2F { dst: FReg, src: IReg },

    /// `i[dst] = v`
    IConst { dst: IReg, v: i64 },
    /// `i[dst] = i[src]`
    IMov { dst: IReg, src: IReg },
    /// `i[dst] = i[a] + i[b]` (wrapping)
    IAdd { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] - i[b]` (wrapping)
    ISub { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] * i[b]` (wrapping)
    IMul { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] / i[b]` (traps on zero divisor)
    IDiv { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = i[a] % i[b]` (traps on zero divisor)
    IRem { dst: IReg, a: IReg, b: IReg },
    /// `i[dst] = -i[src]`
    INeg { dst: IReg, src: IReg },
    /// `i[dst] = i[a] op i[b]`
    ICmp {
        dst: IReg,
        op: CmpOp,
        a: IReg,
        b: IReg,
    },
    /// `i[dst] = iarr[arr][i[idx]]` (bounds-checked)
    ILoad { dst: IReg, arr: AReg, idx: IReg },
    /// `iarr[arr][i[idx]] = i[src]` (bounds-checked)
    IStore { arr: AReg, idx: IReg, src: IReg },
    /// `i[dst] = 1 - i[src]` (boolean not)
    BNot { dst: IReg, src: IReg },

    /// Unconditional jump to instruction index `target`.
    Jmp { target: u32 },
    /// Jump when `i[cond] == 0`.
    JmpIfFalse { cond: IReg, target: u32 },
    /// Jump when `i[cond] != 0`.
    JmpIfTrue { cond: IReg, target: u32 },

    /// Push `f[src]` onto the tape (forward sweep of Fig. 2).
    TPushF { src: FReg },
    /// Pop the tape into `f[dst]` (backward sweep of Fig. 2).
    TPopF { dst: FReg },
    /// Push `i[src]` onto the int tape (trip counts, branch flags).
    TPushI { src: IReg },
    /// Pop the int tape into `i[dst]`.
    TPopI { dst: IReg },

    /// Allocate a zeroed float array of length `i[len]` into slot `arr`.
    AllocF { arr: AReg, len: IReg },
    /// Allocate a zeroed int array of length `i[len]` into slot `arr`.
    AllocI { arr: AReg, len: IReg },

    // ---- fused superinstructions (emitted by [`crate::fuse`]) ----
    //
    // Each one is the exact composition of the base instructions it
    // replaces — same rounding, same trap points — so a fused program is
    // bit-identical to its unfused compilation; only the dispatch count
    // changes.
    /// `f[dst] = f[a] * f[b] + f[c]` — mul and add rounded **separately**
    /// (not an FMA), matching the unfused pair.
    FMulAdd {
        dst: FReg,
        a: FReg,
        b: FReg,
        c: FReg,
    },
    /// `f[dst] = round_to(f[a] + f[b], ty)` — the dominant pair in
    /// demoted code.
    FAddRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(f[a] - f[b], ty)`
    FSubRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(f[a] * f[b], ty)`
    FMulRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(f[a] / f[b], ty)`
    FDivRound {
        dst: FReg,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(intr(f[a]), ty)` — intrinsic call into a demoted
    /// variable (e.g. `float y = sin(x)`).
    FIntr1Round {
        dst: FReg,
        intr: Intrinsic,
        a: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = round_to(intr(f[a], f[b]), ty)`
    FIntr2Round {
        dst: FReg,
        intr: Intrinsic,
        a: FReg,
        b: FReg,
        ty: FloatTy,
    },
    /// `f[dst] = f[a] + k` — constant operand folded out of an `FConst`
    /// the loop body would otherwise re-materialize every iteration.
    FAddC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = f[a] - k`
    FSubC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = k - f[a]`
    FSubCR { dst: FReg, k: f64, a: FReg },
    /// `f[dst] = f[a] * k`
    FMulC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = f[a] / k`
    FDivC { dst: FReg, a: FReg, k: f64 },
    /// `f[dst] = k / f[a]` (the `1.0 / x` idiom)
    FDivCR { dst: FReg, k: f64, a: FReg },
    /// Jump to `target` when `!(i[a] op imm)` — the fused
    /// constant-bound loop test (`IConst` + `ICmpJmpFalse`).
    ICmpImmJmpFalse {
        op: CmpOp,
        a: IReg,
        imm: i64,
        target: u32,
    },
    /// Jump to `target` when `i[a] op imm`.
    ICmpImmJmpTrue {
        op: CmpOp,
        a: IReg,
        imm: i64,
        target: u32,
    },
    /// `f[dst] = farr[arr][i[base] + off]` (bounds-checked)
    FLoadOff {
        dst: FReg,
        arr: AReg,
        base: IReg,
        off: i32,
    },
    /// `farr[arr][i[base] + off] = f[src]` (bounds-checked)
    FStoreOff {
        arr: AReg,
        base: IReg,
        off: i32,
        src: FReg,
    },
    /// `farr[arr][i[idx]] += f[src]` (bounds-checked) — the array
    /// accumulation `FLoad` ; `FAdd` ; `FStore` of adjoint and
    /// error-estimation code, with the loaded element the left operand.
    FAddTo { arr: AReg, idx: IReg, src: FReg },
    /// `farr[arr][k] += f[src]` (bounds-checked) — [`Instr::FAddTo`] at a
    /// constant index.
    FAddToK { arr: AReg, k: i64, src: FReg },
    /// `f[dst] = |f[a] * f[b]| * k` — the error term `ε·|x·x̄|` of
    /// error-estimation code: `FMul t,a,b` ; `FIntr1 u,Fabs,t` ;
    /// `FMulC dst,u,k`, each step rounded as before, with the product
    /// and its absolute value in no register.
    FAbsMulC { dst: FReg, a: FReg, k: f64, b: FReg },
    /// `f[acc] += f[src]`, then `farr[arr][k] += f[src]`
    /// (bounds-checked) — an error term added to the running total and
    /// to its attribution slot: `FAdd acc,acc,src` ; `FAddToK arr,k,src`.
    FAddAccK {
        acc: FReg,
        k: i64,
        src: FReg,
        arr: AReg,
    },
    /// `i[dst] = i[a] + imm` (wrapping) — loop increments.
    IAddImm { dst: IReg, a: IReg, imm: i64 },
    /// Jump to `target` when `!(f[a] op f[b])` — fused compare-and-branch
    /// (the loop-exit test).
    FCmpJmpFalse {
        op: CmpOp,
        a: FReg,
        b: FReg,
        target: u32,
    },
    /// Jump to `target` when `f[a] op f[b]`.
    FCmpJmpTrue {
        op: CmpOp,
        a: FReg,
        b: FReg,
        target: u32,
    },
    /// Jump to `target` when `!(i[a] op i[b])`.
    ICmpJmpFalse {
        op: CmpOp,
        a: IReg,
        b: IReg,
        target: u32,
    },
    /// Jump to `target` when `i[a] op i[b]`.
    ICmpJmpTrue {
        op: CmpOp,
        a: IReg,
        b: IReg,
        target: u32,
    },

    /// Return `f[src]`.
    RetF { src: FReg },
    /// Return `i[src]` as an int.
    RetI { src: IReg },
    /// Return `i[src]` as a bool.
    RetB { src: IReg },
    /// Return nothing.
    RetVoid,
    /// Control fell off the end of a non-void function.
    TrapMissingReturn,
}

/// The register file an operand lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum RegClass {
    /// Float registers ([`FReg`]).
    F,
    /// Integer registers ([`IReg`]).
    I,
    /// Array registers ([`AReg`]).
    A,
}

/// One register: its file and its index in that file.
pub(crate) type Reg = (RegClass, u32);

impl Instr {
    /// The jump-target field, if the instruction has one.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        self.visit_regs_mut(|_, _, _| {})
    }

    /// The jump target, if the instruction has one. Most instructions
    /// have none, and asking first skips the visitor's jump table.
    pub(crate) fn target(&self) -> Option<u32> {
        if !self.has_target() {
            return None;
        }
        self.visit_regs(|_, _, _| {})
    }

    /// The scalar register the instruction writes, if any.
    pub(crate) fn write(&self) -> Option<Reg> {
        let mut out = None;
        self.visit_regs(|class, r, w| {
            if w && class != RegClass::A {
                out = Some((class, r));
            }
        });
        out
    }

    /// Successor program points of the instruction at `pc` into `out`
    /// (taken target first); `false` when it exits the function (a
    /// return, or the missing-return trap).
    pub(crate) fn successors(&self, pc: usize, out: &mut [Option<usize>; 2]) -> bool {
        let target = self.target().map(|t| t as usize);
        let exits = matches!(
            self,
            Instr::RetF { .. }
                | Instr::RetI { .. }
                | Instr::RetB { .. }
                | Instr::RetVoid
                | Instr::TrapMissingReturn
        );
        *out = match self {
            _ if exits => [None, None],
            Instr::Jmp { .. } => [target, None],
            _ if target.is_some() => [target, Some(pc + 1)],
            _ => [Some(pc + 1), None],
        };
        !exits
    }
}

/// Scalar/array kind of one parameter in the compiled signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// Float scalar at the (possibly demoted) precision; incoming values
    /// are rounded to this precision at call entry.
    F(FloatTy),
    /// Int scalar.
    I,
    /// Bool scalar.
    B,
    /// Float array with the given (possibly demoted) element precision;
    /// elements are rounded in place at call entry.
    FArr(FloatTy),
    /// Int array.
    IArr,
}

impl ParamKind {
    /// The register file the parameter binds in.
    pub(crate) fn class(self) -> RegClass {
        match self {
            ParamKind::F(_) => RegClass::F,
            ParamKind::I | ParamKind::B => RegClass::I,
            ParamKind::FArr(_) | ParamKind::IArr => RegClass::A,
        }
    }
}

/// One parameter of a compiled function.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSpec {
    /// Source-level name (for diagnostics and reports).
    pub name: String,
    /// Scalar/array kind with effective precision.
    pub kind: ParamKind,
    /// `true` if the updated value is copied back to the caller (arrays
    /// always are).
    pub by_ref: bool,
    /// The register (in the file implied by `kind`) the parameter binds to.
    pub reg: u32,
}

/// Return-value kind of a compiled function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetKind {
    /// Float return at the given precision (the VM rounds on return).
    F(FloatTy),
    /// Int return.
    I,
    /// Bool return.
    B,
    /// No return value.
    Void,
}

/// A fully compiled KernelC function.
#[derive(Clone, Debug)]
pub struct CompiledFunction {
    /// Source function name.
    pub name: String,
    /// The instruction stream.
    pub instrs: Vec<Instr>,
    /// Source span of each instruction (parallel to `instrs`), for traps.
    pub spans: Vec<Span>,
    /// Number of float registers.
    pub n_fregs: u32,
    /// Number of integer registers.
    pub n_iregs: u32,
    /// Number of array registers.
    pub n_aregs: u32,
    /// Parameter binding specs, in call order.
    pub params: Vec<ParamSpec>,
    /// Return kind.
    pub ret: RetKind,
    /// Source names of the float registers that are variable homes
    /// (`(register index, name)`, ascending; temporaries are unnamed).
    /// Consumed by the shadow interpreter's per-variable attribution and
    /// by diagnostics; execution never reads it.
    pub fvar_names: Vec<(u32, String)>,
    /// Source names of the array registers (every array register is a
    /// variable home; there are no array temporaries).
    pub avar_names: Vec<(u32, String)>,
    /// The packed `u64` word stream + constant pool produced by
    /// [`crate::pack`] — the form the VM and the shadow interpreter
    /// execute. [`crate::compile::compile`] always fills it (a function
    /// the format cannot hold is a compile error). It is `None` only on
    /// a function built or rewritten by hand, or compiled with
    /// [`crate::compile::CompileOptions::pack`] off, and such a function
    /// must be packed with [`crate::pack::pack_function`] before it runs:
    /// [`crate::vm::validate_function`] rejects it otherwise, and requires
    /// each word to be the canonical packing of its instruction in
    /// `instrs`.
    pub packed: Option<crate::pack::PackedCode>,
}

impl CompiledFunction {
    /// Human-readable disassembly (one instruction per line), useful in
    /// tests and for debugging generated adjoints.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn {} (fregs={}, iregs={}, aregs={})",
            self.name, self.n_fregs, self.n_iregs, self.n_aregs
        );
        for (pc, ins) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "{pc:4}: {ins:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disassembly_contains_instructions() {
        let f = CompiledFunction {
            name: "t".into(),
            instrs: vec![
                Instr::FConst {
                    dst: FReg(0),
                    v: 1.5,
                },
                Instr::RetF { src: FReg(0) },
            ],
            spans: vec![Span::DUMMY; 2],
            n_fregs: 1,
            n_iregs: 0,
            n_aregs: 0,
            params: vec![],
            ret: RetKind::F(FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        let d = f.disassemble();
        assert!(d.contains("FConst"));
        assert!(d.contains("RetF"));
    }

    /// The `(class, index)` operands and the jump target `Debug` prints,
    /// read off the text: an oracle that shares no code with the
    /// operand table.
    fn debug_operands(ins: &Instr) -> (Vec<Reg>, Option<u32>) {
        let text = format!("{ins:?}");
        let number = |rest: &str| -> u32 {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let mut regs = Vec::new();
        for (tag, class) in [
            ("FReg(", RegClass::F),
            ("IReg(", RegClass::I),
            ("AReg(", RegClass::A),
        ] {
            for (at, _) in text.match_indices(tag) {
                regs.push((class, number(&text[at + tag.len()..])));
            }
        }
        regs.sort_unstable_by_key(|&(c, r)| (c as u8, r));
        let target = text.find("target: ").map(|at| number(&text[at + 8..]));
        (regs, target)
    }

    /// A one-instruction function (padded with returns up to its jump
    /// target) whose register files are exactly as large as `ins` needs.
    fn function_of(ins: &Instr) -> CompiledFunction {
        let mut size = [0u32; 3];
        ins.visit_regs(|class, r, _w| size[class as usize] = size[class as usize].max(r + 1));
        let len = ins.target().map_or(1, |t| t.max(1)) as usize;
        let mut instrs = vec![Instr::RetVoid; len];
        instrs[0] = ins.clone();
        let mut f = CompiledFunction {
            name: "shape".into(),
            spans: vec![Span::DUMMY; len],
            instrs,
            n_fregs: size[0],
            n_iregs: size[1],
            n_aregs: size[2],
            params: vec![],
            ret: RetKind::Void,
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        f.packed = crate::pack::pack_function(&f);
        f
    }

    #[test]
    fn operand_table_matches_debug_and_guards_validation() {
        for ins in crate::pack::tests::instruction_shapes() {
            // The table reports exactly the operands `Debug` shows, one
            // visit per field.
            let mut regs = Vec::new();
            ins.clone()
                .visit_regs_mut(|class, r, _w| regs.push((class, *r)));
            regs.sort_unstable_by_key(|&(c, r)| (c as u8, r));
            assert_eq!(
                (regs.clone(), ins.target()),
                debug_operands(&ins),
                "{ins:?}"
            );
            // The shared visitor reports the same uses, with a field
            // updated in place as both a read and a write.
            let mut uses = Vec::new();
            ins.visit_regs(|class, r, w| uses.push((class, r, w)));
            let updated = ins.updated();
            let mut once: Vec<Reg> = uses
                .iter()
                .filter(|&&(c, r, w)| w || updated != Some((c, r)))
                .map(|&(c, r, _)| (c, r))
                .collect();
            once.sort_unstable_by_key(|&(c, r)| (c as u8, r));
            assert_eq!(once, regs, "{ins:?}");
            if let Some(u) = updated {
                assert_eq!(ins.write(), Some(u), "{ins:?}");
                assert!(uses.contains(&(u.0, u.1, false)), "{ins:?}");
            }

            let func = function_of(&ins);
            crate::vm::validate_function(&func).unwrap_or_else(|e| panic!("{ins:?}: {e}"));
            // Any one operand at its file's size, or a target past the
            // end, is rejected before anything reads the packed words.
            let size = [func.n_fregs, func.n_iregs, func.n_aregs];
            let mutants = (0..regs.len()).map(|k| {
                let mut m = ins.clone();
                let mut seen = 0;
                m.visit_regs_mut(|class, r, _w| {
                    if seen == k {
                        *r = size[class as usize];
                    }
                    seen += 1;
                });
                m
            });
            let past_end = ins.target().map(|_| {
                let mut m = ins.clone();
                *m.target_mut().unwrap() = func.instrs.len() as u32 + 1;
                m
            });
            for m in mutants.chain(past_end) {
                let mut bad = func.clone();
                bad.instrs[0] = m.clone();
                bad.packed = crate::pack::pack_function(&bad);
                let err = crate::vm::validate_function(&bad).expect_err(&format!("{m:?}"));
                assert!(err.contains("out-of-range"), "{m:?}: {err}");
            }
        }
    }
}

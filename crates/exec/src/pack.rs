//! Packed-word bytecode: the enum instruction stream flattened into
//! fixed-width `u64` words for the dispatch loop.
//!
//! [`Instr`] is a ~24-byte tagged enum — comfortable to build, match and
//! debug, but three times wider than the information it carries, and its
//! wide immediates (`f64` constants, `i64` immediates) live inline in the
//! stream, re-materialized on every execution of a loop body. This pass
//! runs after [`crate::fuse`] and re-encodes each instruction 1:1 into one
//! packed word:
//!
//! ```text
//! bits  0..8    opcode      (dense u8 — drives a jump-table match)
//! bits  8..24   A           (u16 operand: register / array slot)
//! bits 24..40   B           (u16 operand: register / pool index / i16 imm)
//! bits 40..56   C           (u16 operand: register / jump target / i16 imm)
//! bits 56..64   D           (u8 operand: FloatTy / CmpOp / intrinsic /
//!                            i8 offset / 4th register)
//! ```
//!
//! Wide operands are hoisted into a per-function **constant pool**
//! ([`PackedCode::pool`]; intrinsics are coded against the link-time
//! [`INTRINSICS`] table), deduplicated, and referenced by 16-bit index — an `FConst` in a loop
//! body becomes one pool load instead of decoding an inline `f64` each
//! iteration. Small integer immediates (`IConst`, `IAddImm`) that fit an
//! `i16` are encoded inline with a dedicated opcode so the common loop
//! increments never touch a pool.
//!
//! ## Packing is total on compiler output
//!
//! The dispatch loop runs only packed code, so every function
//! [`crate::compile::compile`] produces must pack. Two rules make that so:
//!
//! * Per-instruction range rules (a register above 65 535, or above 255
//!   in [`Instr::FMulAdd`]'s 8-bit addend position; an
//!   [`Instr::FLoadOff`]/[`Instr::FStoreOff`] offset outside `i8`; an
//!   [`Instr::ICmpImmJmpFalse`]/[`Instr::ICmpImmJmpTrue`] immediate
//!   outside `i16`) are stated once, by [`fits`]. [`crate::fuse`] asks
//!   it before emitting a superinstruction and keeps the unfused
//!   sequence when the answer is no.
//! * What is left are whole-function limits: more than 65 535
//!   instructions (jump targets must fit a u16; a target equal to the
//!   length — "fall off the end" — is still representable), or a
//!   register index wider than u16. `try_pack` names the limit, and
//!   `compile` reports it as [`crate::compile::CompileError::Unsupported`].
//!
//! A hand-built stream that exceeds a limit gets `None` from
//! [`pack_function`] and cannot run.
//!
//! ## Equivalence guarantee
//!
//! Packing is per-instruction and order-preserving: word `k` encodes
//! `instrs[k]`, jump targets are unchanged, and [`decode`] is a total
//! inverse on packer output. The packer is also the bit-exact equality:
//! [`instr_eq_bits`] holds when two instructions pack to the same word
//! (constants compare by `to_bits`). [`crate::vm::validate_function`]
//! bounds-checks every operand of the enum stream through the
//! instruction's operand table, then re-decodes every word and compares
//! it against the enum stream with [`instr_eq_bits`], so the dispatch
//! loop may access registers and pools unchecked.

use crate::bytecode::*;
use chef_ir::ast::Intrinsic;
use chef_ir::types::FloatTy;
use std::collections::HashMap;

/// Dense opcodes of the packed word format. Kept contiguous from zero so
/// the dispatch `match` lowers to a jump table.
pub mod op {
    /// `f[A] = pool[B]` (as `f64` bits)
    pub const FCONST: u8 = 0;
    /// `f[A] = f[B]`
    pub const FMOV: u8 = 1;
    /// `f[A] = f[B] + f[C]`
    pub const FADD: u8 = 2;
    /// `f[A] = f[B] - f[C]`
    pub const FSUB: u8 = 3;
    /// `f[A] = f[B] * f[C]`
    pub const FMUL: u8 = 4;
    /// `f[A] = f[B] / f[C]`
    pub const FDIV: u8 = 5;
    /// `f[A] = -f[B]`
    pub const FNEG: u8 = 6;
    /// `f[A] = round_to(f[B], ty(D))`
    pub const FROUND: u8 = 7;
    /// `f[A] = INTRINSICS[D](f[B])`
    pub const FINTR1: u8 = 8;
    /// `f[A] = INTRINSICS[D](f[B], f[C])`
    pub const FINTR2: u8 = 9;
    /// `i[A] = f[B] cmp(D) f[C]`
    pub const FCMP: u8 = 10;
    /// `f[A] = farr[B][i[C]]`
    pub const FLOAD: u8 = 11;
    /// `farr[A][i[B]] = f[C]`
    pub const FSTORE: u8 = 12;
    /// `i[A] = trunc(f[B])`
    pub const F2I: u8 = 13;
    /// `f[A] = i[B] as f64`
    pub const I2F: u8 = 14;
    /// `i[A] = B as i16`
    pub const ICONST: u8 = 15;
    /// `i[A] = pool[B]` (as `i64` bits)
    pub const ICONSTP: u8 = 16;
    /// `i[A] = i[B]`
    pub const IMOV: u8 = 17;
    /// `i[A] = i[B] + i[C]`
    pub const IADD: u8 = 18;
    /// `i[A] = i[B] - i[C]`
    pub const ISUB: u8 = 19;
    /// `i[A] = i[B] * i[C]`
    pub const IMUL: u8 = 20;
    /// `i[A] = i[B] / i[C]`
    pub const IDIV: u8 = 21;
    /// `i[A] = i[B] % i[C]`
    pub const IREM: u8 = 22;
    /// `i[A] = -i[B]`
    pub const INEG: u8 = 23;
    /// `i[A] = i[B] cmp(D) i[C]`
    pub const ICMP: u8 = 24;
    /// `i[A] = iarr[B][i[C]]`
    pub const ILOAD: u8 = 25;
    /// `iarr[A][i[B]] = i[C]`
    pub const ISTORE: u8 = 26;
    /// `i[A] = 1 - i[B]`
    pub const BNOT: u8 = 27;
    /// `pc = C`
    pub const JMP: u8 = 28;
    /// `if i[A] == 0 { pc = C }`
    pub const JMPF: u8 = 29;
    /// `if i[A] != 0 { pc = C }`
    pub const JMPT: u8 = 30;
    /// push `f[A]` onto the tape
    pub const TPUSHF: u8 = 31;
    /// pop the tape into `f[A]`
    pub const TPOPF: u8 = 32;
    /// push `i[A]` onto the int tape
    pub const TPUSHI: u8 = 33;
    /// pop the int tape into `i[A]`
    pub const TPOPI: u8 = 34;
    /// `farr[A] = zeroed(i[B])`
    pub const ALLOCF: u8 = 35;
    /// `iarr[A] = zeroed(i[B])`
    pub const ALLOCI: u8 = 36;
    /// `f[A] = f[B] * f[C] + f[D]` (separate roundings — not an FMA)
    pub const FMULADD: u8 = 37;
    /// `f[A] = round_to(f[B] + f[C], ty(D))`
    pub const FADDROUND: u8 = 38;
    /// `f[A] = round_to(f[B] - f[C], ty(D))`
    pub const FSUBROUND: u8 = 39;
    /// `f[A] = round_to(f[B] * f[C], ty(D))`
    pub const FMULROUND: u8 = 40;
    /// `f[A] = round_to(f[B] / f[C], ty(D))`
    pub const FDIVROUND: u8 = 41;
    /// `f[A] = farr[B][i[C] + D as i8]`
    pub const FLOADOFF: u8 = 42;
    /// `farr[A][i[B] + D as i8] = f[C]`
    pub const FSTOREOFF: u8 = 43;
    /// `i[A] = i[B] + C as i16`
    pub const IADDIMM: u8 = 44;
    /// `i[A] = i[B] + pool[C]` (as `i64` bits)
    pub const IADDIMMP: u8 = 45;
    /// `if !(f[A] cmp(D) f[B]) { pc = C }`
    pub const FCJF: u8 = 46;
    /// `if f[A] cmp(D) f[B] { pc = C }`
    pub const FCJT: u8 = 47;
    /// `if !(i[A] cmp(D) i[B]) { pc = C }`
    pub const ICJF: u8 = 48;
    /// `if i[A] cmp(D) i[B] { pc = C }`
    pub const ICJT: u8 = 49;
    /// return `f[A]`
    pub const RETF: u8 = 50;
    /// return `i[A]` as int
    pub const RETI: u8 = 51;
    /// return `i[A]` as bool
    pub const RETB: u8 = 52;
    /// return nothing
    pub const RETVOID: u8 = 53;
    /// trap: control fell off a non-void function
    pub const TRAPMISSING: u8 = 54;
    /// `f[A] = round_to(INTRINSICS[D & 63](f[B]), ty(D >> 6))`
    pub const FINTR1ROUND: u8 = 55;
    /// `f[A] = round_to(INTRINSICS[D & 63](f[B], f[C]), ty(D >> 6))`
    pub const FINTR2ROUND: u8 = 56;
    /// `f[A] = f[B] + pool[C]` (as `f64` bits)
    pub const FADDC: u8 = 57;
    /// `f[A] = f[B] - pool[C]`
    pub const FSUBC: u8 = 58;
    /// `f[A] = pool[C] - f[B]`
    pub const FSUBCR: u8 = 59;
    /// `f[A] = f[B] * pool[C]`
    pub const FMULC: u8 = 60;
    /// `f[A] = f[B] / pool[C]`
    pub const FDIVC: u8 = 61;
    /// `f[A] = pool[C] / f[B]`
    pub const FDIVCR: u8 = 62;
    /// `if !(i[A] cmp(D) B as i16) { pc = C }`
    pub const ICJFI: u8 = 63;
    /// `if i[A] cmp(D) B as i16 { pc = C }`
    pub const ICJTI: u8 = 64;
    /// Number of opcodes (all values below are valid).
    pub const COUNT: u8 = 65;
}

/// Every intrinsic, indexed by its packed 6-bit code ([`intr_code`]).
/// A link-time constant, so the dispatch loop decodes intrinsics without
/// carrying a per-function table pointer.
pub const INTRINSICS: [Intrinsic; 26] = [
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

/// The 6-bit code of an intrinsic: its index in [`INTRINSICS`]. Fits the
/// packed D field alongside a 2-bit precision code (26 < 64).
#[inline]
pub fn intr_code(i: Intrinsic) -> u8 {
    INTRINSICS
        .iter()
        .position(|&x| x == i)
        .expect("every intrinsic is in the table") as u8
}

/// Checked inverse of [`intr_code`].
#[inline]
pub fn intr_from(code: u8) -> Option<Intrinsic> {
    INTRINSICS.get(code as usize).copied()
}

/// The packed program: one `u64` word per enum instruction, plus the
/// hoisted constant pool the words index into.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedCode {
    /// One packed word per instruction (`words.len() == instrs.len()`;
    /// word `k` encodes `instrs[k]`, so `pc`, spans and jump targets are
    /// shared with the enum stream).
    pub words: Vec<u64>,
    /// Hoisted wide constants, deduplicated by bit pattern: `f64`s are
    /// stored as their bits (`FCONST` reads them back with
    /// [`f64::from_bits`]), `i64` immediates as their two's-complement
    /// bits. One pool keeps one live pointer in the dispatch loop.
    pub pool: Vec<u64>,
}

impl PackedCode {
    /// Human-readable disassembly of the packed stream: raw word plus its
    /// decoded instruction (or `<undecodable>` for malformed words).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "packed ({} words, pool={})",
            self.words.len(),
            self.pool.len()
        );
        for (pc, &w) in self.words.iter().enumerate() {
            match decode(w, self) {
                Some(ins) => {
                    let _ = writeln!(out, "{pc:4}: {w:016x}  {ins:?}");
                }
                None => {
                    let _ = writeln!(out, "{pc:4}: {w:016x}  <undecodable>");
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------- fields

/// Opcode byte of a word.
#[inline(always)]
pub fn opcode(w: u64) -> u8 {
    w as u8
}

/// 16-bit A field (bits 8..24).
#[inline(always)]
pub fn fa(w: u64) -> usize {
    (w >> 8) as u16 as usize
}

/// 16-bit B field (bits 24..40).
#[inline(always)]
pub fn fb(w: u64) -> usize {
    (w >> 24) as u16 as usize
}

/// 16-bit C field (bits 40..56).
#[inline(always)]
pub fn fc(w: u64) -> usize {
    (w >> 40) as u16 as usize
}

/// 8-bit D field (bits 56..64).
#[inline(always)]
pub fn fd(w: u64) -> usize {
    (w >> 56) as usize
}

/// B field as a sign-extended i16 immediate.
#[inline(always)]
pub fn fb_i16(w: u64) -> i64 {
    (w >> 24) as u16 as i16 as i64
}

/// C field as a sign-extended i16 immediate.
#[inline(always)]
pub fn fc_i16(w: u64) -> i64 {
    (w >> 40) as u16 as i16 as i64
}

/// D field as a sign-extended i8 offset.
#[inline(always)]
pub fn fd_i8(w: u64) -> i64 {
    (w >> 56) as u8 as i8 as i64
}

// Hot-loop field accessors: read operand fields straight out of the
// word stream with `pc`-relative addresses. On little-endian targets
// these compile to independent narrow loads whose addresses depend only
// on `pc` — not on the loaded word — so they issue in parallel with the
// dispatch jump instead of chaining load → shift → use (the big-endian
// fallback decodes via shifts). Words are 8-byte aligned, so the narrow
// loads never cross a cache line.
//
// # Safety
// All require `pc < words.len()`.

/// Opcode byte of word `pc`.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_op(words: &[u64], pc: usize) -> u8 {
    #[cfg(target_endian = "little")]
    return *words.as_ptr().cast::<u8>().add(pc * 8);
    #[cfg(not(target_endian = "little"))]
    return opcode(*words.get_unchecked(pc));
}

/// A field of word `pc`.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_a(words: &[u64], pc: usize) -> usize {
    #[cfg(target_endian = "little")]
    return words
        .as_ptr()
        .cast::<u8>()
        .add(pc * 8 + 1)
        .cast::<u16>()
        .read_unaligned() as usize;
    #[cfg(not(target_endian = "little"))]
    return fa(*words.get_unchecked(pc));
}

/// B field of word `pc`.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_b(words: &[u64], pc: usize) -> usize {
    #[cfg(target_endian = "little")]
    return words
        .as_ptr()
        .cast::<u8>()
        .add(pc * 8 + 3)
        .cast::<u16>()
        .read_unaligned() as usize;
    #[cfg(not(target_endian = "little"))]
    return fb(*words.get_unchecked(pc));
}

/// C field of word `pc`.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_c(words: &[u64], pc: usize) -> usize {
    #[cfg(target_endian = "little")]
    return words
        .as_ptr()
        .cast::<u8>()
        .add(pc * 8 + 5)
        .cast::<u16>()
        .read_unaligned() as usize;
    #[cfg(not(target_endian = "little"))]
    return fc(*words.get_unchecked(pc));
}

/// D field of word `pc`.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_d(words: &[u64], pc: usize) -> usize {
    #[cfg(target_endian = "little")]
    return *words.as_ptr().cast::<u8>().add(pc * 8 + 7) as usize;
    #[cfg(not(target_endian = "little"))]
    return fd(*words.get_unchecked(pc));
}

/// B field of word `pc` as a sign-extended i16.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_b_i16(words: &[u64], pc: usize) -> i64 {
    #[cfg(target_endian = "little")]
    return words
        .as_ptr()
        .cast::<u8>()
        .add(pc * 8 + 3)
        .cast::<i16>()
        .read_unaligned() as i64;
    #[cfg(not(target_endian = "little"))]
    return fb_i16(*words.get_unchecked(pc));
}

/// C field of word `pc` as a sign-extended i16.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_c_i16(words: &[u64], pc: usize) -> i64 {
    #[cfg(target_endian = "little")]
    return words
        .as_ptr()
        .cast::<u8>()
        .add(pc * 8 + 5)
        .cast::<i16>()
        .read_unaligned() as i64;
    #[cfg(not(target_endian = "little"))]
    return fc_i16(*words.get_unchecked(pc));
}

/// D field of word `pc` as a sign-extended i8.
///
/// # Safety
/// `pc < words.len()`.
#[inline(always)]
pub unsafe fn w_d_i8(words: &[u64], pc: usize) -> i64 {
    #[cfg(target_endian = "little")]
    return *words.as_ptr().cast::<u8>().add(pc * 8 + 7).cast::<i8>() as i64;
    #[cfg(not(target_endian = "little"))]
    return fd_i8(*words.get_unchecked(pc));
}

#[inline(always)]
fn word(op: u8, a: u16, b: u16, c: u16, d: u8) -> u64 {
    op as u64 | (a as u64) << 8 | (b as u64) << 24 | (c as u64) << 40 | (d as u64) << 56
}

/// 2-bit precision code in the D field (shared with a 6-bit intrinsic
/// index by the `FINTR*ROUND` forms).
#[inline(always)]
pub fn ty_code(ty: FloatTy) -> u8 {
    match ty {
        FloatTy::F16 => 0,
        FloatTy::BF16 => 1,
        FloatTy::F32 => 2,
        FloatTy::F64 => 3,
    }
}

/// Inverse of [`ty_code`].
#[inline(always)]
pub fn ty_from(code: u8) -> FloatTy {
    match code & 3 {
        0 => FloatTy::F16,
        1 => FloatTy::BF16,
        2 => FloatTy::F32,
        _ => FloatTy::F64,
    }
}

/// Comparison-operator code in the D field.
#[inline(always)]
pub fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

/// Inverse of [`cmp_code`] (codes ≥ 6 alias `Ge`; the packer never emits
/// them and validation rejects words that do not decode to their enum
/// instruction).
#[inline(always)]
pub fn cmp_from(code: u8) -> CmpOp {
    match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

// ----------------------------------------------------------------- pack

struct Pools {
    pool: Vec<u64>,
    map: HashMap<u64, u16>,
}

impl Pools {
    fn new() -> Self {
        Pools {
            pool: Vec::new(),
            map: HashMap::new(),
        }
    }

    fn entry(&mut self, bits: u64) -> Option<u16> {
        if let Some(&k) = self.map.get(&bits) {
            return Some(k);
        }
        let k = u16::try_from(self.pool.len()).ok()?;
        self.pool.push(bits);
        self.map.insert(bits, k);
        Some(k)
    }
}

#[inline]
fn r16(r: u32) -> Option<u16> {
    u16::try_from(r).ok()
}

#[inline]
fn r8(r: u32) -> Option<u8> {
    u8::try_from(r).ok()
}

/// Packs one enum instruction, interning wide constants through `pool`
/// (bits → pool index); `None` when an operand is outside its field or
/// `pool` is full. The match arms are the format's range rules, stated
/// once: [`fits`] asks them with an unbounded pool.
fn pack_instr(ins: &Instr, pool: &mut impl FnMut(u64) -> Option<u16>) -> Option<u64> {
    use op::*;
    Some(match *ins {
        Instr::FConst { dst, v } => word(FCONST, r16(dst.0)?, pool(v.to_bits())?, 0, 0),
        Instr::FMov { dst, src } => word(FMOV, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::FAdd { dst, a, b } => word(FADD, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::FSub { dst, a, b } => word(FSUB, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::FMul { dst, a, b } => word(FMUL, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::FDiv { dst, a, b } => word(FDIV, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::FNeg { dst, src } => word(FNEG, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::FRound { dst, src, ty } => word(FROUND, r16(dst.0)?, r16(src.0)?, 0, ty_code(ty)),
        Instr::FIntr1 { dst, intr, a } => word(FINTR1, r16(dst.0)?, r16(a.0)?, 0, intr_code(intr)),
        Instr::FIntr2 { dst, intr, a, b } => {
            word(FINTR2, r16(dst.0)?, r16(a.0)?, r16(b.0)?, intr_code(intr))
        }
        Instr::FCmp { dst, op, a, b } => {
            word(FCMP, r16(dst.0)?, r16(a.0)?, r16(b.0)?, cmp_code(op))
        }
        Instr::FLoad { dst, arr, idx } => word(FLOAD, r16(dst.0)?, r16(arr.0)?, r16(idx.0)?, 0),
        Instr::FStore { arr, idx, src } => word(FSTORE, r16(arr.0)?, r16(idx.0)?, r16(src.0)?, 0),
        Instr::F2I { dst, src } => word(F2I, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::I2F { dst, src } => word(I2F, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::IConst { dst, v } => match i16::try_from(v) {
            Ok(imm) => word(ICONST, r16(dst.0)?, imm as u16, 0, 0),
            Err(_) => word(ICONSTP, r16(dst.0)?, pool(v as u64)?, 0, 0),
        },
        Instr::IMov { dst, src } => word(IMOV, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::IAdd { dst, a, b } => word(IADD, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::ISub { dst, a, b } => word(ISUB, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::IMul { dst, a, b } => word(IMUL, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::IDiv { dst, a, b } => word(IDIV, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::IRem { dst, a, b } => word(IREM, r16(dst.0)?, r16(a.0)?, r16(b.0)?, 0),
        Instr::INeg { dst, src } => word(INEG, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::ICmp { dst, op, a, b } => {
            word(ICMP, r16(dst.0)?, r16(a.0)?, r16(b.0)?, cmp_code(op))
        }
        Instr::ILoad { dst, arr, idx } => word(ILOAD, r16(dst.0)?, r16(arr.0)?, r16(idx.0)?, 0),
        Instr::IStore { arr, idx, src } => word(ISTORE, r16(arr.0)?, r16(idx.0)?, r16(src.0)?, 0),
        Instr::BNot { dst, src } => word(BNOT, r16(dst.0)?, r16(src.0)?, 0, 0),
        Instr::Jmp { target } => word(JMP, 0, 0, r16(target)?, 0),
        Instr::JmpIfFalse { cond, target } => word(JMPF, r16(cond.0)?, 0, r16(target)?, 0),
        Instr::JmpIfTrue { cond, target } => word(JMPT, r16(cond.0)?, 0, r16(target)?, 0),
        Instr::TPushF { src } => word(TPUSHF, r16(src.0)?, 0, 0, 0),
        Instr::TPopF { dst } => word(TPOPF, r16(dst.0)?, 0, 0, 0),
        Instr::TPushI { src } => word(TPUSHI, r16(src.0)?, 0, 0, 0),
        Instr::TPopI { dst } => word(TPOPI, r16(dst.0)?, 0, 0, 0),
        Instr::AllocF { arr, len } => word(ALLOCF, r16(arr.0)?, r16(len.0)?, 0, 0),
        Instr::AllocI { arr, len } => word(ALLOCI, r16(arr.0)?, r16(len.0)?, 0, 0),
        Instr::FMulAdd { dst, a, b, c } => {
            word(FMULADD, r16(dst.0)?, r16(a.0)?, r16(b.0)?, r8(c.0)?)
        }
        Instr::FAddRound { dst, a, b, ty } => {
            word(FADDROUND, r16(dst.0)?, r16(a.0)?, r16(b.0)?, ty_code(ty))
        }
        Instr::FSubRound { dst, a, b, ty } => {
            word(FSUBROUND, r16(dst.0)?, r16(a.0)?, r16(b.0)?, ty_code(ty))
        }
        Instr::FMulRound { dst, a, b, ty } => {
            word(FMULROUND, r16(dst.0)?, r16(a.0)?, r16(b.0)?, ty_code(ty))
        }
        Instr::FDivRound { dst, a, b, ty } => {
            word(FDIVROUND, r16(dst.0)?, r16(a.0)?, r16(b.0)?, ty_code(ty))
        }
        Instr::FIntr1Round { dst, intr, a, ty } => {
            let d = (ty_code(ty) << 6) | intr_code(intr);
            word(FINTR1ROUND, r16(dst.0)?, r16(a.0)?, 0, d)
        }
        Instr::FIntr2Round {
            dst,
            intr,
            a,
            b,
            ty,
        } => {
            let d = (ty_code(ty) << 6) | intr_code(intr);
            word(FINTR2ROUND, r16(dst.0)?, r16(a.0)?, r16(b.0)?, d)
        }
        Instr::FLoadOff {
            dst,
            arr,
            base,
            off,
        } => {
            let off = i8::try_from(off).ok()?;
            word(FLOADOFF, r16(dst.0)?, r16(arr.0)?, r16(base.0)?, off as u8)
        }
        Instr::FStoreOff {
            arr,
            base,
            off,
            src,
        } => {
            let off = i8::try_from(off).ok()?;
            word(FSTOREOFF, r16(arr.0)?, r16(base.0)?, r16(src.0)?, off as u8)
        }
        Instr::IAddImm { dst, a, imm } => match i16::try_from(imm) {
            Ok(v) => word(IADDIMM, r16(dst.0)?, r16(a.0)?, v as u16, 0),
            Err(_) => word(IADDIMMP, r16(dst.0)?, r16(a.0)?, pool(imm as u64)?, 0),
        },
        Instr::FCmpJmpFalse { op, a, b, target } => {
            word(FCJF, r16(a.0)?, r16(b.0)?, r16(target)?, cmp_code(op))
        }
        Instr::FCmpJmpTrue { op, a, b, target } => {
            word(FCJT, r16(a.0)?, r16(b.0)?, r16(target)?, cmp_code(op))
        }
        Instr::ICmpJmpFalse { op, a, b, target } => {
            word(ICJF, r16(a.0)?, r16(b.0)?, r16(target)?, cmp_code(op))
        }
        Instr::ICmpJmpTrue { op, a, b, target } => {
            word(ICJT, r16(a.0)?, r16(b.0)?, r16(target)?, cmp_code(op))
        }
        Instr::FAddC { dst, a, k } => word(FADDC, r16(dst.0)?, r16(a.0)?, pool(k.to_bits())?, 0),
        Instr::FSubC { dst, a, k } => word(FSUBC, r16(dst.0)?, r16(a.0)?, pool(k.to_bits())?, 0),
        Instr::FSubCR { dst, k, a } => word(FSUBCR, r16(dst.0)?, r16(a.0)?, pool(k.to_bits())?, 0),
        Instr::FMulC { dst, a, k } => word(FMULC, r16(dst.0)?, r16(a.0)?, pool(k.to_bits())?, 0),
        Instr::FDivC { dst, a, k } => word(FDIVC, r16(dst.0)?, r16(a.0)?, pool(k.to_bits())?, 0),
        Instr::FDivCR { dst, k, a } => word(FDIVCR, r16(dst.0)?, r16(a.0)?, pool(k.to_bits())?, 0),
        Instr::ICmpImmJmpFalse { op, a, imm, target } => {
            let imm = i16::try_from(imm).ok()?;
            word(ICJFI, r16(a.0)?, imm as u16, r16(target)?, cmp_code(op))
        }
        Instr::ICmpImmJmpTrue { op, a, imm, target } => {
            let imm = i16::try_from(imm).ok()?;
            word(ICJTI, r16(a.0)?, imm as u16, r16(target)?, cmp_code(op))
        }
        Instr::RetF { src } => word(RETF, r16(src.0)?, 0, 0, 0),
        Instr::RetI { src } => word(RETI, r16(src.0)?, 0, 0, 0),
        Instr::RetB { src } => word(RETB, r16(src.0)?, 0, 0, 0),
        Instr::RetVoid => word(RETVOID, 0, 0, 0, 0),
        Instr::TrapMissingReturn => word(TRAPMISSING, 0, 0, 0, 0),
    })
}

/// Whether `ins` has a packed encoding: every register below 65 536
/// (below 256 for [`Instr::FMulAdd`]'s addend), every jump target below
/// 65 536, an [`Instr::FLoadOff`]/[`Instr::FStoreOff`] offset within
/// `i8` and an [`Instr::ICmpImmJmpFalse`]/[`Instr::ICmpImmJmpTrue`]
/// immediate within `i16`. (The constant pool never runs short: each
/// instruction pools at most one constant, so a function within the
/// length limit needs fewer than the 65 536 indices a u16 addresses.)
/// [`crate::fuse`] asks this before it emits a superinstruction, so
/// fusion never produces an unpackable form.
pub fn fits(ins: &Instr) -> bool {
    pack_instr(ins, &mut |_| Some(0)).is_some()
}

/// A function the packed format cannot hold: the limit it exceeds, and
/// the first instruction over it (`None` for the length limit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Unpackable {
    /// Index of the offending instruction, when one is to blame.
    pub pc: Option<usize>,
    /// Which limit is exceeded, in words.
    pub limit: String,
}

/// Packs a whole function, or reports the format limit it exceeds.
/// [`crate::compile::compile`] turns the error into a
/// [`crate::compile::CompileError::Unsupported`].
pub(crate) fn try_pack(func: &CompiledFunction) -> Result<PackedCode, Unpackable> {
    // Jump targets may legally equal the instruction count ("jump to the
    // end"), so the count itself must fit the 16-bit target field.
    if func.instrs.len() > u16::MAX as usize {
        return Err(Unpackable {
            pc: None,
            limit: format!(
                "{} instructions; the packed format holds at most 65 535",
                func.instrs.len()
            ),
        });
    }
    let mut pools = Pools::new();
    let mut words = Vec::with_capacity(func.instrs.len());
    for (pc, ins) in func.instrs.iter().enumerate() {
        let Some(w) = pack_instr(ins, &mut |bits| pools.entry(bits)) else {
            return Err(Unpackable {
                pc: Some(pc),
                limit: format!("an operand of {ins:?} is wider than its packed field"),
            });
        };
        words.push(w);
    }
    Ok(PackedCode {
        words,
        pool: pools.pool,
    })
}

/// Packs a whole function; `None` when it exceeds a format limit
/// ([`crate::compile::compile`] reports which, as a compile error).
pub fn pack_function(func: &CompiledFunction) -> Option<PackedCode> {
    try_pack(func).ok()
}

/// Decodes one packed word back to its enum instruction; `None` for an
/// unknown opcode or an out-of-range pool index. Total inverse of the
/// packer: `decode(pack_instr(i)) == Some(i)` (bit-for-bit on constants).
pub fn decode(w: u64, p: &PackedCode) -> Option<Instr> {
    use op::*;
    let (a, b, c, d) = (fa(w), fb(w), fc(w), fd(w));
    Some(match opcode(w) {
        FCONST => Instr::FConst {
            dst: FReg(a as u32),
            v: f64::from_bits(*p.pool.get(b)?),
        },
        FMOV => Instr::FMov {
            dst: FReg(a as u32),
            src: FReg(b as u32),
        },
        FADD => Instr::FAdd {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
        },
        FSUB => Instr::FSub {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
        },
        FMUL => Instr::FMul {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
        },
        FDIV => Instr::FDiv {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
        },
        FNEG => Instr::FNeg {
            dst: FReg(a as u32),
            src: FReg(b as u32),
        },
        FROUND => Instr::FRound {
            dst: FReg(a as u32),
            src: FReg(b as u32),
            ty: ty_from(d as u8),
        },
        FINTR1 => Instr::FIntr1 {
            dst: FReg(a as u32),
            intr: intr_from(d as u8)?,
            a: FReg(b as u32),
        },
        FINTR2 => Instr::FIntr2 {
            dst: FReg(a as u32),
            intr: intr_from(d as u8)?,
            a: FReg(b as u32),
            b: FReg(c as u32),
        },
        FCMP => Instr::FCmp {
            dst: IReg(a as u32),
            op: cmp_from(d as u8),
            a: FReg(b as u32),
            b: FReg(c as u32),
        },
        FLOAD => Instr::FLoad {
            dst: FReg(a as u32),
            arr: AReg(b as u32),
            idx: IReg(c as u32),
        },
        FSTORE => Instr::FStore {
            arr: AReg(a as u32),
            idx: IReg(b as u32),
            src: FReg(c as u32),
        },
        F2I => Instr::F2I {
            dst: IReg(a as u32),
            src: FReg(b as u32),
        },
        I2F => Instr::I2F {
            dst: FReg(a as u32),
            src: IReg(b as u32),
        },
        ICONST => Instr::IConst {
            dst: IReg(a as u32),
            v: fb_i16(w),
        },
        ICONSTP => Instr::IConst {
            dst: IReg(a as u32),
            v: *p.pool.get(b)? as i64,
        },
        IMOV => Instr::IMov {
            dst: IReg(a as u32),
            src: IReg(b as u32),
        },
        IADD => Instr::IAdd {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            b: IReg(c as u32),
        },
        ISUB => Instr::ISub {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            b: IReg(c as u32),
        },
        IMUL => Instr::IMul {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            b: IReg(c as u32),
        },
        IDIV => Instr::IDiv {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            b: IReg(c as u32),
        },
        IREM => Instr::IRem {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            b: IReg(c as u32),
        },
        INEG => Instr::INeg {
            dst: IReg(a as u32),
            src: IReg(b as u32),
        },
        ICMP => Instr::ICmp {
            dst: IReg(a as u32),
            op: cmp_from(d as u8),
            a: IReg(b as u32),
            b: IReg(c as u32),
        },
        ILOAD => Instr::ILoad {
            dst: IReg(a as u32),
            arr: AReg(b as u32),
            idx: IReg(c as u32),
        },
        ISTORE => Instr::IStore {
            arr: AReg(a as u32),
            idx: IReg(b as u32),
            src: IReg(c as u32),
        },
        BNOT => Instr::BNot {
            dst: IReg(a as u32),
            src: IReg(b as u32),
        },
        JMP => Instr::Jmp { target: c as u32 },
        JMPF => Instr::JmpIfFalse {
            cond: IReg(a as u32),
            target: c as u32,
        },
        JMPT => Instr::JmpIfTrue {
            cond: IReg(a as u32),
            target: c as u32,
        },
        TPUSHF => Instr::TPushF {
            src: FReg(a as u32),
        },
        TPOPF => Instr::TPopF {
            dst: FReg(a as u32),
        },
        TPUSHI => Instr::TPushI {
            src: IReg(a as u32),
        },
        TPOPI => Instr::TPopI {
            dst: IReg(a as u32),
        },
        ALLOCF => Instr::AllocF {
            arr: AReg(a as u32),
            len: IReg(b as u32),
        },
        ALLOCI => Instr::AllocI {
            arr: AReg(a as u32),
            len: IReg(b as u32),
        },
        FMULADD => Instr::FMulAdd {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
            c: FReg(d as u32),
        },
        FADDROUND => Instr::FAddRound {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
            ty: ty_from(d as u8),
        },
        FSUBROUND => Instr::FSubRound {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
            ty: ty_from(d as u8),
        },
        FMULROUND => Instr::FMulRound {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
            ty: ty_from(d as u8),
        },
        FDIVROUND => Instr::FDivRound {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            b: FReg(c as u32),
            ty: ty_from(d as u8),
        },
        FINTR1ROUND => Instr::FIntr1Round {
            dst: FReg(a as u32),
            intr: intr_from((d & 63) as u8)?,
            a: FReg(b as u32),
            ty: ty_from((d >> 6) as u8),
        },
        FINTR2ROUND => Instr::FIntr2Round {
            dst: FReg(a as u32),
            intr: intr_from((d & 63) as u8)?,
            a: FReg(b as u32),
            b: FReg(c as u32),
            ty: ty_from((d >> 6) as u8),
        },
        FLOADOFF => Instr::FLoadOff {
            dst: FReg(a as u32),
            arr: AReg(b as u32),
            base: IReg(c as u32),
            off: fd_i8(w) as i32,
        },
        FSTOREOFF => Instr::FStoreOff {
            arr: AReg(a as u32),
            base: IReg(b as u32),
            off: fd_i8(w) as i32,
            src: FReg(c as u32),
        },
        IADDIMM => Instr::IAddImm {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            imm: fc_i16(w),
        },
        IADDIMMP => Instr::IAddImm {
            dst: IReg(a as u32),
            a: IReg(b as u32),
            imm: *p.pool.get(c)? as i64,
        },
        FCJF => Instr::FCmpJmpFalse {
            op: cmp_from(d as u8),
            a: FReg(a as u32),
            b: FReg(b as u32),
            target: c as u32,
        },
        FCJT => Instr::FCmpJmpTrue {
            op: cmp_from(d as u8),
            a: FReg(a as u32),
            b: FReg(b as u32),
            target: c as u32,
        },
        ICJF => Instr::ICmpJmpFalse {
            op: cmp_from(d as u8),
            a: IReg(a as u32),
            b: IReg(b as u32),
            target: c as u32,
        },
        ICJT => Instr::ICmpJmpTrue {
            op: cmp_from(d as u8),
            a: IReg(a as u32),
            b: IReg(b as u32),
            target: c as u32,
        },
        FADDC => Instr::FAddC {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            k: f64::from_bits(*p.pool.get(c)?),
        },
        FSUBC => Instr::FSubC {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            k: f64::from_bits(*p.pool.get(c)?),
        },
        FSUBCR => Instr::FSubCR {
            dst: FReg(a as u32),
            k: f64::from_bits(*p.pool.get(c)?),
            a: FReg(b as u32),
        },
        FMULC => Instr::FMulC {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            k: f64::from_bits(*p.pool.get(c)?),
        },
        FDIVC => Instr::FDivC {
            dst: FReg(a as u32),
            a: FReg(b as u32),
            k: f64::from_bits(*p.pool.get(c)?),
        },
        FDIVCR => Instr::FDivCR {
            dst: FReg(a as u32),
            k: f64::from_bits(*p.pool.get(c)?),
            a: FReg(b as u32),
        },
        ICJFI => Instr::ICmpImmJmpFalse {
            op: cmp_from(d as u8),
            a: IReg(a as u32),
            imm: fb_i16(w),
            target: c as u32,
        },
        ICJTI => Instr::ICmpImmJmpTrue {
            op: cmp_from(d as u8),
            a: IReg(a as u32),
            imm: fb_i16(w),
            target: c as u32,
        },
        RETF => Instr::RetF {
            src: FReg(a as u32),
        },
        RETI => Instr::RetI {
            src: IReg(a as u32),
        },
        RETB => Instr::RetB {
            src: IReg(a as u32),
        },
        RETVOID => Instr::RetVoid,
        TRAPMISSING => Instr::TrapMissingReturn,
        _ => return None,
    })
}

/// Instruction equality with bit-exact float comparison (`FConst` holding
/// a NaN must still round-trip; `PartialEq` on `f64` would reject it):
/// both instructions pack to the same word. Each instruction pools at
/// most one constant, so the two packings share a two-entry interner,
/// and equal words mean equal constant bits. An instruction the format
/// cannot hold equals nothing.
pub fn instr_eq_bits(x: &Instr, y: &Instr) -> bool {
    let mut seen = [0u64; 2];
    let mut len = 0;
    let mut intern = |bits: u64| {
        let k = seen[..len]
            .iter()
            .position(|&s| s == bits)
            .unwrap_or_else(|| {
                seen[len] = bits;
                len += 1;
                len - 1
            });
        Some(k as u16)
    };
    let wx = pack_instr(x, &mut intern);
    wx.is_some() && wx == pack_instr(y, &mut intern)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Packs, decodes and compares one instruction; returns its word.
    fn roundtrip(ins: Instr) -> u64 {
        let mut pools = Pools::new();
        let w = pack_instr(&ins, &mut |b| pools.entry(b)).expect("packs");
        let p = PackedCode {
            words: vec![w],
            pool: pools.pool,
        };
        let back = decode(w, &p).expect("decodes");
        assert!(instr_eq_bits(&ins, &back), "{ins:?} != {back:?}");
        w
    }

    /// One instruction of every shape, with edge-case constants,
    /// immediates, offsets and operand widths. Every packed opcode has
    /// at least one (checked by `every_instruction_shape_round_trips`),
    /// so every `Instr` variant does too.
    pub(crate) fn instruction_shapes() -> Vec<Instr> {
        use chef_ir::ast::Intrinsic;
        let f = FReg;
        let i = IReg;
        vec![
            Instr::FConst { dst: f(3), v: 1.5 },
            Instr::FConst {
                dst: f(0),
                v: f64::NAN,
            },
            Instr::FConst { dst: f(0), v: -0.0 },
            Instr::FMov {
                dst: f(1),
                src: f(2),
            },
            Instr::FAdd {
                dst: f(1),
                a: f(2),
                b: f(3),
            },
            Instr::FRound {
                dst: f(1),
                src: f(2),
                ty: FloatTy::BF16,
            },
            Instr::FIntr1 {
                dst: f(1),
                intr: Intrinsic::Sin,
                a: f(2),
            },
            Instr::FIntr2 {
                dst: f(1),
                intr: Intrinsic::Pow,
                a: f(2),
                b: f(3),
            },
            Instr::FIntr1Round {
                dst: f(1),
                intr: Intrinsic::Sqrt,
                a: f(2),
                ty: FloatTy::F32,
            },
            Instr::FIntr2Round {
                dst: f(1),
                intr: Intrinsic::Fmax,
                a: f(2),
                b: f(3),
                ty: FloatTy::F16,
            },
            Instr::FCmp {
                dst: i(1),
                op: CmpOp::Le,
                a: f(2),
                b: f(3),
            },
            Instr::FLoad {
                dst: f(1),
                arr: AReg(0),
                idx: i(2),
            },
            Instr::FStore {
                arr: AReg(0),
                idx: i(2),
                src: f(1),
            },
            Instr::IConst {
                dst: i(1),
                v: -32768,
            },
            Instr::IConst {
                dst: i(1),
                v: 1 << 40,
            },
            Instr::IAddImm {
                dst: i(1),
                a: i(2),
                imm: -1,
            },
            Instr::IAddImm {
                dst: i(1),
                a: i(2),
                imm: i64::MIN,
            },
            Instr::Jmp { target: 65535 },
            Instr::JmpIfFalse {
                cond: i(1),
                target: 7,
            },
            Instr::FMulAdd {
                dst: f(1),
                a: f(2),
                b: f(3),
                c: f(255),
            },
            Instr::FAddRound {
                dst: f(1),
                a: f(2),
                b: f(3),
                ty: FloatTy::F32,
            },
            Instr::FLoadOff {
                dst: f(1),
                arr: AReg(0),
                base: i(2),
                off: -128,
            },
            Instr::FStoreOff {
                arr: AReg(0),
                base: i(2),
                off: 127,
                src: f(1),
            },
            Instr::FCmpJmpFalse {
                op: CmpOp::Gt,
                a: f(1),
                b: f(2),
                target: 12,
            },
            Instr::ICmpJmpTrue {
                op: CmpOp::Ne,
                a: i(1),
                b: i(2),
                target: 0,
            },
            Instr::TPushF { src: f(9) },
            Instr::TPopI { dst: i(9) },
            Instr::AllocF {
                arr: AReg(1),
                len: i(0),
            },
            Instr::RetF { src: f(0) },
            Instr::RetVoid,
            Instr::TrapMissingReturn,
            Instr::FSub {
                dst: f(4),
                a: f(5),
                b: f(6),
            },
            Instr::FMul {
                dst: f(4),
                a: f(4),
                b: f(6),
            },
            Instr::FDiv {
                dst: f(6),
                a: f(5),
                b: f(4),
            },
            Instr::FNeg {
                dst: f(2),
                src: f(7),
            },
            Instr::F2I {
                dst: i(3),
                src: f(4),
            },
            Instr::I2F {
                dst: f(3),
                src: i(4),
            },
            Instr::IMov {
                dst: i(3),
                src: i(5),
            },
            Instr::IAdd {
                dst: i(4),
                a: i(5),
                b: i(6),
            },
            Instr::ISub {
                dst: i(6),
                a: i(5),
                b: i(4),
            },
            Instr::IMul {
                dst: i(4),
                a: i(4),
                b: i(4),
            },
            Instr::IDiv {
                dst: i(1),
                a: i(2),
                b: i(3),
            },
            Instr::IRem {
                dst: i(3),
                a: i(2),
                b: i(1),
            },
            Instr::INeg {
                dst: i(2),
                src: i(8),
            },
            Instr::ICmp {
                dst: i(1),
                op: CmpOp::Eq,
                a: i(2),
                b: i(3),
            },
            Instr::ILoad {
                dst: i(1),
                arr: AReg(2),
                idx: i(3),
            },
            Instr::IStore {
                arr: AReg(3),
                idx: i(2),
                src: i(1),
            },
            Instr::BNot {
                dst: i(1),
                src: i(1),
            },
            Instr::JmpIfTrue {
                cond: i(2),
                target: 3,
            },
            Instr::TPopF { dst: f(4) },
            Instr::TPushI { src: i(4) },
            Instr::AllocI {
                arr: AReg(2),
                len: i(5),
            },
            Instr::FSubRound {
                dst: f(1),
                a: f(2),
                b: f(3),
                ty: FloatTy::F16,
            },
            Instr::FMulRound {
                dst: f(3),
                a: f(2),
                b: f(1),
                ty: FloatTy::BF16,
            },
            Instr::FDivRound {
                dst: f(2),
                a: f(3),
                b: f(1),
                ty: FloatTy::F64,
            },
            Instr::FCmpJmpTrue {
                op: CmpOp::Lt,
                a: f(3),
                b: f(1),
                target: 2,
            },
            Instr::ICmpJmpFalse {
                op: CmpOp::Ge,
                a: i(3),
                b: i(4),
                target: 5,
            },
            Instr::ICmpImmJmpFalse {
                op: CmpOp::Lt,
                a: i(2),
                imm: -32768,
                target: 4,
            },
            Instr::ICmpImmJmpTrue {
                op: CmpOp::Ge,
                a: i(5),
                imm: 32767,
                target: 1,
            },
            Instr::FAddC {
                dst: f(1),
                a: f(2),
                k: 0.5,
            },
            Instr::FSubC {
                dst: f(2),
                a: f(1),
                k: f64::INFINITY,
            },
            Instr::FSubCR {
                dst: f(3),
                k: -0.0,
                a: f(4),
            },
            Instr::FMulC {
                dst: f(4),
                a: f(4),
                k: f64::NAN,
            },
            Instr::FDivC {
                dst: f(5),
                a: f(6),
                k: 3.0,
            },
            Instr::FDivCR {
                dst: f(6),
                k: 1.0,
                a: f(5),
            },
            Instr::RetI { src: i(7) },
            Instr::RetB { src: i(0) },
        ]
    }

    #[test]
    fn every_instruction_shape_round_trips() {
        let opcodes: std::collections::HashSet<u8> = instruction_shapes()
            .into_iter()
            .map(|ins| opcode(roundtrip(ins)))
            .collect();
        assert_eq!(opcodes.len(), op::COUNT as usize, "an opcode has no shape");
    }

    #[test]
    fn packer_bails_on_wide_operands() {
        // 4th register of FMulAdd only has 8 bits.
        for (c, ok) in [(255, true), (256, false)] {
            let ins = Instr::FMulAdd {
                dst: FReg(0),
                a: FReg(1),
                b: FReg(2),
                c: FReg(c),
            };
            assert_eq!(fits(&ins), ok, "{ins:?}");
        }
        // Register above the 16-bit field.
        assert!(!fits(&Instr::FMov {
            dst: FReg(70_000),
            src: FReg(0),
        }));
        // Immediate compare-and-branch keeps its immediate in i16.
        for (imm, ok) in [
            (-32768, true),
            (32767, true),
            (32768, false),
            (-32769, false),
        ] {
            let ins = Instr::ICmpImmJmpFalse {
                op: CmpOp::Lt,
                a: IReg(0),
                imm,
                target: 0,
            };
            assert_eq!(fits(&ins), ok, "{ins:?}");
        }
    }

    #[test]
    fn offset_i8_boundaries_pack_exactly() {
        // The D field holds the offset as `off as u8`, so exactly
        // i8::MIN..=i8::MAX is representable: −128 and 127 round-trip,
        // −129 and 128 do not fit (for both the load and the store form).
        for off in [-128, 127] {
            roundtrip(Instr::FLoadOff {
                dst: FReg(1),
                arr: AReg(0),
                base: IReg(2),
                off,
            });
            roundtrip(Instr::FStoreOff {
                arr: AReg(0),
                base: IReg(2),
                off,
                src: FReg(1),
            });
        }
        for off in [-129, 128, 1000] {
            assert!(
                !fits(&Instr::FLoadOff {
                    dst: FReg(1),
                    arr: AReg(0),
                    base: IReg(2),
                    off,
                }),
                "FLoadOff off={off} must not fit"
            );
            assert!(
                !fits(&Instr::FStoreOff {
                    arr: AReg(0),
                    base: IReg(2),
                    off,
                    src: FReg(1),
                }),
                "FStoreOff off={off} must not fit"
            );
        }
    }

    #[test]
    fn try_pack_names_the_limit_it_hits() {
        let func = |instrs: Vec<Instr>| CompiledFunction {
            name: "t".into(),
            spans: vec![chef_ir::span::Span::DUMMY; instrs.len()],
            instrs,
            n_fregs: 70_001,
            n_iregs: 0,
            n_aregs: 0,
            params: vec![],
            ret: RetKind::Void,
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        let long = func(vec![Instr::RetVoid; 65_536]);
        let err = try_pack(&long).unwrap_err();
        assert_eq!(err.pc, None);
        assert!(err.limit.contains("65 535"), "{}", err.limit);
        assert!(pack_function(&long).is_none());
        assert!(try_pack(&func(vec![Instr::RetVoid; 65_535])).is_ok());
        let wide = func(vec![
            Instr::RetVoid,
            Instr::FMov {
                dst: FReg(70_000),
                src: FReg(0),
            },
        ]);
        let err = try_pack(&wide).unwrap_err();
        assert_eq!(err.pc, Some(1));
        assert!(
            err.limit.contains("wider than its packed field"),
            "{}",
            err.limit
        );
    }

    #[test]
    fn constants_are_pooled_and_deduplicated() {
        let mut pools = Pools::new();
        let w1 = pack_instr(
            &Instr::FConst {
                dst: FReg(0),
                v: 2.5,
            },
            &mut |b| pools.entry(b),
        )
        .unwrap();
        let w2 = pack_instr(
            &Instr::FConst {
                dst: FReg(1),
                v: 2.5,
            },
            &mut |b| pools.entry(b),
        )
        .unwrap();
        let w3 = pack_instr(
            &Instr::FConst {
                dst: FReg(2),
                v: 3.5,
            },
            &mut |b| pools.entry(b),
        )
        .unwrap();
        assert_eq!(pools.pool, vec![2.5f64.to_bits(), 3.5f64.to_bits()]);
        assert_eq!(fb(w1), fb(w2));
        assert_ne!(fb(w1), fb(w3));
    }

    #[test]
    fn disassemble_shows_decoded_instructions() {
        let mut pools = Pools::new();
        let w = pack_instr(
            &Instr::FConst {
                dst: FReg(0),
                v: 1.5,
            },
            &mut |b| pools.entry(b),
        )
        .unwrap();
        let p = PackedCode {
            words: vec![w],
            pool: pools.pool,
        };
        let d = p.disassemble();
        assert!(d.contains("FConst"), "{d}");
        assert!(d.contains("pool=1"), "{d}");
    }
}

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
//! Which variant each opcode packs, and which field sits in which slot,
//! is stated once, by the opcode table in `opcodes.rs`; the [`op`]
//! constants, the packer, [`decode`] and the operand visitor are
//! generated from it. A new opcode is one table row plus one dispatch
//! arm in `shadow::exec_loop`.
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
//!   in an 8-bit D position: [`Instr::FMulAdd`]'s, [`Instr::FMulSub`]'s
//!   and [`Instr::IMulAdd`]'s addend,
//!   [`Instr::FAbsMulC`]'s second factor, [`Instr::FAddAccK`]'s array;
//!   an [`Instr::FLoadOff`]/[`Instr::FStoreOff`] offset outside `i8`; an
//!   [`Instr::ICmpImmJmpFalse`]/[`Instr::ICmpImmJmpTrue`] immediate or
//!   [`Instr::FAddToK`]/[`Instr::FAddAccK`] index outside `i16`) are
//!   stated once, by [`fits`]. [`crate::fuse`] asks it before emitting a
//!   superinstruction and keeps the unfused sequence when the answer is
//!   no. Register compaction ([`crate::cfg`]) only lowers register
//!   indices, so it never turns a fitting instruction into one that
//!   does not.
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
//! inverse on packer output. Given where its constant sits in the pool,
//! an instruction has one canonical word. [`crate::vm::validate_function`]
//! bounds-checks every operand of the enum stream through the operand
//! visitor, then packs each instruction once more, taking pool indices
//! from the word itself (after checking that the entry holds the
//! instruction's constant bits), and requires the result to equal the
//! word. So a word runs only if it is the canonical packing of its
//! checked instruction: no stale word, no unknown opcode or code, no
//! junk in an unused field, and no pool index naming another constant.
//! The dispatch loop may then access registers and pools unchecked.
//! [`instr_eq_bits`] is the same packer used as bit-exact equality
//! (constants compare by `to_bits`).

use crate::bytecode::*;
use crate::opcodes::pack_instr;
use chef_ir::ast::Intrinsic;
use chef_ir::types::FloatTy;
use std::collections::HashMap;

pub use crate::opcodes::{decode, op};

/// Every intrinsic, indexed by its packed 6-bit code.
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

/// Every precision, indexed by its packed 2-bit code ([`ty_from`]).
pub const FLOAT_TYS: [FloatTy; 4] = [ty_from(0), ty_from(1), ty_from(2), ty_from(3)];

/// Every comparison, indexed by its packed code ([`cmp_from`]).
pub const CMP_OPS: [CmpOp; 6] = [
    cmp_from(0),
    cmp_from(1),
    cmp_from(2),
    cmp_from(3),
    cmp_from(4),
    cmp_from(5),
];

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
    return crate::opcodes::Slot::A.get(*words.get_unchecked(pc)) as usize;
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
    return crate::opcodes::Slot::B.get(*words.get_unchecked(pc)) as usize;
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
    return crate::opcodes::Slot::C.get(*words.get_unchecked(pc)) as usize;
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
    return crate::opcodes::Slot::D.get(*words.get_unchecked(pc)) as usize;
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
    return crate::opcodes::Slot::B.get_signed(*words.get_unchecked(pc));
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
    return crate::opcodes::Slot::C.get_signed(*words.get_unchecked(pc));
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
    return crate::opcodes::Slot::D.get_signed(*words.get_unchecked(pc));
}

/// The precision of a packed 2-bit code: the one statement of the
/// code order ([`FLOAT_TYS`] lists it). A `match`, so the dispatch loop
/// decodes without a table load.
#[inline(always)]
pub const fn ty_from(code: u8) -> FloatTy {
    match code & 3 {
        0 => FloatTy::F16,
        1 => FloatTy::BF16,
        2 => FloatTy::F32,
        _ => FloatTy::F64,
    }
}

/// The comparison of a packed code, stated as for [`ty_from`] (codes
/// ≥ 6 alias `Ge`; the packer never emits them and validation rejects
/// words that hold one).
#[inline(always)]
pub const fn cmp_from(code: u8) -> CmpOp {
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

/// Whether `ins` has a packed encoding, by the opcode table's slot
/// widths: every register below 65 536 (below 256 in the D slot:
/// [`Instr::FMulAdd`]'s, [`Instr::FMulSub`]'s and [`Instr::IMulAdd`]'s addend,
/// [`Instr::FAbsMulC`]'s second factor,
/// [`Instr::FAddAccK`]'s array), every jump target below 65 536, an
/// [`Instr::FLoadOff`]/[`Instr::FStoreOff`] offset within `i8` and an
/// [`Instr::ICmpImmJmpFalse`]/[`Instr::ICmpImmJmpTrue`] immediate or
/// [`Instr::FAddToK`]/[`Instr::FAddAccK`] index within `i16`. (The
/// constant pool never runs short: each instruction pools at most one
/// constant, so a function within the length limit needs fewer than the
/// 65 536 indices a u16 addresses.)
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
    use crate::opcodes::Slot;

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

    // One instruction of every shape: `instruction_shapes()`.
    include!("../tests/common/instruction_shapes.rs");

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
        // The 4th register of FMulAdd, FMulSub and IMulAdd only has 8 bits.
        for (c, ok) in [(255, true), (256, false)] {
            let ins = Instr::FMulAdd {
                dst: FReg(0),
                a: FReg(1),
                b: FReg(2),
                c: FReg(c),
            };
            assert_eq!(fits(&ins), ok, "{ins:?}");
            let ins = Instr::FMulSub {
                dst: FReg(0),
                a: FReg(1),
                b: FReg(2),
                c: FReg(c),
            };
            assert_eq!(fits(&ins), ok, "{ins:?}");
            let ins = Instr::IMulAdd {
                dst: IReg(0),
                a: IReg(1),
                b: IReg(2),
                c: IReg(c),
            };
            assert_eq!(fits(&ins), ok, "{ins:?}");
        }
        // So do `FAbsMulC`'s second factor and `FAddAccK`'s array, and
        // `FAddAccK` keeps its index in i16.
        for (r, k, ok) in [(255, 32767, true), (256, 0, false), (0, 32768, false)] {
            let term = Instr::FAbsMulC {
                dst: FReg(0),
                a: FReg(1),
                k: 0.5,
                b: FReg(r),
            };
            let acc = Instr::FAddAccK {
                acc: FReg(0),
                k,
                src: FReg(1),
                arr: AReg(r),
            };
            assert_eq!(fits(&term), r < 256, "{term:?}");
            assert_eq!(fits(&acc), ok, "{acc:?}");
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
        assert_eq!(Slot::B.get(w1), Slot::B.get(w2));
        assert_ne!(Slot::B.get(w1), Slot::B.get(w3));
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

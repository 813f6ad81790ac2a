//! The opcode table: the one statement of the packed word format.
//!
//! Each row of [`opcodes!`] names an opcode, its number, the [`Instr`]
//! variant it packs, and for every field of that variant its kind and
//! its word slot. Generated from the rows:
//!
//! * the [`op`] constants and `op::COUNT`;
//! * `pack_instr` (and so [`crate::pack::fits`]): a variant packs with
//!   the first of its rows whose fields all fit their slots — `IConst`
//!   and `IAddImm` try an inline `i16` row before a pooled one;
//! * [`decode`], its inverse;
//! * the operand visitor, [`Instr::visit_regs_mut`] and its borrowing
//!   twin [`Instr::visit_regs`]: one arm per variant, visiting register
//!   fields in slot order, reads first and then the write;
//! * [`Instr::updated`], the register an instruction reads and writes
//!   through one field.
//!
//! The compiler checks the table against [`Instr`]: every row lists
//! every field of its variant, and each kind is implemented only for
//! the field types it can hold (an `FR` field must be an [`FReg`]). A
//! const assertion checks that opcodes are numbered densely in table
//! order and that each row's slots are disjoint and ascending. The
//! dispatch arms in `shadow::exec_loop` stay hand-written.

use crate::bytecode::*;
use crate::pack::{PackedCode, CMP_OPS, FLOAT_TYS, INTRINSICS};
use chef_ir::ast::Intrinsic;
use chef_ir::types::FloatTy;

/// A bit field of the packed word: `width` bits from bit `shift`.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    shift: u32,
    width: u32,
}

impl Slot {
    /// Bits 8..24: a register, array slot or the first source.
    pub(crate) const A: Slot = Slot::new(8, 16);
    /// Bits 24..40: a register, pool index or i16 immediate.
    pub(crate) const B: Slot = Slot::new(24, 16);
    /// Bits 40..56: a register, jump target, pool index or i16 immediate.
    pub(crate) const C: Slot = Slot::new(40, 16);
    /// Bits 56..64: a code, an i8 offset or an 8-bit fourth register.
    pub(crate) const D: Slot = Slot::new(56, 8);
    /// The low 6 bits of D: the intrinsic of an `FINTR*ROUND`.
    pub(crate) const DLO: Slot = Slot::new(56, 6);
    /// The high 2 bits of D: the precision of an `FINTR*ROUND`.
    pub(crate) const DHI: Slot = Slot::new(62, 2);

    const fn new(shift: u32, width: u32) -> Slot {
        Slot { shift, width }
    }

    #[inline(always)]
    const fn mask(self) -> u64 {
        (1 << self.width) - 1
    }

    /// The slot's bits of `w`.
    #[inline(always)]
    pub(crate) fn get(self, w: u64) -> u64 {
        (w >> self.shift) & self.mask()
    }

    /// The slot's bits of `w`, sign-extended.
    #[inline(always)]
    pub(crate) fn get_signed(self, w: u64) -> i64 {
        ((w >> self.shift) << (64 - self.width)) as i64 >> (64 - self.width)
    }

    /// `bits` in place, or `None` when wider than the slot.
    #[inline(always)]
    fn put(self, bits: u64) -> Option<u64> {
        (bits <= self.mask()).then_some(bits << self.shift)
    }

    /// `v` in place as two's complement, or `None` when out of range.
    #[inline(always)]
    fn put_signed(self, v: i64) -> Option<u64> {
        let top = v >> (self.width - 1);
        (top == 0 || top == -1).then_some((v as u64 & self.mask()) << self.shift)
    }

    /// Whether each slot ends before the next begins.
    const fn ascending(slots: &[Slot]) -> bool {
        let mut i = 1;
        while i < slots.len() {
            if slots[i - 1].shift + slots[i - 1].width > slots[i].shift {
                return false;
            }
            i += 1;
        }
        true
    }
}

/// Hands the packer a pool index for a wide constant.
pub(crate) trait Interner {
    /// The index of a pool entry holding `bits`, bound for `slot`;
    /// `None` when there is none to give.
    fn intern(&mut self, bits: u64, slot: Slot) -> Option<u16>;
}

/// A closure interns by bits alone.
impl<F: FnMut(u64) -> Option<u16>> Interner for F {
    #[inline(always)]
    fn intern(&mut self, bits: u64, _: Slot) -> Option<u16> {
        self(bits)
    }
}

/// Answers with the pool index word `w` itself names in the slot, if
/// that entry holds the constant: packing an instruction through it
/// reproduces `w` only if `w` is its canonical packing against `pool`.
pub(crate) struct Named<'a> {
    pub w: u64,
    pub pool: &'a [u64],
}

impl Interner for Named<'_> {
    #[inline(always)]
    fn intern(&mut self, bits: u64, slot: Slot) -> Option<u16> {
        let k = slot.get(self.w);
        (self.pool.get(k as usize) == Some(&bits)).then_some(k as u16)
    }
}

/// How an instruction uses a register field.
enum Access {
    Read,
    Write,
    /// Read, then written in place: one field, one index, both uses.
    Update,
}

/// What a field is to the operand visitor: a register (file, index,
/// access), the jump target, or neither.
enum Operand<R> {
    Reg(RegClass, R, Access),
    Target(R),
    Other,
}

/// A field kind: how a field of type `T` is stored in its slot and what
/// it is to the operand visitor.
trait Kind<T> {
    /// `v` in place in `slot`, or `None` when it does not fit.
    fn enc(v: T, slot: Slot, pool: &mut impl Interner) -> Option<u64>;
    /// The field held in `slot` of `w`; `None` when the bits name none.
    fn dec(w: u64, slot: Slot, pool: &[u64]) -> Option<T>;
    #[inline(always)]
    fn operand(_: &T) -> Operand<u32> {
        Operand::Other
    }
    #[inline(always)]
    fn operand_mut(_: &mut T) -> Operand<&mut u32> {
        Operand::Other
    }
}

macro_rules! reg_kinds {
    ($($(#[$doc:meta])* $k:ident: $t:ident in $class:ident, $access:ident;)*) => {$(
        $(#[$doc])*
        enum $k {}
        impl Kind<$t> for $k {
            #[inline(always)]
            fn enc(v: $t, slot: Slot, _: &mut impl Interner) -> Option<u64> {
                slot.put(u64::from(v.0))
            }
            #[inline(always)]
            fn dec(w: u64, slot: Slot, _: &[u64]) -> Option<$t> {
                Some($t(slot.get(w) as u32))
            }
            #[inline(always)]
            fn operand(v: &$t) -> Operand<u32> {
                Operand::Reg(RegClass::$class, v.0, Access::$access)
            }
            #[inline(always)]
            fn operand_mut(v: &mut $t) -> Operand<&mut u32> {
                Operand::Reg(RegClass::$class, &mut v.0, Access::$access)
            }
        }
    )*};
}

reg_kinds! {
    /// A float register the instruction reads.
    FR: FReg in F, Read;
    /// The float register the instruction writes.
    FW: FReg in F, Write;
    /// The float register the instruction reads and then writes in
    /// place (an accumulator).
    FU: FReg in F, Update;
    /// An integer register the instruction reads.
    IR: IReg in I, Read;
    /// The integer register the instruction writes.
    IW: IReg in I, Write;
    /// An array register the instruction reads (or stores into).
    AR: AReg in A, Read;
    /// The array register the instruction allocates.
    AW: AReg in A, Write;
}

/// The jump target: an instruction index.
enum Target {}

impl Kind<u32> for Target {
    #[inline(always)]
    fn enc(v: u32, slot: Slot, _: &mut impl Interner) -> Option<u64> {
        slot.put(u64::from(v))
    }
    #[inline(always)]
    fn dec(w: u64, slot: Slot, _: &[u64]) -> Option<u32> {
        Some(slot.get(w) as u32)
    }
    #[inline(always)]
    fn operand(v: &u32) -> Operand<u32> {
        Operand::Target(*v)
    }
    #[inline(always)]
    fn operand_mut(v: &mut u32) -> Operand<&mut u32> {
        Operand::Target(v)
    }
}

/// A signed immediate held inline: i16 in a 16-bit slot, i8 in D.
enum Imm {}

/// A wide constant held in the pool: the slot holds its index.
enum Pool {}

macro_rules! imm_kinds {
    ($($t:ty),*) => {$(
        impl Kind<$t> for Imm {
            #[inline(always)]
            fn enc(v: $t, slot: Slot, _: &mut impl Interner) -> Option<u64> {
                slot.put_signed(i64::from(v))
            }
            #[inline(always)]
            fn dec(w: u64, slot: Slot, _: &[u64]) -> Option<$t> {
                <$t>::try_from(slot.get_signed(w)).ok()
            }
        }
    )*};
}

imm_kinds!(i64, i32);

macro_rules! pool_kinds {
    ($($t:ty: $to_bits:expr, $from_bits:expr;)*) => {$(
        impl Kind<$t> for Pool {
            #[inline(always)]
            fn enc(v: $t, slot: Slot, pool: &mut impl Interner) -> Option<u64> {
                slot.put(u64::from(pool.intern($to_bits(v), slot)?))
            }
            #[inline(always)]
            fn dec(w: u64, slot: Slot, pool: &[u64]) -> Option<$t> {
                Some($from_bits(*pool.get(slot.get(w) as usize)?))
            }
        }
    )*};
}

pool_kinds! {
    i64: |v: i64| v as u64, |b: u64| b as i64;
    f64: f64::to_bits, f64::from_bits;
}

/// An enum held as its index in its code table ([`FLOAT_TYS`],
/// [`CMP_OPS`], [`INTRINSICS`]).
enum Code {}

macro_rules! code_kinds {
    ($($t:ty: $table:expr;)*) => {$(
        impl Kind<$t> for Code {
            #[inline(always)]
            fn enc(v: $t, slot: Slot, _: &mut impl Interner) -> Option<u64> {
                slot.put($table.iter().position(|&x| x == v)? as u64)
            }
            #[inline(always)]
            fn dec(w: u64, slot: Slot, _: &[u64]) -> Option<$t> {
                $table.get(slot.get(w) as usize).copied()
            }
        }
    )*};
}

code_kinds! {
    FloatTy: FLOAT_TYS;
    CmpOp: CMP_OPS;
    Intrinsic: INTRINSICS;
}

/// Generates the opcode constants, the packer, the decoder and the
/// operand visitor from the table (see the module doc). A row reads
/// `OP = n => Variant { field: Kind @ Slot, .. }`, optionally followed by
/// `else OP2 = n2 { .. }`: a second encoding of the same variant, tried
/// when the first does not fit.
macro_rules! opcodes {
    ($(
        $op:ident = $n:literal => $v:ident { $($f:ident: $k:ident @ $s:ident),* }
        $(else $op2:ident = $n2:literal { $($f2:ident: $k2:ident @ $s2:ident),* })?;
    )*) => {
        /// Dense opcodes of the packed word format, numbered from zero so
        /// the dispatch `match` lowers to a jump table. Each packs the
        /// named [`Instr`](crate::bytecode::Instr) variant with its
        /// fields in the given slots.
        pub mod op {
            $(
                #[doc = concat!("`", stringify!($v { $($f: $k @ $s),* }), "`")]
                pub const $op: u8 = $n;
                $(
                    #[doc = concat!("`", stringify!($v { $($f2: $k2 @ $s2),* }), "`")]
                    pub const $op2: u8 = $n2;
                )?
            )*
            /// Number of opcodes (all values below are valid).
            pub const COUNT: u8 = [$($n $(, $n2)?),*].len() as u8;
        }

        const _: () = {
            let ops = [$($n $(, $n2)?),*];
            let mut i = 0;
            while i < ops.len() {
                assert!(ops[i] == i, "opcodes are numbered densely in table order");
                i += 1;
            }
            $(
                assert!(Slot::ascending(&[$(Slot::$s),*]), "a row's slots overlap");
                $(assert!(Slot::ascending(&[$(Slot::$s2),*]), "a row's slots overlap");)?
            )*
        };

        /// Packs one instruction with the first of its rows whose fields
        /// fit, interning wide constants through `pool`; `None` when no
        /// row fits or `pool` gives no index.
        // A field that does not fit breaks out of its row's block, on to
        // the next row (in a row that has a next row, a wide constant is
        // the last field, so a failed row interns nothing). A row without
        // fields always packs.
        #[allow(unused_labels, unreachable_code)]
        pub(crate) fn pack_instr(ins: &Instr, pool: &mut impl Interner) -> Option<u64> {
            Some(match *ins {
                $(Instr::$v { $($f),* } => 'packed: {
                    'row: {
                        break 'packed u64::from(op::$op)
                            $(| match <$k as Kind<_>>::enc($f, Slot::$s, pool) {
                                Some(bits) => bits,
                                None => break 'row,
                            })*;
                    }
                    $('row: {
                        break 'packed u64::from(op::$op2)
                            $(| match <$k2 as Kind<_>>::enc($f2, Slot::$s2, pool) {
                                Some(bits) => bits,
                                None => break 'row,
                            })*;
                    })?
                    return None;
                })*
            })
        }

        /// Decodes one packed word back to its enum instruction; `None`
        /// for an unknown opcode, an out-of-range pool index or an unknown
        /// code. The inverse of the packer: `decode(pack(i)) == i`, bit
        /// for bit on constants. It ignores bits outside the row's slots;
        /// [`crate::vm::validate_function`] accepts only canonical words.
        pub fn decode(w: u64, p: &PackedCode) -> Option<Instr> {
            Some(match w as u8 {
                $(
                    op::$op => Instr::$v { $($f: <$k as Kind<_>>::dec(w, Slot::$s, &p.pool)?),* },
                    $(op::$op2 => Instr::$v {
                        $($f2: <$k2 as Kind<_>>::dec(w, Slot::$s2, &p.pool)?),*
                    },)?
                )*
                _ => return None,
            })
        }

        impl Instr {
            /// Whether the instruction has a jump target. Every arm is a
            /// constant, which the compiler can lower to a bit test.
            #[inline(always)]
            pub(crate) fn has_target(&self) -> bool {
                match self {
                    $(Instr::$v { $($f),* } => {
                        false $(|| matches!(<$k as Kind<_>>::operand($f), Operand::Target(_)))*
                    })*
                }
            }

            /// The operand visitor: calls `f(class, &mut index, is_write)`
            /// once for every register field, arrays included — in slot
            /// order, the reads first and then the write — and returns
            /// the jump target, if any. A field the instruction updates
            /// in place ([`Instr::updated`]) is one index for both uses,
            /// so it is visited once, as the write: renaming it renames
            /// the read too. Generated from the opcode table, the one
            /// statement of which fields are registers and which is the
            /// target; the fuser's dataflow, register compaction and
            /// [`crate::vm::validate_function`] all derive from it.
            #[inline(always)]
            pub(crate) fn visit_regs_mut(
                &mut self,
                mut f: impl FnMut(RegClass, &mut u32, bool),
            ) -> Option<&mut u32> {
                match self {
                    $(Instr::$v { $($f),* } => {
                        $(if let Operand::Reg(c, r, Access::Read) = <$k as Kind<_>>::operand_mut($f) {
                            f(c, r, false)
                        })*
                        $(if let Operand::Reg(c, r, Access::Write | Access::Update) =
                            <$k as Kind<_>>::operand_mut($f)
                        {
                            f(c, r, true)
                        })*
                        $(if let Operand::Target(t) = <$k as Kind<_>>::operand_mut($f) {
                            return Some(t);
                        })*
                    })*
                }
                None
            }

            /// The register uses by shared reference: calls
            /// `f(class, index, is_write)` for every read and every write
            /// in the order of [`Instr::visit_regs_mut`], and returns the
            /// jump target, if any. A field updated in place is both a
            /// read and a write, so it is visited twice.
            #[inline(always)]
            pub(crate) fn visit_regs(&self, mut f: impl FnMut(RegClass, u32, bool)) -> Option<u32> {
                match self {
                    $(Instr::$v { $($f),* } => {
                        $(if let Operand::Reg(c, r, Access::Read | Access::Update) =
                            <$k as Kind<_>>::operand($f)
                        {
                            f(c, r, false)
                        })*
                        $(if let Operand::Reg(c, r, Access::Write | Access::Update) =
                            <$k as Kind<_>>::operand($f)
                        {
                            f(c, r, true)
                        })*
                        $(if let Operand::Target(t) = <$k as Kind<_>>::operand($f) {
                            return Some(t);
                        })*
                    })*
                }
                None
            }

            /// The register the instruction reads and then writes through
            /// one field, if any ([`Instr::FAddAccK`]'s accumulator). A
            /// pass that renames reads apart from writes must leave such
            /// an instruction alone.
            pub(crate) fn updated(&self) -> Option<Reg> {
                match self {
                    $(Instr::$v { $($f),* } => {
                        $(if let Operand::Reg(c, r, Access::Update) = <$k as Kind<_>>::operand($f) {
                            return Some((c, r));
                        })*
                    })*
                }
                None
            }
        }
    };
}

opcodes! {
    FCONST = 0 => FConst { dst: FW @ A, v: Pool @ B };
    FMOV = 1 => FMov { dst: FW @ A, src: FR @ B };
    FADD = 2 => FAdd { dst: FW @ A, a: FR @ B, b: FR @ C };
    FSUB = 3 => FSub { dst: FW @ A, a: FR @ B, b: FR @ C };
    FMUL = 4 => FMul { dst: FW @ A, a: FR @ B, b: FR @ C };
    FDIV = 5 => FDiv { dst: FW @ A, a: FR @ B, b: FR @ C };
    FNEG = 6 => FNeg { dst: FW @ A, src: FR @ B };
    FROUND = 7 => FRound { dst: FW @ A, src: FR @ B, ty: Code @ D };
    FINTR1 = 8 => FIntr1 { dst: FW @ A, a: FR @ B, intr: Code @ D };
    FINTR2 = 9 => FIntr2 { dst: FW @ A, a: FR @ B, b: FR @ C, intr: Code @ D };
    FCMP = 10 => FCmp { dst: IW @ A, a: FR @ B, b: FR @ C, op: Code @ D };
    FLOAD = 11 => FLoad { dst: FW @ A, arr: AR @ B, idx: IR @ C };
    FSTORE = 12 => FStore { arr: AR @ A, idx: IR @ B, src: FR @ C };
    F2I = 13 => F2I { dst: IW @ A, src: FR @ B };
    I2F = 14 => I2F { dst: FW @ A, src: IR @ B };
    ICONST = 15 => IConst { dst: IW @ A, v: Imm @ B }
        else ICONSTP = 16 { dst: IW @ A, v: Pool @ B };
    IMOV = 17 => IMov { dst: IW @ A, src: IR @ B };
    IADD = 18 => IAdd { dst: IW @ A, a: IR @ B, b: IR @ C };
    ISUB = 19 => ISub { dst: IW @ A, a: IR @ B, b: IR @ C };
    IMUL = 20 => IMul { dst: IW @ A, a: IR @ B, b: IR @ C };
    IDIV = 21 => IDiv { dst: IW @ A, a: IR @ B, b: IR @ C };
    IREM = 22 => IRem { dst: IW @ A, a: IR @ B, b: IR @ C };
    INEG = 23 => INeg { dst: IW @ A, src: IR @ B };
    ICMP = 24 => ICmp { dst: IW @ A, a: IR @ B, b: IR @ C, op: Code @ D };
    ILOAD = 25 => ILoad { dst: IW @ A, arr: AR @ B, idx: IR @ C };
    ISTORE = 26 => IStore { arr: AR @ A, idx: IR @ B, src: IR @ C };
    BNOT = 27 => BNot { dst: IW @ A, src: IR @ B };
    JMP = 28 => Jmp { target: Target @ C };
    JMPF = 29 => JmpIfFalse { cond: IR @ A, target: Target @ C };
    JMPT = 30 => JmpIfTrue { cond: IR @ A, target: Target @ C };
    TPUSHF = 31 => TPushF { src: FR @ A };
    TPOPF = 32 => TPopF { dst: FW @ A };
    TPUSHI = 33 => TPushI { src: IR @ A };
    TPOPI = 34 => TPopI { dst: IW @ A };
    ALLOCF = 35 => AllocF { arr: AW @ A, len: IR @ B };
    ALLOCI = 36 => AllocI { arr: AW @ A, len: IR @ B };
    FMULADD = 37 => FMulAdd { dst: FW @ A, a: FR @ B, b: FR @ C, c: FR @ D };
    FADDROUND = 38 => FAddRound { dst: FW @ A, a: FR @ B, b: FR @ C, ty: Code @ D };
    FSUBROUND = 39 => FSubRound { dst: FW @ A, a: FR @ B, b: FR @ C, ty: Code @ D };
    FMULROUND = 40 => FMulRound { dst: FW @ A, a: FR @ B, b: FR @ C, ty: Code @ D };
    FDIVROUND = 41 => FDivRound { dst: FW @ A, a: FR @ B, b: FR @ C, ty: Code @ D };
    FLOADOFF = 42 => FLoadOff { dst: FW @ A, arr: AR @ B, base: IR @ C, off: Imm @ D };
    FSTOREOFF = 43 => FStoreOff { arr: AR @ A, base: IR @ B, src: FR @ C, off: Imm @ D };
    IADDIMM = 44 => IAddImm { dst: IW @ A, a: IR @ B, imm: Imm @ C }
        else IADDIMMP = 45 { dst: IW @ A, a: IR @ B, imm: Pool @ C };
    FCJF = 46 => FCmpJmpFalse { a: FR @ A, b: FR @ B, target: Target @ C, op: Code @ D };
    FCJT = 47 => FCmpJmpTrue { a: FR @ A, b: FR @ B, target: Target @ C, op: Code @ D };
    ICJF = 48 => ICmpJmpFalse { a: IR @ A, b: IR @ B, target: Target @ C, op: Code @ D };
    ICJT = 49 => ICmpJmpTrue { a: IR @ A, b: IR @ B, target: Target @ C, op: Code @ D };
    RETF = 50 => RetF { src: FR @ A };
    RETI = 51 => RetI { src: IR @ A };
    RETB = 52 => RetB { src: IR @ A };
    RETVOID = 53 => RetVoid {};
    TRAPMISSING = 54 => TrapMissingReturn {};
    FINTR1ROUND = 55 => FIntr1Round { dst: FW @ A, a: FR @ B, intr: Code @ DLO, ty: Code @ DHI };
    FINTR2ROUND = 56 => FIntr2Round {
        dst: FW @ A, a: FR @ B, b: FR @ C, intr: Code @ DLO, ty: Code @ DHI
    };
    FADDC = 57 => FAddC { dst: FW @ A, a: FR @ B, k: Pool @ C };
    FSUBC = 58 => FSubC { dst: FW @ A, a: FR @ B, k: Pool @ C };
    FSUBCR = 59 => FSubCR { dst: FW @ A, a: FR @ B, k: Pool @ C };
    FMULC = 60 => FMulC { dst: FW @ A, a: FR @ B, k: Pool @ C };
    FDIVC = 61 => FDivC { dst: FW @ A, a: FR @ B, k: Pool @ C };
    FDIVCR = 62 => FDivCR { dst: FW @ A, a: FR @ B, k: Pool @ C };
    ICJFI = 63 => ICmpImmJmpFalse { a: IR @ A, imm: Imm @ B, target: Target @ C, op: Code @ D };
    ICJTI = 64 => ICmpImmJmpTrue { a: IR @ A, imm: Imm @ B, target: Target @ C, op: Code @ D };
    FADDTO = 65 => FAddTo { arr: AR @ A, idx: IR @ B, src: FR @ C };
    FADDTOK = 66 => FAddToK { arr: AR @ A, k: Imm @ B, src: FR @ C };
    FABSMULC = 67 => FAbsMulC { dst: FW @ A, a: FR @ B, k: Pool @ C, b: FR @ D };
    FADDACCK = 68 => FAddAccK { acc: FU @ A, k: Imm @ B, src: FR @ C, arr: AR @ D };
}

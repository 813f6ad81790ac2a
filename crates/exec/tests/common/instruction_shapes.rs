// Shared by the packer's unit tests (`pack::tests`) and the wire-format
// pin in `tests/packed_differential.rs`, which `include!` it; names
// resolve at the include site.

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
        Instr::FAddTo {
            arr: AReg(1),
            idx: i(2),
            src: f(3),
        },
        Instr::FAddToK {
            arr: AReg(2),
            k: -32768,
            src: f(5),
        },
        Instr::FAbsMulC {
            dst: f(6),
            a: f(7),
            k: f64::EPSILON / 2.0,
            b: f(255),
        },
        Instr::FAddAccK {
            acc: f(2),
            k: 32767,
            src: f(3),
            arr: AReg(255),
        },
        Instr::IMulAdd {
            dst: i(1),
            a: i(2),
            b: i(3),
            c: i(255),
        },
        Instr::FMulCRound {
            dst: f(1),
            a: f(2),
            k: 0.1,
            ty: FloatTy::F32,
        },
        Instr::FMulSub {
            dst: f(1),
            a: f(2),
            b: f(3),
            c: f(255),
        },
        Instr::FSubFrom {
            arr: AReg(3),
            idx: i(4),
            src: f(5),
        },
        Instr::RetI { src: i(7) },
        Instr::RetB { src: i(0) },
    ]
}

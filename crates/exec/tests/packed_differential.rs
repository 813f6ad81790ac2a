//! Packed-word round trip: the words the VM executes are the enum
//! stream, word for word.
//!
//! Packing is the last compile stage and the dispatch loop runs only its
//! output, so a word that decoded to anything but its enum instruction
//! would silently change what runs. Every `chef-apps` kernel is compiled
//! in primal, fully demoted and adjoint form, and every packed word must
//! decode back to its instruction bit for bit (constants included). A
//! proptest sweep does the same on randomly generated straight-line
//! kernels under random raw-`VarId` demotions, and runs them.

use chef_exec::bytecode::CompiledFunction;
use chef_exec::compile::{compile, CompileOptions, PrecisionMap};
use chef_exec::prelude::*;
use chef_ir::ast::{Function, Program, VarId};
use chef_ir::types::FloatTy;
use chef_passes::testgen::{straight_line_kernel, SplitMix};
use proptest::prelude::*;

/// Every app kernel: (label, program, function name).
fn kernels() -> Vec<(&'static str, Program, &'static str)> {
    vec![
        (
            "arclen",
            chef_apps::arclen::program(),
            chef_apps::arclen::NAME,
        ),
        (
            "simpsons",
            chef_apps::simpsons::program(),
            chef_apps::simpsons::NAME,
        ),
        (
            "kmeans",
            chef_apps::kmeans::program(),
            chef_apps::kmeans::NAME,
        ),
        (
            "blackscholes",
            chef_apps::blackscholes::program(),
            chef_apps::blackscholes::NAME,
        ),
        ("hpccg", chef_apps::hpccg::program(), chef_apps::hpccg::NAME),
    ]
}

fn inlined_kernel(program: &Program, func: &str) -> Function {
    chef_passes::inline_program(program)
        .expect("kernel inlines")
        .function(func)
        .expect("kernel exists")
        .clone()
}

/// Every word of `compiled` decodes back to its enum instruction, and
/// the packed disassembly names one instruction per word.
fn assert_words_decode(label: &str, compiled: &CompiledFunction) {
    let packed = compiled
        .packed
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: compile left the function unpacked"));
    assert_eq!(packed.words.len(), compiled.instrs.len(), "{label}");
    for (pc, (&w, ins)) in packed.words.iter().zip(&compiled.instrs).enumerate() {
        let decoded = chef_exec::pack::decode(w, packed)
            .unwrap_or_else(|| panic!("{label}: word {pc} undecodable"));
        assert!(
            chef_exec::pack::instr_eq_bits(&decoded, ins),
            "{label}: word {pc}: {decoded:?} != {ins:?}"
        );
    }
    // The packed disassembly round-trips through the same decoder:
    // one header plus one line per word, each naming its instruction.
    let disasm = packed.disassemble();
    assert_eq!(disasm.lines().count(), packed.words.len() + 1, "{label}");
    assert!(!disasm.contains("<undecodable>"), "{label}:\n{disasm}");
}

#[test]
fn packed_words_decode_back_to_their_instructions() {
    for (label, program, name) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = chef_ad::reverse::reverse_diff(&func)
            .unwrap_or_else(|e| panic!("{label}: reverse_diff failed: {e}"));
        let modes = [
            ("primal", &func, PrecisionMap::empty()),
            (
                "demoted",
                &func,
                PrecisionMap::demote_all(&func, FloatTy::F32),
            ),
            ("adjoint", &grad, PrecisionMap::empty()),
        ];
        for (mode, f, pm) in modes {
            let compiled = compile(
                f,
                &CompileOptions {
                    precisions: pm,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{label}/{mode}: {e}"));
            assert_words_decode(&format!("{label}/{mode}"), &compiled);
        }
    }
}

// ------------------------------------------------------- wire-format pin

use chef_exec::bytecode::{AReg, CmpOp, FReg, IReg, Instr, RetKind};
use chef_exec::pack::PackedCode;

include!("common/instruction_shapes.rs");

/// FNV-1a over the packed words and the constant pool, lengths first.
fn wire_hash(p: &PackedCode) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let lens = [p.words.len() as u64, p.pool.len() as u64];
    for x in lens.iter().chain(&p.words).chain(&p.pool) {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The packed wire format is pinned bit for bit: the words and pool of
/// every instruction shape (packed as one stream, so pool sharing is
/// pinned too) and of every app kernel in every mode, compiled through
/// the whole pipeline. Stored cache entries hold these words, so a change
/// here must bump `store::FORMAT_VERSION`.
#[test]
fn packed_wire_format_is_pinned() {
    let instrs = instruction_shapes();
    let shapes = CompiledFunction {
        name: "shapes".into(),
        spans: vec![chef_ir::span::Span::DUMMY; instrs.len()],
        instrs,
        n_fregs: 0,
        n_iregs: 0,
        n_aregs: 0,
        params: vec![],
        ret: RetKind::Void,
        fvar_names: vec![],
        avar_names: vec![],
        packed: None,
    };
    let packed = chef_exec::pack::pack_function(&shapes).expect("every shape packs");
    let mut actual = vec![("shapes".to_string(), wire_hash(&packed))];
    for (label, program, name) in kernels() {
        let func = inlined_kernel(&program, name);
        let grad = chef_ad::reverse::reverse_diff(&func)
            .unwrap_or_else(|e| panic!("{label}: reverse_diff failed: {e}"));
        let modes = [
            ("primal", &func, PrecisionMap::empty()),
            (
                "demoted",
                &func,
                PrecisionMap::demote_all(&func, FloatTy::F32),
            ),
            ("adjoint", &grad, PrecisionMap::empty()),
        ];
        for (mode, f, pm) in modes {
            let options = CompileOptions {
                precisions: pm,
                fuse: true,
                cfg: true,
                pack: true,
            };
            let compiled = compile(f, &options).expect("kernel compiles");
            let packed = compiled.packed.as_ref().expect("compile packs");
            actual.push((format!("{label}/{mode}"), wire_hash(packed)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(l, h)| format!("    (\"{l}\", 0x{h:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN_WIRE_FORMAT
        .iter()
        .map(|&(l, h)| (l.to_string(), h))
        .collect();
    assert_eq!(actual, expected, "\nactual table:\n{table}");
}

/// `(shapes or kernel/mode, wire_hash of its packed code)`.
const GOLDEN_WIRE_FORMAT: &[(&str, u64)] = &[
    ("shapes", 0xcb683e72b556e35f),
    ("arclen/primal", 0x69b310f1639b5c1d),
    ("arclen/demoted", 0x91557f0ab0ad9f40),
    ("arclen/adjoint", 0x072de2fcb39be1e7),
    ("simpsons/primal", 0x46143873d9b282a3),
    ("simpsons/demoted", 0x3ff3e43cf6fd4479),
    ("simpsons/adjoint", 0x36cbc057738b7bae),
    ("kmeans/primal", 0xe121d4ee18744e5c),
    ("kmeans/demoted", 0x095a91624b3dd831),
    ("kmeans/adjoint", 0x87a13f85937e04f7),
    ("blackscholes/primal", 0x5a3af87e770a4596),
    ("blackscholes/demoted", 0x3eecea1bdcb1c78c),
    ("blackscholes/adjoint", 0xddeee9e993e5accf),
    ("hpccg/primal", 0x0019178800b068d4),
    ("hpccg/demoted", 0x260f6eb8e3ec013c),
    ("hpccg/adjoint", 0xf3e5cb21f725700a),
];

// ---------------------------------------------------------------- proptest

fn parse(src: &str) -> Program {
    let mut p = chef_ir::parser::parse_program(src).expect("generated kernel parses");
    chef_ir::typeck::check_program(&mut p).expect("generated kernel typechecks");
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vars_ids_demote_without_packing_bail(seed in 0u64..(1u64 << 60)) {
        // Demoting by raw VarId (any differentiable variable, not just
        // the sampled locals) must never leave a function unpackable.
        let mut g = SplitMix(seed);
        let (src, _) = straight_line_kernel(&mut g, 2, 4);
        let p = parse(&src);
        let func = p.functions[0].clone();
        let ids: Vec<VarId> = func
            .vars_iter()
            .filter(|(_, v)| v.ty.is_differentiable())
            .map(|(id, _)| id)
            .collect();
        let mut pm = PrecisionMap::empty();
        for id in ids {
            if g.below(3) == 0 {
                pm.set(id, FloatTy::F16);
            }
        }
        let args = vec![ArgValue::F(g.signed_lit()), ArgValue::F(g.signed_lit())];
        let compiled = compile(&func, &CompileOptions {
            precisions: pm,
            ..Default::default()
        })
        .unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_words_decode("vid", &compiled);
        run(&compiled, args).unwrap_or_else(|t| panic!("{t}\n{src}"));
    }
}

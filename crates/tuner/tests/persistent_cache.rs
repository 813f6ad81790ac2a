//! Regression and warm-start coverage for the content-addressed
//! variant cache.
//!
//! `same_name_different_program` pins the key-collision bugfix: the old
//! `(name, sorted_entries)` key treated two *different* programs that
//! both define `f` with an identical precision map as the same variant,
//! so a long-lived cache (an `AnalysisServer` session, or the disk
//! store) could hand session B a function compiled from session A's
//! source. The content hash keys on the canonical printed body, so the
//! collision is structurally impossible.

use chef_exec::prelude::*;
use chef_exec::store::{content_key, DiskStore};
use chef_ir::types::FloatTy;
use chef_tuner::{ids_of, VariantCache};
use std::sync::Arc;

fn inlined_f(src: &str) -> chef_ir::ast::Function {
    let mut p = chef_ir::parser::parse_program(src).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let inlined = chef_passes::inline_program(&p).unwrap();
    inlined.function("f").unwrap().clone()
}

fn run_f64(func: &CompiledFunction, args: Vec<ArgValue>) -> f64 {
    match run(func, args).unwrap().ret {
        Some(Value::F(v)) => v,
        other => panic!("expected float, got {other:?}"),
    }
}

#[test]
fn same_name_different_program() {
    // Two programs, one shared function name, two different bodies.
    let doubler = inlined_f("double f(double x) { return x * 2.0; }");
    let tripler = inlined_f("double f(double x) { return x * 3.0; }");

    // The content keys must differ even though name and precision map
    // (empty in both) are identical — this is what the old
    // `(name, sorted_entries)` key got wrong.
    let opts = CompileOptions::default();
    assert_ne!(
        content_key(&doubler, &opts),
        content_key(&tripler, &opts),
        "distinct bodies must never share a cache key"
    );

    // A shared cache must not cross-hit between them.
    let cache = VariantCache::new().without_store();
    let pm = PrecisionMap::empty();
    let a = cache.get_or_compile(&doubler, &pm).unwrap();
    let b = cache.get_or_compile(&tripler, &pm).unwrap();
    assert_eq!(cache.misses(), 2, "second program must compile, not hit");
    assert_eq!(cache.hits(), 0);
    assert_eq!(run_f64(&a, vec![ArgValue::F(21.0)]), 42.0);
    assert_eq!(
        run_f64(&b, vec![ArgValue::F(21.0)]),
        63.0,
        "a cross-hit would return the doubler's 42.0 here"
    );

    // Re-requesting each now hits its own entry.
    cache.get_or_compile(&doubler, &pm).unwrap();
    cache.get_or_compile(&tripler, &pm).unwrap();
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 2);
}

#[test]
fn warm_start_loads_every_variant_without_compiling() {
    let src = "double f(double a, int n) {
        double s = 0.0;
        double t = 1.0;
        for (int i = 0; i < n; i++) { s += sin(a + i * 0.1) * t; }
        return s;
    }";
    let mut p = chef_ir::parser::parse_program(src).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let primal = {
        let inlined = chef_passes::inline_program(&p).unwrap();
        inlined.function("f").unwrap().clone()
    };
    let ids = ids_of(&p, "f", &["s", "t"]).unwrap();
    let configs = vec![
        PrecisionMap::empty(),
        PrecisionMap::empty().with(ids[0], FloatTy::F32),
        PrecisionMap::empty()
            .with(ids[0], FloatTy::F32)
            .with(ids[1], FloatTy::BF16),
    ];
    let args = || vec![ArgValue::F(0.37), ArgValue::I(40)];

    let dir = std::env::temp_dir().join(format!("chef-tuner-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold: compile every config through a store-backed cache, flush.
    let cold_store = Arc::new(DiskStore::open(&dir).unwrap());
    let cold_cache = VariantCache::new().with_store(Arc::clone(&cold_store));
    let mut cold_bits = Vec::new();
    for pm in &configs {
        let f = cold_cache.get_or_compile(&primal, pm).unwrap();
        cold_bits.push(run_f64(&f, args()).to_bits());
    }
    assert_eq!(cold_cache.misses() as usize, configs.len());
    cold_cache.flush_disk();
    assert_eq!(cold_store.writes() as usize, configs.len());

    // Warm: a fresh cache + fresh store handle on the same directory.
    // Tag this thread's span ring so the zero-compile-span assertion
    // cannot be confused by tests running concurrently on other
    // threads.
    drop(chef_telemetry::span!("test.warm_phase"));
    let my_thread = {
        let snap = chef_telemetry::snapshot();
        snap.spans_named("test.warm_phase")
            .last()
            .map(|s| s.thread)
            .unwrap()
    };
    let compiles_before = count_thread_spans("compile", my_thread);
    let skipped_before = count_thread_spans("compile.skipped", my_thread);

    let warm_store = Arc::new(DiskStore::open(&dir).unwrap());
    let warm_cache = VariantCache::new().with_store(Arc::clone(&warm_store));
    for (pm, &bits) in configs.iter().zip(&cold_bits) {
        let f = warm_cache.get_or_compile(&primal, pm).unwrap();
        assert_eq!(
            run_f64(&f, args()).to_bits(),
            bits,
            "disk-loaded variant must be bit-identical to its compile"
        );
    }
    assert_eq!(warm_cache.misses(), 0, "warm start must not compile");
    assert_eq!(warm_store.hits() as usize, configs.len());
    assert_eq!(warm_store.misses(), 0);
    assert_eq!(warm_store.corrupt(), 0);
    assert_eq!(
        count_thread_spans("compile", my_thread),
        compiles_before,
        "zero compile spans during the warm phase"
    );
    assert_eq!(
        count_thread_spans("compile.skipped", my_thread) - skipped_before,
        configs.len(),
        "every warm lookup must record a compile.skipped marker"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn count_thread_spans(name: &str, thread: u64) -> usize {
    chef_telemetry::snapshot()
        .spans
        .iter()
        .filter(|s| s.name == name && s.thread == thread)
        .count()
}

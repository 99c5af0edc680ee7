//! Ablation: superinstruction-fused dispatch vs the plain pre-decoded
//! engine vs the naive tree-walking reference.
//!
//! `run_prepared` executes a flattened, pre-resolved instruction arena
//! (costs folded, branch targets as indices, backedges pre-classified);
//! with fusion, field and method accesses resolve statically and the three
//! surviving superinstruction templates (DESIGN.md decision 19) collapse
//! `const; bin` (`bin-imm`), `const; compare; br` (`br-cmp-imm`) and
//! `const; bin; set-field` (`bin-imm-set-field`) into single dispatches.
//! `run_naive` re-reads the structured IR and re-derives all of that on
//! the fly, per run and per instruction. All produce identical outcomes —
//! this bench measures dispatch cost alone and asserts the two headline
//! claims: the unfused prepared engine is at least 1.5× the naive one,
//! and fusion is at least 1.25× on top of it, both on `compress`. The
//! `templates` rows time a loop built only from the three template shapes,
//! fused and unfused. The self-profiling variant (`profiled`, the
//! per-opcode `OpProfile` sink) must stay within 5% of the untraced fused
//! run.

use criterion::Criterion;
use isf_bench::{criterion, module};
use isf_exec::{
    run_naive, run_prepared, run_prepared_profiled, run_prepared_traced, FuseMode, OpProfile,
    PreparedModule, TraceBuffer, VmConfig,
};

/// A loop made of exactly the shapes the fusion templates cover: the
/// header's `i < 20000` (`br-cmp-imm`), `a.total + 3` stored back into
/// the field (`bin-imm-set-field`), and `i + 1` (`bin-imm`).
const TEMPLATE_LOOP: &str = "class Acc { field total; }
     fn main() {
         var a = new Acc; a.total = 0; var i = 0;
         while (i < 20000) { a.total = a.total + 3; i = i + 1; }
         print(a.total);
     }";

fn templates(c: &mut Criterion) {
    let cfg = VmConfig::default();
    let m = isf_frontend::compile(TEMPLATE_LOOP).expect("template loop compiles");
    for (row, mode) in [("fused", FuseMode::Fuse), ("prepared", FuseMode::Off)] {
        let p = PreparedModule::prepare_with(&m, &cfg.cost, mode);
        c.bench_function(format!("interp_dispatch/templates/{row}"), |b| {
            b.iter(|| run_prepared(&p, &cfg).unwrap())
        });
    }
}

fn dispatch(c: &mut Criterion) {
    let cfg = VmConfig::default();
    for name in ["compress", "mtrt", "db", "jess"] {
        let m = module(name);
        let fused = PreparedModule::prepare_with(&m, &cfg.cost, FuseMode::Fuse);
        let unfused = PreparedModule::prepare_with(&m, &cfg.cost, FuseMode::Off);
        c.bench_function(format!("interp_dispatch/fused/{name}"), |b| {
            b.iter(|| run_prepared(&fused, &cfg).unwrap())
        });
        // `prepared` is the pre-fusion engine (FuseMode::Off), keeping the
        // bench ID comparable with historical runs.
        c.bench_function(format!("interp_dispatch/prepared/{name}"), |b| {
            b.iter(|| run_prepared(&unfused, &cfg).unwrap())
        });
        c.bench_function(format!("interp_dispatch/naive/{name}"), |b| {
            b.iter(|| run_naive(&m, &cfg).unwrap())
        });
        // Re-preparing on every run (what `run` does, fusion included)
        // must still beat the naive engine; the decode-and-fuse pass is a
        // small fraction of a run.
        c.bench_function(format!("interp_dispatch/prepare_each_run/{name}"), |b| {
            b.iter(|| {
                let p = PreparedModule::prepare(&m, &cfg.cost);
                run_prepared(&p, &cfg).unwrap()
            })
        });
        // Live burst tracing: the generic-sink variant with a real buffer.
        // Uninstrumented modules take no samples, so this measures the
        // plumbing (the `S::ENABLED` branches), not record volume.
        c.bench_function(format!("interp_dispatch/traced/{name}"), |b| {
            b.iter(|| {
                let mut sink = TraceBuffer::new();
                run_prepared_traced(&fused, &cfg, &mut sink).unwrap()
            })
        });
        // Self-profiling: the per-opcode dispatch profile adds two array
        // bumps and a cycle delta per dispatch. The budget is 5% over the
        // untraced fused run — cheap enough to leave on in long soaks.
        c.bench_function(format!("interp_dispatch/profiled/{name}"), |b| {
            b.iter(|| {
                let mut profile = OpProfile::new();
                run_prepared_profiled(&fused, &cfg, &mut profile).unwrap()
            })
        });
    }
}

fn main() {
    let mut c = criterion();
    dispatch(&mut c);
    templates(&mut c);

    let fused = c
        .result_ns("interp_dispatch/fused/compress")
        .expect("fused/compress was measured");
    let fast = c
        .result_ns("interp_dispatch/prepared/compress")
        .expect("prepared/compress was measured");
    let slow = c
        .result_ns("interp_dispatch/naive/compress")
        .expect("naive/compress was measured");
    let speedup = slow / fast;
    println!("interp_dispatch: prepared dispatch is {speedup:.2}x the naive engine on compress");
    assert!(
        speedup >= 1.5,
        "prepared dispatch must be >= 1.5x faster than naive on compress, got {speedup:.2}x"
    );
    let fusion_speedup = fast / fused;
    println!(
        "interp_dispatch: fusion is {fusion_speedup:.2}x the unfused prepared engine on compress"
    );
    assert!(
        fusion_speedup >= 1.25,
        "fused dispatch must be >= 1.25x faster than unfused on compress, got {fusion_speedup:.2}x"
    );
    if let (Some(fused), Some(unfused)) = (
        c.result_ns("interp_dispatch/templates/fused"),
        c.result_ns("interp_dispatch/templates/prepared"),
    ) {
        println!(
            "interp_dispatch: fusion is {:.2}x the unfused prepared engine on the template loop",
            unfused / fused
        );
    }
    // The no-trace path is the zero-cost baseline: a live TraceBuffer on a
    // sample-free run should cost within noise of it (the recording sites
    // compile out entirely when the sink is NoTrace).
    let traced = c
        .result_ns("interp_dispatch/traced/compress")
        .expect("traced/compress was measured");
    println!(
        "interp_dispatch: live tracing is {:.3}x the fused prepared run on compress",
        traced / fused
    );
    // Per-opcode profiling must stay within 5% of the untraced fused run
    // on compress — the OpProfile sink is meant to be cheap enough to
    // enable on real experiment runs, not just microbenchmarks. The two
    // variants are timed interleaved and compared by their minima, so CPU
    // frequency drift between separately-measured criterion rows (which
    // can dwarf a 5% budget) cancels out of the ratio.
    let overhead = profiled_overhead();
    println!("interp_dispatch: per-opcode profiling is {overhead:.3}x the fused run on compress");
    assert!(
        overhead <= 1.05,
        "profiled dispatch must be <= 1.05x the untraced fused run on compress, got {overhead:.3}x"
    );
    c.final_summary();
}

/// Minimum-of-interleaved-rounds ratio of the profiled fused run to the
/// untraced fused run on `compress`. Minima over many alternated rounds
/// estimate each variant's noise floor under the same thermal and
/// frequency conditions; medians of rounds measured far apart do not.
fn profiled_overhead() -> f64 {
    let cfg = VmConfig::default();
    let m = module("compress");
    let fused = PreparedModule::prepare_with(&m, &cfg.cost, FuseMode::Fuse);
    // Warm both paths.
    run_prepared(&fused, &cfg).unwrap();
    run_prepared_profiled(&fused, &cfg, &mut OpProfile::new()).unwrap();
    let mut best_plain = f64::INFINITY;
    let mut best_profiled = f64::INFINITY;
    for _ in 0..60 {
        let start = std::time::Instant::now();
        criterion::black_box(run_prepared(&fused, &cfg).unwrap());
        best_plain = best_plain.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        let mut profile = OpProfile::new();
        criterion::black_box(run_prepared_profiled(&fused, &cfg, &mut profile).unwrap());
        best_profiled = best_profiled.min(start.elapsed().as_secs_f64());
    }
    best_profiled / best_plain
}

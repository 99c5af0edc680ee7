//! Differential property testing of the self-profiling layer: running
//! with an [`isf_exec::OpProfile`] sink must not change execution at all
//! (identical [`isf_exec::Outcome`]s and traps, both engines), and the
//! profile itself must be exact — per-opcode totals summing to the run's
//! own instruction and cycle counts — and engine-independent: the
//! tree-walking reference records every dispatch individually, while the
//! pre-decoded engine reconstructs counts from flow-entry deltas after
//! the run, and the two must produce the identical profile for the
//! identical run.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{
    run_naive, run_naive_profiled, run_prepared, run_prepared_profiled, ExecLimits, FuseMode,
    OpProfile, PreparedModule, Trigger, VmConfig,
};
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan,
};
use isf_integration_tests::compile;
use isf_integration_tests::program_gen::{render_program, stmt_strategy};

fn all_kinds() -> Vec<&'static dyn Instrumentation> {
    vec![
        &CallEdgeInstrumentation,
        &FieldAccessInstrumentation,
        &BlockCountInstrumentation,
        &EdgeCountInstrumentation,
    ]
}

/// Asserts the profiled entry points are observationally identical to the
/// unprofiled ones on `module`, that both engines produce the *same*
/// profile, and that the profile's totals reconcile exactly with the
/// outcome's counters.
fn profiles_agree(module: &isf_ir::Module, cfg: &VmConfig) -> Result<(), TestCaseError> {
    let plain_naive = run_naive(module, cfg);
    let mut naive_profile = OpProfile::new();
    let profiled_naive = run_naive_profiled(module, cfg, &mut naive_profile);
    prop_assert_eq!(
        &profiled_naive,
        &plain_naive,
        "profiling changed the naive engine's result"
    );

    // The unfused prepared pipeline dispatches the same plain opcode per
    // source instruction as the tree-walker, so its reconstructed profile
    // must equal the naive engine's per-dispatch-recorded one exactly —
    // counts, instructions, cycles, and the sample series.
    let unfused = PreparedModule::prepare_with(module, &cfg.cost, FuseMode::Off);
    let plain_unfused = run_prepared(&unfused, cfg);
    let mut unfused_profile = OpProfile::new();
    let profiled_unfused = run_prepared_profiled(&unfused, cfg, &mut unfused_profile);
    prop_assert_eq!(
        &profiled_unfused,
        &plain_unfused,
        "profiling changed the prepared engine's result"
    );
    prop_assert_eq!(
        &unfused_profile,
        &naive_profile,
        "unfused prepared profile diverged from the naive profile"
    );

    // Fusion changes which opcodes run, never what the run does: the
    // fused profile totals must reconcile with the same outcome.
    let fused = PreparedModule::prepare_with(module, &cfg.cost, FuseMode::Fuse);
    let mut fused_profile = OpProfile::new();
    let profiled_fused = run_prepared_profiled(&fused, cfg, &mut fused_profile);
    prop_assert_eq!(
        &profiled_fused,
        &plain_naive,
        "fused profiled run diverged from the reference"
    );

    for (profile, outcome, label) in [
        (&naive_profile, &profiled_naive, "naive"),
        (&unfused_profile, &profiled_unfused, "unfused"),
        (&fused_profile, &profiled_fused, "fused"),
    ] {
        if let Ok(o) = outcome {
            prop_assert_eq!(
                profile.total_instructions(),
                o.instructions,
                "{} profile instructions != outcome",
                label
            );
            prop_assert_eq!(
                profile.total_cycles(),
                o.cycles,
                "{} profile cycles != outcome",
                label
            );
            prop_assert_eq!(
                profile.checks_per_sample().len() as u64,
                o.samples_taken,
                "{} profile sample series != outcome",
                label
            );
        }
    }
    // On traps there is no outcome to reconcile against, but the two
    // identically-trapping engines already vouched for each other's
    // totals via the profile equality above.
    prop_assert_eq!(
        fused_profile.total_instructions(),
        naive_profile.total_instructions(),
        "fusion changed the dynamic instruction count"
    );
    prop_assert_eq!(
        fused_profile.total_cycles(),
        naive_profile.total_cycles(),
        "fusion changed the dynamic cycle count"
    );

    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn profiles_agree_on_random_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..8)
    ) {
        let module = compile(&render_program(&stmts));
        let cfg = VmConfig {
            limits: ExecLimits::cycles(500_000_000),
            ..VmConfig::default()
        };
        profiles_agree(&module, &cfg)?;
    }

    #[test]
    fn profiles_agree_on_instrumented_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // Sampled instrumentation exercises Check dispatches, the firing
        // path (sample-switch surcharge attribution), and the
        // inter-sample series.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        for strategy in [Strategy::FullDuplication, Strategy::NoDuplication] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            let cfg = VmConfig {
                trigger: Trigger::Counter { interval: 3 },
                limits: ExecLimits::cycles(500_000_000),
                ..VmConfig::default()
            };
            profiles_agree(&out, &cfg)?;
        }
    }

    #[test]
    fn profiles_agree_on_trapping_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        max_cycles in 1u64..5_000,
        max_heap in 1u64..128,
        max_stack in 2usize..24,
    ) {
        // Tight budgets make most programs trap mid-execution — including
        // mid-arm inside fused superinstructions — where the prepared
        // engine's post-run reconstruction must still attribute the
        // partial charge of the trapping dispatch exactly as the naive
        // engine's clock delta did.
        let module = compile(&render_program(&stmts));
        let cfg = VmConfig {
            limits: ExecLimits {
                max_cycles: Some(max_cycles),
                max_heap_words: Some(max_heap),
                max_stack,
            },
            ..VmConfig::default()
        };
        profiles_agree(&module, &cfg)?;
    }

    #[test]
    fn profiles_agree_under_timer_trigger(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        let (out, _) = instrument_module(
            &module, &plan, &Options::new(Strategy::FullDuplication),
        ).unwrap();
        let cfg = VmConfig {
            trigger: Trigger::TimerBit { period: 997 },
            limits: ExecLimits::cycles(500_000_000),
            ..VmConfig::default()
        };
        profiles_agree(&out, &cfg)?;
    }
}

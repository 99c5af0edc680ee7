//! Trap exactness of the three fusion templates the dispatch ablation
//! kept (`bin-imm`, `br-cmp-imm`, `bin-imm-set-field`; DESIGN.md decision
//! 19). Each test runs a program built from those shapes on the naive
//! engine and on the fused prepared engine and requires the same result —
//! outcome, or trap kind and function — and the same instruction and
//! cycle totals in the folded profile, whether the run ends normally,
//! runs out of fuel at any cycle, or traps inside a group.

use isf_exec::{
    run_naive_profiled, run_prepared_profiled, ExecLimits, FuseMode, OpProfile, PreparedModule,
    VmConfig,
};
use isf_integration_tests::compile;

/// Runs `src` under `max_cycles` on both engines, asserts they agree,
/// and returns whether the run trapped, with the fused profile.
fn fused_matches_naive(src: &str, max_cycles: Option<u64>) -> (bool, OpProfile) {
    let module = compile(src);
    let cfg = VmConfig {
        limits: ExecLimits {
            max_cycles,
            ..ExecLimits::default()
        },
        ..VmConfig::default()
    };
    let mut naive_profile = OpProfile::new();
    let naive = run_naive_profiled(&module, &cfg, &mut naive_profile);
    let fused = PreparedModule::prepare_with(&module, &cfg.cost, FuseMode::Fuse);
    let mut fused_profile = OpProfile::new();
    let result = run_prepared_profiled(&fused, &cfg, &mut fused_profile);
    assert_eq!(result, naive, "result at max_cycles={max_cycles:?}");
    assert_eq!(
        fused_profile.total_instructions(),
        naive_profile.total_instructions(),
        "instructions at max_cycles={max_cycles:?}"
    );
    assert_eq!(
        fused_profile.total_cycles(),
        naive_profile.total_cycles(),
        "cycles at max_cycles={max_cycles:?}"
    );
    (result.is_err(), fused_profile)
}

fn dispatched(profile: &OpProfile, name: &str) -> bool {
    profile.nonzero().any(|(_, n, ..)| n == name)
}

#[test]
fn fuel_budget_swept_across_every_template() {
    // The loop header is `br-cmp-imm`, the field update
    // `bin-imm-set-field` (two charge quanta), the increment `bin-imm`.
    let src = "
        class C { field n; }
        fn main() {
            var c = new C;
            c.n = 1;
            var i = 0;
            while (i < 6) { c.n = c.n * 3; i = i + 1; }
            print(c.n);
        }
    ";
    let (trapped, full) = fused_matches_naive(src, None);
    assert!(!trapped);
    for name in ["bin-imm", "br-cmp-imm", "bin-imm-set-field"] {
        assert!(dispatched(&full, name), "{name} never dispatched");
    }
    for max in 1..=full.total_cycles() + 1 {
        fused_matches_naive(src, Some(max));
    }
}

#[test]
fn execution_traps_inside_each_template() {
    for (src, template) in [
        // Division by a constant zero: the trap is the group's last step.
        ("fn main() { var a = 5; print(a / 0); }", "bin-imm"),
        // An ordering on a boolean traps in the compare, before the
        // branch's cost is charged.
        (
            "fn main() { var b = true; if (b < 3) { print(1); } else { print(2); } }",
            "br-cmp-imm",
        ),
        // The multiply succeeds and is written to its temporary; the store
        // through `null` traps in the group's second charge quantum.
        (
            "class C { field n; }
             fn main() { var c = new C; c.n = 2; var d = null; d.n = c.n * 3; }",
            "bin-imm-set-field",
        ),
    ] {
        let (trapped, profile) = fused_matches_naive(src, None);
        assert!(trapped, "expected a trap in: {src}");
        assert!(
            dispatched(&profile, template),
            "{template} not formed in: {src}"
        );
    }
}

//! Fault-tolerance properties spanning the execution engines and the
//! harness runner: no `(Trigger, ExecLimits)` combination makes an engine
//! panic — failures always surface as classified `VmError`s, identically
//! in every engine — and a trapping cell inside the parallel harness
//! becomes an `error` JSONL record while its siblings complete, with a
//! stream that is byte-identical across job counts.

use std::sync::Mutex;

use proptest::prelude::*;

use isf_exec::{run, run_naive, run_prepared, ExecLimits, PreparedModule, Trigger, VmConfig};
use isf_harness::runner::{self, cell, par_cells_isolated, split_results, Harness, HarnessConfig};
use isf_integration_tests::compile;
use isf_integration_tests::program_gen::{render_program, stmt_strategy};
use isf_obs::emit;

/// Serializes tests that set the process-global emit mode.
static EMIT_LOCK: Mutex<()> = Mutex::new(());

fn trigger_strategy() -> impl Strategy<Value = Trigger> {
    prop_oneof![
        Just(Trigger::Never),
        Just(Trigger::Always),
        (1u64..200).prop_map(|interval| Trigger::Counter { interval }),
        (1u64..200).prop_map(|interval| Trigger::CounterPerThread { interval }),
        ((1u64..100), (0u64..20), any::<u64>()).prop_map(|(interval, jitter, seed)| {
            Trigger::CounterRandomized {
                interval,
                jitter,
                seed,
            }
        }),
        (1u64..2_000).prop_map(|period| Trigger::TimerBit { period }),
    ]
}

fn limits_strategy() -> impl Strategy<Value = ExecLimits> {
    // A fuel draw of 0 means "effectively unlimited" — a ceiling far above
    // anything the generated programs execute — so the no-fuel-trap path
    // is exercised without risking an unbounded test run. A heap draw of 0
    // means a genuinely unlimited heap.
    (0u64..20_000, 0u64..512, 2usize..64).prop_map(|(fuel, heap, max_stack)| ExecLimits {
        max_cycles: Some(if fuel == 0 { 100_000_000 } else { fuel }),
        max_heap_words: (heap > 0).then_some(heap),
        max_stack,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_trigger_limits_combination_panics_an_engine(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        trigger in trigger_strategy(),
        limits in limits_strategy(),
    ) {
        // The engines' fault contract under arbitrary budgets: every
        // engine returns a `Result` — it never panics, whatever the
        // trigger or limits — and all of them return the same one.
        let module = compile(&render_program(&stmts));
        let cfg = VmConfig { trigger, limits, ..VmConfig::default() };
        let reference = run_naive(&module, &cfg);
        let fast = run(&module, &cfg);
        prop_assert_eq!(&fast, &reference, "run() diverged from run_naive()");
        let prepared = PreparedModule::prepare(&module, &cfg.cost);
        let replay = run_prepared(&prepared, &cfg);
        prop_assert_eq!(&replay, &reference, "run_prepared() diverged from run_naive()");
    }
}

#[test]
fn trapping_cell_yields_error_record_while_siblings_complete() {
    let _guard = EMIT_LOCK.lock().unwrap();
    let good = compile("fn main() { var i = 0; while (i < 100) { i = i + 1; } }");
    let bad = compile("fn main() { var x = 1 / 0; }");
    emit::set_mode(emit::EmitMode::Json);
    emit::set_redact(true);
    let run_once = |jobs: usize| {
        let h = Harness::new(HarnessConfig {
            jobs,
            ..HarnessConfig::default()
        });
        let h = &h;
        let cells = vec![
            cell("fault/ok-before", || {
                runner::run_module(h, &good, Trigger::Never).cycles
            }),
            cell("fault/traps", || {
                runner::run_module(h, &bad, Trigger::Never).cycles
            }),
            cell("fault/ok-after", || {
                runner::run_module(h, &good, Trigger::Never).cycles
            }),
        ];
        let (oks, errors) = split_results(par_cells_isolated(h, cells));
        assert_eq!(oks.len(), 2, "sibling cells must complete");
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label, "fault/traps");
        assert_eq!(errors[0].kind, "trap");
        assert!(
            errors[0].detail.contains("division by zero"),
            "{}",
            errors[0]
        );
        assert_eq!(errors[0].attempts, 1);
        emit::drain()
    };
    let serial = run_once(1);
    let parallel = run_once(4);
    emit::set_mode(emit::EmitMode::Off);
    emit::set_redact(false);
    assert_eq!(
        serial, parallel,
        "error-bearing JSONL stream depends on the job count"
    );
    assert!(serial.contains("\"type\":\"error\""));
    assert!(serial.contains("\"label\":\"fault/traps\""));
    assert!(serial.contains("\"kind\":\"trap\""));
    // 3 cell records + 1 error record, the error right after its cell.
    assert_eq!(isf_harness::jsonl::validate(&serial), Ok(4));
    let lines: Vec<&str> = serial.lines().collect();
    assert!(lines[1].contains("\"label\":\"fault/traps\""));
    assert!(lines[2].contains("\"type\":\"error\""));
}

#[test]
fn budget_capped_cell_is_classified_as_budget_not_trap() {
    let spin = compile("fn main() { var i = 0; while (i < 1000000) { i = i + 1; } }");
    let h = Harness::new(HarnessConfig {
        cell_budget: 500,
        ..HarnessConfig::default()
    });
    let results = par_cells_isolated(
        &h,
        vec![cell("fault/budget", || {
            runner::run_module(&h, &spin, Trigger::Never).cycles
        })],
    );
    let (oks, errors) = split_results(results);
    assert!(oks.is_empty());
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].kind, "budget");
    assert!(
        errors[0].detail.contains("cycle budget of 500 exceeded"),
        "{}",
        errors[0]
    );
}

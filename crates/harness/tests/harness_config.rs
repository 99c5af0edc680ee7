//! The harness configuration is one explicit value: what it fingerprints
//! into a journal is stable across releases, and two harnesses in one
//! process never see each other's settings.

use std::sync::Barrier;

use isf_exec::Trigger;
use isf_harness::cli::ALL_EXPERIMENTS;
use isf_harness::runner::{
    cell, par_cells_isolated, run_inputs, run_module, CellResult, Harness, HarnessConfig,
};
use isf_harness::Scale;

fn smoke(config: HarnessConfig) -> HarnessConfig {
    HarnessConfig {
        scale: Scale::Smoke,
        ..config
    }
}

#[test]
fn run_inputs_fingerprints_match_journals_from_earlier_releases() {
    // Journals already on disk carry these fingerprints: a change to what
    // `run_inputs` collects, or to how a config value renders into it,
    // would make every one of them refuse to resume.
    let experiments: Vec<String> = ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
    let fingerprint =
        |cfg: &HarnessConfig| format!("{:016x}", run_inputs(cfg, &experiments).fingerprint());
    let default = smoke(HarnessConfig::default());
    assert_eq!(fingerprint(&default), "dd76a20579f11428");
    let every_field = HarnessConfig {
        cell_budget: 1000,
        retries: 2,
        fault: Some((0.25, 7)),
        cancel_after: 5000,
        ..default.clone()
    };
    assert_eq!(fingerprint(&every_field), "77edc561b8d8c406");
    // Settings that do not change what a cell computes stay out.
    let unfingerprinted = HarnessConfig {
        jobs: default.jobs + 3,
        cell_deadline: 250,
        fuse: !default.fuse,
        ..default.clone()
    };
    assert_eq!(fingerprint(&unfingerprinted), fingerprint(&default));
}

#[test]
fn concurrent_harnesses_keep_their_own_settings() {
    // Two harnesses with different budgets run the same module at the
    // same time — a barrier holds each cell until both are in flight —
    // with no lock: each cell sees only its own harness's configuration.
    let m = isf_frontend::compile("fn main() { var i = 0; while (i < 100000) { i = i + 1; } }")
        .unwrap();
    let capped = Harness::new(smoke(HarnessConfig {
        cell_budget: 500,
        ..HarnessConfig::default()
    }));
    let uncapped = Harness::new(smoke(HarnessConfig::default()));
    let both_running = Barrier::new(2);
    let run_on = |h: &Harness| {
        let cells = vec![cell("concurrent/spin", || {
            both_running.wait();
            run_module(h, &m, Trigger::Never).cycles
        })];
        par_cells_isolated(h, cells).pop().unwrap()
    };
    let (capped_result, uncapped_result) = std::thread::scope(|s| {
        let a = s.spawn(|| run_on(&capped));
        let b = s.spawn(|| run_on(&uncapped));
        (a.join().unwrap(), b.join().unwrap())
    });
    match capped_result {
        CellResult::Budget(e) => assert!(e.detail.contains("cycle budget of 500"), "{e}"),
        other => panic!("expected a budget failure, got {other:?}"),
    }
    assert!(
        matches!(uncapped_result, CellResult::Ok(cycles) if cycles > 500),
        "the uncapped harness must not see the other's budget: {uncapped_result:?}"
    );
}

#[test]
fn removed_pgo_flag_exits_with_the_unknown_flag_code() {
    // `--pgo` went with profile-guided fusion: the binary names it and
    // exits 2 before running anything, instead of silently ignoring it.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_isf-harness"))
        .args(["--scale", "smoke", "--pgo", "table1"])
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--pgo`"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run");
}

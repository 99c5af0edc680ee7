//! Regression tests for the prepared dispatch loop's write-back points.
//!
//! The loop keeps the running frame's `ip`, op arena, slot base and
//! locals window in local variables and writes them back to the frame
//! record only at calls, returns, slice exits (switch requests) and traps
//! (DESIGN.md decision 17). Each test drives one of those points and
//! asserts that the prepared engine — unfused and statically fused, each
//! plain and profiled through `fold_profile` — agrees
//! exactly with the tree-walking reference: output, cycles, instructions
//! and every counter on success; trap kind and trapping function on
//! failure; the per-opcode profile (exactly for the unfused form, in
//! instruction and cycle totals for the fused ones).

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{
    cancel, run_naive, run_naive_profiled, run_naive_traced, run_prepared, run_prepared_profiled,
    run_prepared_sched, ExecLimits, FuseMode, OpProfile, Outcome, PreparedModule, SchedControl,
    TraceBuffer, TrapKind, Trigger, VmConfig, VmError,
};
use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, Instrumentation, ModulePlan};
use isf_integration_tests::compile;
use isf_ir::Module;

type RunResult = Result<Outcome, VmError>;

/// Runs `module` under `cfg` on every engine configuration and asserts
/// they all agree with the naive engine. Returns the naive result.
fn assert_engines_agree(module: &Module, cfg: &VmConfig) -> RunResult {
    let mut naive_profile = OpProfile::new();
    let naive = run_naive_profiled(module, cfg, &mut naive_profile);
    assert_eq!(
        run_naive(module, cfg),
        naive,
        "naive profiling changed the run"
    );
    let modes = [("unfused", FuseMode::Off), ("fused", FuseMode::Fuse)];
    for (name, mode) in modes {
        let prepared = PreparedModule::prepare_with(module, &cfg.cost, mode);
        assert_eq!(run_prepared(&prepared, cfg), naive, "{name}: result");
        let mut profile = OpProfile::new();
        let profiled = run_prepared_profiled(&prepared, cfg, &mut profile);
        assert_eq!(profiled, naive, "{name} profiled: result");
        if name == "unfused" {
            assert_eq!(profile, naive_profile, "{name}: per-opcode profile");
        }
        assert_eq!(
            profile.total_instructions(),
            naive_profile.total_instructions(),
            "{name}: profiled instructions"
        );
        assert_eq!(
            profile.total_cycles(),
            naive_profile.total_cycles(),
            "{name}: profiled cycles"
        );
    }
    naive
}

fn stack_limited(max_stack: usize) -> VmConfig {
    VmConfig {
        limits: ExecLimits {
            max_stack,
            ..ExecLimits::default()
        },
        ..VmConfig::default()
    }
}

#[test]
fn recursion_to_exactly_max_stack_and_one_frame_past() {
    // `main` is frame 1 and `f(n)` adds n + 1 frames, so `f(62)` fills a
    // 64-frame stack exactly and `f(63)` overflows on its last call.
    let direct = |n: u32| {
        compile(&format!(
            "fn f(n) {{ if (n == 0) {{ return 0; }} return f(n - 1) + 1; }}
             fn main() {{ print(f({n})); }}"
        ))
    };
    let method = |n: u32| {
        compile(&format!(
            "class R {{ method f(n) {{ if (n == 0) {{ return 0; }} return self.f(n - 1) + 1; }} }}
             fn main() {{ var r = new R; print(r.f({n})); }}"
        ))
    };
    for (build, name) in [(&direct as &dyn Fn(u32) -> Module, "f"), (&method, "R::f")] {
        let cfg = stack_limited(64);
        let fits = assert_engines_agree(&build(62), &cfg).expect("62 levels fit");
        assert_eq!(fits.output, vec![62]);
        let err = assert_engines_agree(&build(63), &cfg).expect_err("63 levels overflow");
        assert_eq!(err.kind, TrapKind::StackOverflow(64));
        assert_eq!(err.function, name);
    }
}

#[test]
fn spawn_past_a_zero_depth_limit_traps_in_the_spawner() {
    let m = compile("fn w() { } fn main() { var t = spawn w(); join(t); }");
    let err = assert_engines_agree(&m, &stack_limited(0)).expect_err("no room for a frame");
    assert_eq!(err.kind, TrapKind::StackOverflow(0));
    assert_eq!(err.function, "main");
}

#[test]
fn dynamic_method_call_traps_after_its_arguments_were_evaluated() {
    // Two classes give `m` two implementations, so the call stays a
    // dynamic `CallMethod`; its argument expression (with a call and a
    // print of its own) runs before the receiver's lookup fails.
    let no_such_method = compile(
        "class A { method m(x) { return x; } }
         class B { method m(x) { return x + 1; } }
         class C { field f; }
         fn side(v) { print(v); return v * 2; }
         fn main() {
             var a = new A; var b = new B; var c = new C;
             print(a.m(side(1)) + b.m(side(2)));
             print(c.m(side(3)));
         }",
    );
    let err =
        assert_engines_agree(&no_such_method, &VmConfig::default()).expect_err("C has no method m");
    assert_eq!(err.kind, TrapKind::NoSuchMethod("m".to_owned()));
    assert_eq!(err.function, "main");

    let arity = compile(
        "class A { method m(x) { return x; } }
         class B { method m(x, y) { return x + y; } }
         fn side(v) { print(v); return v * 2; }
         fn main() {
             var a = new A; var b = new B;
             print(a.m(side(1)));
             print(b.m(side(2)));
         }",
    );
    let err =
        assert_engines_agree(&arity, &VmConfig::default()).expect_err("B.m takes two arguments");
    assert!(
        matches!(
            err.kind,
            TrapKind::ArityMismatch {
                given: 2,
                expected: 3,
                ..
            }
        ),
        "{:?}",
        err.kind
    );
    assert_eq!(err.function, "main");
}

#[test]
fn blocking_join_that_is_woken() {
    let m = compile(
        "class Cell { field v; }
         fn work(c, n) { var i = 0; while (i < n) { c.v = c.v + i; i = i + 1; } }
         fn main() {
             var c = new Cell; c.v = 0;
             var t = spawn work(c, 3000);
             join(t);
             print(c.v);
         }",
    );
    let cfg = VmConfig {
        timeslice: 500,
        ..VmConfig::default()
    };
    let o = assert_engines_agree(&m, &cfg).expect("join wakes");
    assert_eq!(o.output, vec![(0..3000).sum::<i64>()]);
    assert!(o.thread_switches > 0);
}

#[test]
fn blocking_join_that_deadlocks() {
    // main joins a, a joins b, b joins a: every thread ends up blocked.
    let m = compile(
        "class Cell { field t; }
         fn a(c) { join(c.t); }
         fn b(ta) { join(ta); }
         fn main() {
             var c = new Cell;
             var ta = spawn a(c);
             var tb = spawn b(ta);
             c.t = tb;
             join(ta);
         }",
    );
    let err = assert_engines_agree(&m, &VmConfig::default()).expect_err("cyclic joins");
    assert_eq!(err.kind, TrapKind::Deadlock);
}

#[test]
fn firing_checks_record_the_same_bursts_under_both_sinks() {
    let src = "
        class P { field x; field y; method step(d) { self.x = self.x + d; self.y = self.y + self.x; return self.y; } }
        fn helper(p, n) { var s = 0; var i = 0; while (i < n) { s = s + p.step(i); i = i + 1; } return s; }
        fn main() { var p = new P; p.x = 0; p.y = 0; var i = 0; var t = 0; while (i < 40) { t = t + helper(p, 25); i = i + 1; } print(t); }
    ";
    let m = compile(src);
    let kinds: [&dyn Instrumentation; 2] = [&CallEdgeInstrumentation, &FieldAccessInstrumentation];
    let plan = ModulePlan::build(&m, &kinds);
    let (m, _) = instrument_module(&m, &plan, &Options::new(Strategy::FullDuplication))
        .expect("valid options");
    let cfg = VmConfig {
        trigger: Trigger::Counter { interval: 37 },
        ..VmConfig::default()
    };
    let naive_outcome = assert_engines_agree(&m, &cfg).expect("instrumented program runs");
    assert!(naive_outcome.samples_taken > 10, "the trigger must fire");
    let mut naive_trace = TraceBuffer::new();
    assert_eq!(
        run_naive_traced(&m, &cfg, &mut naive_trace),
        Ok(naive_outcome)
    );
    for mode in [FuseMode::Off, FuseMode::Fuse] {
        let prepared = PreparedModule::prepare_with(&m, &cfg.cost, mode);
        // Both sinks at once: the trace records each firing check's
        // `check_ip`, the profile counts the firing for the surcharge.
        let mut trace = TraceBuffer::new();
        let mut profile = OpProfile::new();
        let r = run_prepared_sched(
            &prepared,
            &cfg,
            &mut trace,
            &mut profile,
            &mut SchedControl::default(),
        );
        assert!(r.is_ok(), "{mode:?}");
        assert_eq!(trace, naive_trace, "{mode:?}: burst records");
        assert_eq!(profile.total_cycles(), r.unwrap().cycles, "{mode:?}");
    }
}

#[test]
fn cancel_after_cycles_landing_inside_fused_groups() {
    // `self.pos = self.pos + 1` and `while (i < 6)` fuse into multi-quantum
    // groups; sweeping the cancellation point walks it across every
    // component boundary, and through the calls and returns between.
    let m = compile(
        "class C { field pos; method bump() { self.pos = self.pos + 1; return self.pos; } }
         fn main() {
             var c = new C; c.pos = 0;
             var i = 0; var s = 0;
             while (i < 6) { s = s + c.bump(); i = i + 1; }
             print(s);
         }",
    );
    let mut cancelled = 0;
    for k in 1..400 {
        let _scope = cancel::arm(None, Some(k));
        match assert_engines_agree(&m, &VmConfig::default()) {
            Err(e) => {
                assert_eq!(e.kind, TrapKind::Cancelled, "k={k}");
                cancelled += 1;
            }
            Ok(o) => assert!(o.cycles <= k, "k={k}"),
        }
    }
    assert!(cancelled > 100, "the sweep must mostly land mid-run");
}

#[test]
fn deep_call_chains_across_green_thread_switches() {
    // Three threads descend 150–300 frames each; a short timeslice makes
    // the scheduler switch mid-descent, so each thread's value stack grows
    // while the others' frames are live.
    let m = compile(
        "class Cell { field v; }
         fn down(n) {
             if (n == 0) { return 0; }
             var s = 0; var i = 0;
             while (i < 3) { s = s + i; i = i + 1; }
             return down(n - 1) + s + 1;
         }
         fn worker(c, n) { c.v = down(n); }
         fn main() {
             var c1 = new Cell; var c2 = new Cell;
             var t1 = spawn worker(c1, 300);
             var t2 = spawn worker(c2, 250);
             var mine = down(150);
             join(t1); join(t2);
             print(c1.v); print(c2.v); print(mine);
         }",
    );
    let cfg = VmConfig {
        timeslice: 200,
        ..VmConfig::default()
    };
    let o = assert_engines_agree(&m, &cfg).expect("deep chains complete");
    assert_eq!(o.output, vec![4 * 300, 4 * 250, 4 * 150]);
    assert!(
        o.thread_switches > 20,
        "only {} switches",
        o.thread_switches
    );
}

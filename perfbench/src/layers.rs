//! The benchmark's calls into each crate's public functions, wrapped in
//! spans named after the layer, and the per-layer metrics derived from
//! those spans and counts.

use std::time::Instant;

use isf_core::{instrument_module, Options};
use isf_exec::{CostModel, Outcome, PreparedModule};
use isf_instr::{Instrumentation, ModulePlan};
use isf_ir::Module;

use crate::metrics::{Values, PER_LAYER};
use crate::trace::Tracer;

/// One module through compile → plan → transform → prepare.
pub struct Built {
    /// The instrumented module (what the naive oracle runs).
    pub module: Module,
    /// Its decoded form (what the engine under test runs).
    pub prepared: PreparedModule,
    /// Wall seconds from compile through prepare.
    pub pipeline_s: f64,
}

/// Compiles `source`, plans `kinds`, applies the framework under
/// `options` and prepares the result, timing each layer.
///
/// # Panics
///
/// Panics if a suite program fails to compile or `options` is invalid;
/// both are fixed by the benchmark, so either is a bug.
pub fn build(
    source: &str,
    kinds: &[&dyn Instrumentation],
    options: &Options,
    tracer: &mut Tracer,
) -> Built {
    let start = Instant::now();
    let module = tracer
        .time("frontend.compile", || isf_frontend::compile(source))
        .expect("suite programs compile");
    tracer.count("frontend.modules", 1.0);
    tracer.count("frontend.bytes", source.len() as f64);
    let plan = tracer.time("instr.plan", || ModulePlan::build(&module, kinds));
    tracer.count("instr.insertions", plan.num_insertions() as f64);
    let (module, stats) = tracer
        .time("core.transform", || {
            instrument_module(&module, &plan, options)
        })
        .expect("benchmark configurations are valid");
    tracer.count("core.transforms", 1.0);
    tracer.count("core.bytes_before", stats.bytes_before as f64);
    tracer.count("core.bytes_after", stats.bytes_after as f64);
    tracer.count("core.checks_inserted", stats.total_checks() as f64);
    let prepared = tracer.time("exec.prepare", || {
        PreparedModule::prepare(&module, &CostModel::default())
    });
    tracer.count("exec.prepared_ops", prepared.num_ops() as f64);
    tracer.count("exec.fused_ops", prepared.num_fused() as f64);
    Built {
        module,
        prepared,
        pipeline_s: start.elapsed().as_secs_f64(),
    }
}

/// Counts what one engine run did.
pub fn count_outcome(tracer: &mut Tracer, o: &Outcome) {
    tracer.count("exec.instructions", o.instructions as f64);
    tracer.count("exec.sim_cycles", o.cycles as f64);
    tracer.count("exec.checks", o.checks_executed as f64);
    tracer.count("exec.samples", o.samples_taken as f64);
    tracer.count("exec.thread_switches", o.thread_switches as f64);
    let events = o.profile.total_call_edge_events() + o.profile.total_field_access_events();
    tracer.count("profile.events", events as f64);
}

/// What one timed pass did.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall seconds of the pass.
    pub wall: f64,
    /// CPU seconds (user + system) over the pass.
    pub cpu: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that trapped or differed from their reference.
    pub failed: u64,
    /// Simulated instructions executed.
    pub instructions: u64,
    /// Simulated instructions executed inside fused superinstructions
    /// (profiled passes only).
    pub fused_instructions: u64,
    /// Wall seconds inside engine runs.
    pub exec_s: f64,
    /// Wall seconds in compile → plan → transform → prepare.
    pub pipeline_s: f64,
    /// Modules through that pipeline.
    pub modules: u64,
    /// Wall seconds of each operation.
    pub op_s: Vec<f64>,
}

/// A timer over one pass: wall and process CPU from construction.
pub struct PassClock {
    wall: Instant,
    cpu: std::time::Duration,
}

impl PassClock {
    /// Starts timing.
    pub fn start() -> Self {
        PassClock {
            cpu: crate::sys::self_cpu(),
            wall: Instant::now(),
        }
    }

    /// Stops timing into `pass`.
    pub fn stop(self, pass: &mut Pass) {
        pass.wall = self.wall.elapsed().as_secs_f64();
        pass.cpu = (crate::sys::self_cpu() - self.cpu).as_secs_f64();
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of an in-process workload: the crate layers from the
/// tracer's spans and counts (the traced set-up and pass), the fused
/// share and profile-sink cost from the profiled pass. The `harness.*`
/// layer is not exercised in process and reads 0.
pub fn layer_values(tracer: &Tracer, traced: &Pass, profiled: &Pass) -> Values {
    let mut v: Values = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let compile_s = tracer.seconds("frontend.compile");
    let dispatch_s = tracer.seconds("exec.dispatch");
    let counted = |n| tracer.counted(n);
    v.insert("frontend.compile_s", compile_s);
    v.insert("frontend.modules", counted("frontend.modules"));
    v.insert(
        "frontend.bytes_per_s",
        ratio(counted("frontend.bytes"), compile_s),
    );
    v.insert("instr.plan_s", tracer.seconds("instr.plan"));
    v.insert("instr.insertions", counted("instr.insertions"));
    v.insert("core.transform_s", tracer.seconds("core.transform"));
    v.insert("core.transforms", counted("core.transforms"));
    v.insert(
        "core.size_growth",
        ratio(counted("core.bytes_after"), counted("core.bytes_before")),
    );
    v.insert("core.checks_inserted", counted("core.checks_inserted"));
    v.insert("exec.prepare_s", tracer.seconds("exec.prepare"));
    v.insert("exec.prepared_ops", counted("exec.prepared_ops"));
    v.insert("exec.fused_ops", counted("exec.fused_ops"));
    v.insert("exec.dispatch_s", dispatch_s);
    for n in [
        "exec.instructions",
        "exec.sim_cycles",
        "exec.checks",
        "exec.samples",
        "exec.thread_switches",
        "profile.events",
    ] {
        v.insert(n, counted(n));
    }
    v.insert(
        "exec.mips",
        ratio(counted("exec.instructions"), dispatch_s) / 1e6,
    );
    v.insert(
        "exec.fused_dynamic_share",
        ratio(
            profiled.fused_instructions as f64,
            profiled.instructions as f64,
        ),
    );
    v.insert(
        "exec.profile_sink_overhead",
        ratio(profiled.exec_s, traced.exec_s),
    );
    v.insert(
        "profile.events_per_s",
        ratio(counted("profile.events"), dispatch_s),
    );
    v.insert("profile.overlap_s", tracer.seconds("profile.overlap"));
    v
}

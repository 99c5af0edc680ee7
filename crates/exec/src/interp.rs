//! The execution engine: green threads, yieldpoints, sampling checks, cost
//! accounting and profiling, dispatching over pre-decoded ops.
//!
//! The hot loop here runs the dense form built by [`PreparedModule`]: one
//! flat op arena per function, absolute branch targets, pre-folded cycle
//! costs and pre-classified backedges, so each dispatch is a single fetch
//! of `ops[ip]` and a straight `match` on the decoded [`OpKind`] — no
//! block lookup, no cost re-derivation, no backedge-set probe. One thread
//! runs in [`Machine::run_slice`] until a reschedule point, with the
//! running frame's `ops`, `ip`, slot base and locals window held in local
//! variables (DESIGN.md decision 17). The semantic
//! reference for this engine is the tree-walking interpreter in
//! [`crate::naive`]; the two are differentially tested to produce
//! identical [`Outcome`]s.
//!
//! [`run`] keeps the classic entry point (it prepares internally);
//! [`run_prepared`] lets callers amortize one preparation over many runs
//! of the same (module, cost) cell, which is how the harness executes its
//! interval sweeps.

use isf_ir::{CallSiteId, FuncId, LocalId, Module};
use isf_profile::ProfileData;

use crate::cancel::{self, ArmedToken};
use crate::cost::CostModel;
use crate::error::{TrapKind, VmError};
use crate::heap::Heap;
use crate::outcome::Outcome;
use crate::prepared::{InstrEffect, Op, OpKind, PreparedFunction, PreparedModule};
use crate::profile::{NoMetrics, ProfileSink};
use crate::sched::SchedControl;
use crate::trace::{BurstRecord, NoTrace, TraceSink};
use crate::trigger::{Trigger, TriggerState};
use crate::value::Value;

/// Resource budgets a run must stay within. The paper's framework is
/// meant to run in production, where instrumentation must degrade
/// gracefully rather than take the host down; these limits are the
/// engine-level half of that contract — a run that exceeds one traps
/// deterministically ([`TrapKind::FuelExhausted`],
/// [`TrapKind::HeapExhausted`], [`TrapKind::StackOverflow`]) at the same
/// point in both execution engines, and the harness recovers instead of
/// crashing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExecLimits {
    /// Abort with [`TrapKind::FuelExhausted`] past this many simulated
    /// cycles (`None` = unlimited).
    pub max_cycles: Option<u64>,
    /// Abort with [`TrapKind::HeapExhausted`] once more than this many
    /// heap words are allocated (`None` = unlimited). One allocation costs
    /// a header word plus a word per field or element.
    pub max_heap_words: Option<u64>,
    /// Maximum call-stack depth per thread
    /// ([`TrapKind::StackOverflow`] beyond it).
    pub max_stack: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        Self {
            max_cycles: None,
            max_heap_words: None,
            max_stack: 4096,
        }
    }
}

impl ExecLimits {
    /// Unlimited cycles and heap with the default stack depth.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A cycle budget with the other limits at their defaults.
    pub fn cycles(max_cycles: u64) -> Self {
        Self {
            max_cycles: Some(max_cycles),
            ..Self::default()
        }
    }
}

/// Interpreter configuration.
#[derive(Copy, Clone, Debug)]
pub struct VmConfig {
    /// Per-instruction cycle costs.
    pub cost: CostModel,
    /// The sampling trigger evaluated by `check` terminators.
    pub trigger: Trigger,
    /// Simulated cycles between threadswitch-bit sets (Jalapeño's 10 ms
    /// timer analogue).
    pub timeslice: u64,
    /// Resource budgets (cycles, heap words, stack depth).
    pub limits: ExecLimits,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            trigger: Trigger::Never,
            timeslice: 100_000,
            limits: ExecLimits::default(),
        }
    }
}

/// Runs `module` to completion under `config`, preparing it internally.
///
/// For repeated runs of the same module under the same cost model, build a
/// [`PreparedModule`] once and call [`run_prepared`] instead.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap (type errors, null
/// dereference, out-of-bounds access, deadlock, exceeded budgets).
pub fn run(module: &Module, config: &VmConfig) -> Result<Outcome, VmError> {
    let prepared = PreparedModule::prepare(module, &config.cost);
    run_prepared(&prepared, config)
}

/// Runs an already-prepared module to completion under `config`,
/// amortizing the preparation cost across repeated runs.
///
/// `config.trigger`, `config.timeslice` and `config.limits` may vary
/// freely between runs of one preparation;
/// `config.cost` must equal the cost model the module was prepared with,
/// because per-op costs were folded in at prepare time.
///
/// # Panics
///
/// Panics if `config.cost` differs from the preparation cost model.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap, exactly as [`run`] does.
pub fn run_prepared(prepared: &PreparedModule, config: &VmConfig) -> Result<Outcome, VmError> {
    run_prepared_traced(prepared, config, &mut NoTrace)
}

/// [`run`] with a burst-trace sink: prepares internally, then records every
/// sampling burst into `sink`. See [`TraceSink`](crate::TraceSink) for the
/// recording contract.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap, exactly as [`run`] does.
pub fn run_traced<S: TraceSink>(
    module: &Module,
    config: &VmConfig,
    sink: &mut S,
) -> Result<Outcome, VmError> {
    let prepared = PreparedModule::prepare(module, &config.cost);
    run_prepared_traced(&prepared, config, sink)
}

/// [`run_prepared`] with a burst-trace sink.
///
/// The sink is a compile-time parameter: with [`NoTrace`] (what
/// [`run_prepared`] passes) every recording site compiles away and this
/// *is* the untraced hot loop.
///
/// # Panics
///
/// Panics if `config.cost` differs from the preparation cost model.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap, exactly as [`run`] does.
pub fn run_prepared_traced<S: TraceSink>(
    prepared: &PreparedModule,
    config: &VmConfig,
    sink: &mut S,
) -> Result<Outcome, VmError> {
    // The default control is the recording-free round-robin fast path —
    // this call adds nothing to the plain hot loop.
    run_prepared_sched(
        prepared,
        config,
        sink,
        &mut NoMetrics,
        &mut SchedControl::default(),
    )
}

/// [`run_prepared`] with a per-opcode dispatch-profile sink. See
/// [`crate::profile`] for the recording contract.
///
/// # Panics
///
/// Panics if `config.cost` differs from the preparation cost model.
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap, exactly as [`run`] does.
pub fn run_prepared_profiled<P: ProfileSink>(
    prepared: &PreparedModule,
    config: &VmConfig,
    profile: &mut P,
) -> Result<Outcome, VmError> {
    run_prepared_sched(
        prepared,
        config,
        &mut NoTrace,
        profile,
        &mut SchedControl::default(),
    )
}

/// [`run_prepared`] with both observers — a burst-trace sink and a
/// dispatch-profile sink, each independently monomorphized ([`NoTrace`] /
/// [`NoMetrics`] compile their recording sites away) — and an explicit
/// scheduling control: a [`SchedControl`] selecting the policy (round-robin, seeded-random or
/// PCT), replaying a recorded [`crate::ScheduleTrace`], or following a DFS
/// choice prefix. See [`crate::sched`] for the scheduling contract; the
/// recorded trace stays in `sched` after the run.
///
/// # Panics
///
/// Panics if `config.cost` differs from the preparation cost model, or if
/// a replaying control diverges from its trace (impossible when replaying
/// a trace recorded from the same program and config).
///
/// # Errors
///
/// Returns a [`VmError`] on any runtime trap, exactly as [`run`] does.
pub fn run_prepared_sched<S: TraceSink, P: ProfileSink>(
    prepared: &PreparedModule,
    config: &VmConfig,
    sink: &mut S,
    profile: &mut P,
    sched: &mut SchedControl,
) -> Result<Outcome, VmError> {
    assert_eq!(
        &config.cost,
        prepared.cost(),
        "run_prepared: config cost model differs from the preparation cost model"
    );
    let mut machine = Machine::new(prepared, config, sink, profile, sched);
    let result = machine.run_to_completion().map_err(|t| *t.0);
    if P::ENABLED {
        machine.fold_profile(result.as_ref().err());
    }
    match result {
        Ok(()) => Ok(machine.into_outcome()),
        Err(kind) => Err(VmError {
            function: machine.current_function_name(),
            kind,
        }),
    }
}

/// One activation record. While its thread runs a slice, the top frame's
/// `ip` lives in a register of [`Machine::run_slice`] and is stale here;
/// it is written back at the write-back points (calls, slice exits).
struct Frame<'p> {
    func: FuncId,
    /// The function's decoded op arena, cached at call time so a return
    /// reloads the caller's registers without a function lookup.
    ops: &'p [Op],
    /// The function's offset into the module-wide slot space
    /// ([`PreparedFunction::slot_base`]), cached at call time so the
    /// profiled engine's counter bump is `entry_deltas[base + ip]` with no
    /// per-dispatch function lookup.
    base: u32,
    /// Absolute index into the function's op arena: the next op to run
    /// for a suspended frame, the attempted op for a frame a trap unwound
    /// from.
    ip: usize,
    /// Offset of this frame's locals in its thread's value stack.
    fp: usize,
    ret_dst: Option<LocalId>,
    caller: Option<(FuncId, CallSiteId)>,
    /// Ball–Larus path register. `None` means "no path in progress": set
    /// by `PathStart`, consumed by `PathEnd`. The option makes sampled
    /// runs sound — a burst that enters duplicated code mid-path simply
    /// records nothing until the next path start.
    path_reg: Option<i64>,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    Blocked(usize),
    Done,
}

struct Thread<'p> {
    frames: Vec<Frame<'p>>,
    /// The thread's one contiguous value stack: frame `i`'s locals are
    /// `stack[frames[i].fp..]` up to the next frame's `fp`, so the top
    /// frame's locals are the stack's tail. Grows on demand at calls and
    /// shrinks back at returns; a finished thread drops it.
    stack: Vec<Value>,
    state: ThreadState,
}

/// The dispatch loop's error: the trap, boxed so the loop's result is one
/// word and the 40-byte [`TrapKind`] (with its `String` payloads) is only
/// built on the cold path.
struct Trap(Box<TrapKind>);

impl From<TrapKind> for Trap {
    #[cold]
    #[inline(never)]
    fn from(kind: TrapKind) -> Self {
        Trap(Box::new(kind))
    }
}

// Size pins for the hot loop's result type: a later change must not grow
// the loop's error path back to a `TrapKind`-sized return.
const _: () = assert!(std::mem::size_of::<Result<(), Trap>>() == 8);

struct Machine<'p, 's, S: TraceSink, P: ProfileSink> {
    prepared: &'p PreparedModule,
    sink: &'s mut S,
    /// Per-opcode dispatch-profile sink; every recording site is guarded
    /// by `if P::ENABLED`, so [`NoMetrics`] compiles them away.
    psink: &'s mut P,
    /// Flow-entry deltas per module-wide arena slot, the profiled
    /// engine's entire hot-path cost: one `+1` per control transfer
    /// (branch, jump, call, check edge — 10–30% of dispatches), nothing
    /// at all on straight-line flow. Within a block, flow that enters at
    /// slot `e` executes every slot from `e` to the block's final op, so
    /// [`Machine::fold_profile`] reconstructs exact per-slot dispatch
    /// counts by prefix-summing the deltas block by block — after
    /// applying a `-1` cut where each still-live frame's flow stopped.
    /// Everything else an [`OpProfile`](crate::OpProfile) reports —
    /// opcode, width, cycles — is static per slot and folded in at the
    /// same time. Empty unless the profile sink is enabled.
    entry_deltas: Vec<i64>,
    /// Count of *firing* checks per slot — the one dispatch whose cycle
    /// charge is data-dependent (the sample-switch surcharge applies only
    /// when the check fires). Rarely touched: checks fire once per sample.
    /// Empty unless the profile sink is enabled.
    fire_counts: Vec<u64>,
    /// Clock snapshots at the previous sample, for burst lengths. Only
    /// maintained when the sink is enabled.
    last_sample_cycles: u64,
    last_sample_instructions: u64,
    sample_switch: u64,
    trigger: TriggerState,
    timeslice: u64,
    max_cycles: Option<u64>,
    max_stack: usize,
    /// Cooperative-cancellation token armed on this thread at machine
    /// construction ([`crate::cancel::arm`]), polled at block entries.
    /// `None` on clean runs, where the poll is a never-taken branch.
    cancel: Option<ArmedToken>,
    /// Deterministic cancellation point: raise [`TrapKind::Cancelled`] at
    /// the charge that takes the clock past this count, exactly where a
    /// `max_cycles` fuel budget of the same value would trap.
    cancel_after: Option<u64>,
    heap: Heap,
    threads: Vec<Thread<'p>>,
    current: usize,
    // Clock and scheduler bit.
    cycles: u64,
    next_switch: u64,
    /// The clock value at which `charge_cycles` must leave its fast path:
    /// the next timer-trigger tick, the next threadswitch-bit set, or the
    /// first cycle past the fuel budget or cancellation point, whichever
    /// comes first. One compare per charge instead of four.
    next_event: u64,
    switch_bit: bool,
    // Counters.
    instructions: u64,
    checks_executed: u64,
    samples_taken: u64,
    yields_executed: u64,
    entries_executed: u64,
    backedges_executed: u64,
    thread_switches: u64,
    output: Vec<i64>,
    profile: ProfileData,
    /// Scheduling seam: picks the next thread at every reschedule point.
    /// The default control is the historical round-robin scan with
    /// recording off, which costs nothing over the old hard-coded loop.
    sched: &'s mut SchedControl,
}

impl<'p, 's, S: TraceSink, P: ProfileSink> Machine<'p, 's, S, P> {
    fn new(
        prepared: &'p PreparedModule,
        config: &VmConfig,
        sink: &'s mut S,
        psink: &'s mut P,
        sched: &'s mut SchedControl,
    ) -> Self {
        let main = prepared.module().main();
        let pf = prepared.func(main);
        let main_thread = Thread {
            frames: vec![Frame {
                func: main,
                ops: &pf.ops,
                base: pf.slot_base,
                ip: 0,
                fp: 0,
                ret_dst: None,
                caller: None,
                path_reg: None,
            }],
            stack: vec![Value::Unit; pf.num_locals],
            state: ThreadState::Runnable,
        };
        let timeslice = config.timeslice.max(1);
        let cancel_after = cancel::armed_after();
        let mut machine = Machine {
            prepared,
            sink,
            psink,
            entry_deltas: if P::ENABLED {
                let mut d = vec![0; prepared.total_slots()];
                // Main's frame enters at its arena's slot 0.
                if let Some(e) = d.get_mut(pf.slot_base as usize) {
                    *e += 1;
                }
                d
            } else {
                Vec::new()
            },
            fire_counts: if P::ENABLED {
                vec![0; prepared.total_slots()]
            } else {
                Vec::new()
            },
            last_sample_cycles: 0,
            last_sample_instructions: 0,
            sample_switch: prepared.cost().sample_switch,
            trigger: TriggerState::new(config.trigger),
            timeslice,
            max_cycles: config.limits.max_cycles,
            max_stack: config.limits.max_stack,
            cancel: cancel::armed_token(),
            cancel_after,
            heap: Heap::with_limit(config.limits.max_heap_words),
            threads: vec![main_thread],
            current: 0,
            cycles: 0,
            next_switch: timeslice,
            next_event: 0,
            switch_bit: false,
            instructions: 0,
            checks_executed: 0,
            samples_taken: 0,
            yields_executed: 0,
            entries_executed: 1, // main's method entry
            backedges_executed: 0,
            thread_switches: 0,
            output: Vec::new(),
            profile: ProfileData::new(),
            sched,
        };
        machine.next_event = machine.event_horizon();
        machine
    }

    fn into_outcome(self) -> Outcome {
        Outcome {
            output: self.output,
            cycles: self.cycles,
            instructions: self.instructions,
            profile: self.profile,
            checks_executed: self.checks_executed,
            samples_taken: self.samples_taken,
            yields_executed: self.yields_executed,
            entries_executed: self.entries_executed,
            backedges_executed: self.backedges_executed,
            thread_switches: self.thread_switches,
        }
    }

    fn current_function_name(&self) -> String {
        self.threads
            .get(self.current)
            .and_then(|t| t.frames.last())
            .map(|f| self.prepared.module().function(f.func).name().to_owned())
            .unwrap_or_else(|| "<no frame>".to_owned())
    }

    /// Runs slices until every thread is done. Thread state is examined
    /// only here, at reschedule points — never per dispatch: a slice only
    /// ends when its thread asked for a switch, finished or blocked.
    fn run_to_completion(&mut self) -> Result<(), Trap> {
        loop {
            self.run_slice()?;
            if !self.reschedule(true) {
                // No other runnable thread; stay on the current one if it
                // can still run.
                match self.threads[self.current].state {
                    ThreadState::Runnable => {}
                    ThreadState::Done if self.all_done() => return Ok(()),
                    ThreadState::Done | ThreadState::Blocked(_) => {
                        return Err(TrapKind::Deadlock.into())
                    }
                }
            }
        }
    }

    /// Folds the flow-entry deltas into the profile sink, called once
    /// after the run (only when `P::ENABLED`; the deltas are empty
    /// otherwise). This is what makes profiling cheap: the hot loop only
    /// counts control transfers, and everything per-dispatch is
    /// reconstructed here.
    ///
    /// Within a block, flow entering at slot `e` executes every op from
    /// `e` through the block's final op, so a prefix sum of the entry
    /// deltas — reset at each block boundary — yields each slot's exact
    /// dispatch count, once the places where flow *stopped short* are
    /// cut:
    ///
    /// * **Live frames.** Every frame still on a stack at the end of the
    ///   run stopped mid-block: at `ip` (the next op, not yet dispatched)
    ///   for every suspended frame, or past the attempted op for the
    ///   frame a trap unwound from. A `-1` at the stop slot cancels the
    ///   entry's contribution to the ops flow never reached.
    /// * **Blocking joins.** A join that blocks is re-dispatched on wake;
    ///   the blocking (rare) path pre-counts that extra dispatch of the
    ///   join slot alone, and the live-frame cut cancels it if the wake
    ///   never comes.
    ///
    /// Each slot's static metadata — opcode, width, and exact
    /// per-dispatch charge (`Op::cost` plus the mid-arm charges of
    /// [`OpKind::extra_cycles`]) — then turns counts into per-opcode
    /// totals. Two dynamic corrections close the gap to exactness: the
    /// per-slot firing counts (the sample-switch surcharge applies only
    /// when a check fires), and the trapping dispatch's charge shortfall
    /// (the statically attributed total minus the clock), subtracted from
    /// the slot the trap frame points at.
    ///
    /// The differential tests pin the result: per-opcode totals sum to
    /// the outcome's `cycles`/`instructions` exactly, traps included, and
    /// an unfused prepared profile equals the tree-walking engine's
    /// per-dispatch-recorded one.
    fn fold_profile(&mut self, trap: Option<&TrapKind>) {
        // A deadlock is declared between dispatches; every other trap
        // unwinds from a partially-executed op the current frame still
        // points at (a slice exits a trap with `ip` on the attempted op,
        // a failed frame push included).
        let mid_op = matches!(trap, Some(k) if !matches!(k, TrapKind::Deadlock));
        for (ti, t) in self.threads.iter().enumerate() {
            for (fi, fr) in t.frames.iter().enumerate() {
                let attempted = mid_op && ti == self.current && fi + 1 == t.frames.len();
                let cut = if attempted {
                    // The trapping op was dispatched; flow stopped just
                    // past it. If that is the block's end (or the arena's),
                    // the entry's contribution was fully realized — no cut.
                    let c = fr.ip + fr.ops[fr.ip].width as usize;
                    let starts = &self.prepared.func(fr.func).block_starts;
                    if c >= fr.ops.len() || starts.binary_search(&(c as u32)).is_ok() {
                        continue;
                    }
                    c
                } else {
                    fr.ip
                };
                if let Some(d) = self.entry_deltas.get_mut(fr.base as usize + cut) {
                    *d -= 1;
                }
            }
        }
        // Reconstruct per-slot dispatch counts: prefix-sum the deltas,
        // resetting at block boundaries.
        let mut counts = vec![0u64; self.entry_deltas.len()];
        for f in self.prepared.funcs() {
            let mut next_block = 1;
            let mut flow: i64 = 0;
            for i in 0..f.ops.len() {
                if f.block_starts.get(next_block) == Some(&(i as u32)) {
                    flow = 0;
                    next_block += 1;
                }
                let slot = f.slot_base as usize + i;
                flow += self.entry_deltas[slot];
                debug_assert!(flow >= 0, "negative reconstructed dispatch count");
                counts[slot] = flow.max(0) as u64;
            }
        }
        let trap_frame = if mid_op {
            self.threads
                .get(self.current)
                .and_then(|t| t.frames.last())
                .map(|f| (f.base as usize + f.ip, &f.ops[f.ip]))
        } else {
            None
        };
        let trap_slot = trap_frame.map(|(slot, _)| slot);
        let mut attributed: u64 = 0;
        for f in self.prepared.funcs() {
            for (i, op) in f.ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Gap) {
                    // Interior slots of a fused group carry the leader's
                    // flow count but are never dispatched.
                    continue;
                }
                let slot = f.slot_base as usize + i;
                let n = counts[slot];
                if n > 0 {
                    attributed += n * (op.cost + op.kind.extra_cycles())
                        + self.fire_counts[slot] * self.sample_switch;
                }
            }
        }
        let shortfall = attributed.saturating_sub(self.cycles);
        debug_assert!(
            mid_op || shortfall == 0,
            "completed run must be exactly attributed (over by {shortfall})"
        );
        debug_assert!(attributed >= self.cycles, "attribution fell short");
        // How much of the trapping dispatch never ran under the unfused
        // schedule. A fused group's charge is a sequence of quanta, each
        // folding one or more source instructions; the shortfall is
        // exactly the sum of the quanta the trap left un-applied, so
        // unwinding them recovers the instructions an unfused run would
        // not have dispatched. A budget trap additionally needs the
        // *failing* quantum split: its whole sum hit the clock at once,
        // but the unfused schedule would have charged per component and
        // stopped at the first one to cross the budget — components past
        // that point contribute neither instructions nor cycles
        // (`trap_phantom`). Both corrections come off the trap slot so
        // fused profiles equal unfused and naive ones exactly, traps
        // included.
        let (trap_uncounted, trap_phantom) = trap_frame.map_or((0, 0), |(_, op)| {
            let quanta = op.charge_quanta(self.prepared.cost());
            let mut remaining = shortfall;
            let mut uncounted = 0u64;
            let mut qi = quanta.len();
            while remaining > 0 {
                qi -= 1;
                let qsum: u64 = quanta[qi].iter().sum();
                debug_assert!(remaining >= qsum, "shortfall must unwind whole quanta");
                remaining = remaining.saturating_sub(qsum);
                uncounted += quanta[qi].len() as u64;
            }
            let mut phantom = 0u64;
            // The budget the trapping charge crossed: a fuel trap's own
            // limit, or the deterministic cancellation point (which
            // shares the fuel predicate in `charge_cycles`). An epoch
            // cancellation carries no budget — it fires at a block entry
            // after the transfer op charged in full, so the shortfall is
            // zero, and when a `cancel_after` happens to be armed too the
            // clock still sits at or below it, making the replay a no-op.
            let budget = match trap {
                Some(TrapKind::FuelExhausted(max)) => Some(*max),
                Some(TrapKind::Cancelled) => self.cancel_after,
                _ => None,
            };
            if let Some(max) = budget {
                // Quantum `qi - 1` is the charge that trapped (fuel traps
                // happen inside `charge_cycles`, and the machine stops on
                // the spot). Replay its components against the clock at
                // its start; the component that crosses the budget is the
                // unfused schedule's last dispatch.
                if qi > 0 && quanta[qi - 1].len() > 1 {
                    let q = &quanta[qi - 1];
                    let mut clock = self.cycles - q.iter().sum::<u64>();
                    let mut crossed = false;
                    for &c in q {
                        if crossed {
                            uncounted += 1;
                            phantom += c;
                        } else {
                            clock += c;
                            crossed = clock > max;
                        }
                    }
                }
            }
            (uncounted, phantom)
        });
        for f in self.prepared.funcs() {
            for (i, op) in f.ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Gap) {
                    continue;
                }
                let slot = f.slot_base as usize + i;
                let n = counts[slot];
                if n == 0 {
                    continue;
                }
                let mut cycles = n * (op.cost + op.kind.extra_cycles())
                    + self.fire_counts[slot] * self.sample_switch;
                let mut instructions = n * u64::from(op.width);
                if trap_slot == Some(slot) {
                    cycles -= shortfall + trap_phantom;
                    instructions -= trap_uncounted;
                }
                self.psink
                    .record_dispatches(op.kind.opcode(), n, instructions, cycles);
            }
        }
    }

    fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Done)
    }

    /// Rotates to the next runnable thread per the scheduling policy
    /// (unblocking joiners whose target finished). Returns `false` if no
    /// *other* thread could be scheduled (`require_other = true`) or no
    /// thread at all is runnable.
    ///
    /// Joiners whose target has finished are woken *before* the policy
    /// picks, so every policy sees the same candidate set. For the default
    /// round-robin policy this is indistinguishable from the historical
    /// wake-during-scan: the first runnable thread in scan order is
    /// unchanged, and a thread woken beyond it stays runnable either way
    /// until the scan next reaches it. (The current thread can never be
    /// blocked on a finished target here: a `Join` only blocks on a
    /// not-yet-done thread and nothing else runs before the reschedule.)
    fn reschedule(&mut self, require_other: bool) -> bool {
        let n = self.threads.len();
        for i in 0..n {
            if let ThreadState::Blocked(target) = self.threads[i].state {
                if self.threads[target].state == ThreadState::Done {
                    self.threads[i].state = ThreadState::Runnable;
                }
            }
        }
        let threads = &self.threads;
        let sched = &mut *self.sched;
        match sched.pick(self.current, require_other, n, &|idx| {
            threads[idx].state == ThreadState::Runnable
        }) {
            Some(idx) => {
                if idx != self.current {
                    self.thread_switches += 1;
                }
                self.current = idx;
                true
            }
            None => false,
        }
    }

    /// The first clock value at which [`Machine::charge_cycles`] has work
    /// beyond the addition: the next timer-trigger tick, the next
    /// threadswitch-bit set, or the first cycle past the fuel budget or
    /// the cancellation point.
    fn event_horizon(&self) -> u64 {
        let past = |limit: Option<u64>| limit.map_or(u64::MAX, |l| l.saturating_add(1));
        self.next_switch
            .min(self.trigger.next_tick())
            .min(past(self.max_cycles))
            .min(past(self.cancel_after))
    }

    /// Advances the clock by `c` cycles, then — only once the clock
    /// reaches [`Machine::next_event`] — runs the timer tick, the
    /// threadswitch catch-up and the fuel and cancellation checks. Called once per dispatch with the op's
    /// up-front cost, and mid-arm by the fused superinstructions whose
    /// later components charge after the earlier ones executed,
    /// reproducing the unfused charge/execute interleaving exactly. A
    /// fused group has no observation point between its components —
    /// `Check` and `Yield` never fuse — so counting the group's
    /// instructions once per dispatch is indistinguishable from per-op
    /// counting.
    #[inline(always)]
    fn charge_cycles(&mut self, c: u64) -> Result<(), Trap> {
        self.cycles += c;
        if self.cycles >= self.next_event {
            return self.clock_event();
        }
        Ok(())
    }

    /// The rare half of [`Machine::charge_cycles`].
    #[cold]
    #[inline(never)]
    fn clock_event(&mut self) -> Result<(), Trap> {
        // `on_tick` acts only once the clock reaches `next_tick`, which the
        // horizon includes, so ticking here alone loses no timer firing.
        self.trigger.on_tick(self.cycles);
        if self.cycles >= self.next_switch {
            self.switch_bit = true;
            // Catch up in one division rather than one loop iteration per
            // missed timeslice: a long simulated gap must not spin.
            let behind = self.cycles - self.next_switch;
            self.next_switch = self
                .next_switch
                .saturating_add((behind / self.timeslice + 1).saturating_mul(self.timeslice));
        }
        if let Some(max) = self.max_cycles {
            if self.cycles > max {
                return Err(TrapKind::FuelExhausted(max).into());
            }
        }
        // The deterministic cancellation hook shares the fuel predicate
        // (checked second, so a tied budget wins) — cancellation at cycle
        // K stops at exactly the dispatch a `max_cycles = K` trap would.
        if let Some(k) = self.cancel_after {
            if self.cycles > k {
                return Err(TrapKind::Cancelled.into());
            }
        }
        self.next_event = self.event_horizon();
        Ok(())
    }

    /// Records a burst boundary at a firing check. Only reachable from
    /// `if S::ENABLED` guards: the whole function compiles away when the
    /// sink is [`NoTrace`].
    #[cold]
    fn record_sample(&mut self, thread: usize, func: FuncId, check_ip: u32, backedge: bool) {
        self.sink.record(BurstRecord {
            thread: thread as u32,
            func: func.index() as u32,
            check_ip,
            backedge,
            len_instructions: self.instructions - self.last_sample_instructions,
            len_cycles: self.cycles - self.last_sample_cycles,
        });
        self.last_sample_instructions = self.instructions;
        self.last_sample_cycles = self.cycles;
    }

    /// Runs the current thread until a reschedule point: a `Yield` that
    /// finds the threadswitch bit set, a blocking `Join`, the return from
    /// the thread's bottom frame, or a trap.
    ///
    /// The running frame's state lives in local variables — `func`,
    /// `ops`, `ip`, the slot `base`, the frame pointer `fp` and the
    /// `locals` window into the thread's value stack — and the thread's
    /// frame and value stacks are detached from `threads` for the slice,
    /// so every dispatch is `ops[ip]` plus a `match`, with no thread or
    /// frame lookup. The registers are written back to the frame record
    /// only at the write-back points (DESIGN.md decision 17): a call
    /// stores the caller's resume `ip` before pushing the callee, and
    /// every exit from the slice — switch request or trap — stores the
    /// top frame's `ip`. A trap exits with `ip` still on the attempted op
    /// (arms advance `ip` only after their last fallible step), which is
    /// the state [`Machine::fold_profile`]'s attempted-frame cut and
    /// [`Machine::current_function_name`] read.
    fn run_slice(&mut self) -> Result<(), Trap> {
        let cur = self.current;
        let prepared: &'p PreparedModule = self.prepared;
        let mut frames = std::mem::take(&mut self.threads[cur].frames);
        let mut stack = std::mem::take(&mut self.threads[cur].stack);
        let top = frames.last().expect("runnable thread has a frame");
        let mut func = top.func;
        let mut ops = top.ops;
        let mut base = top.base as usize;
        let mut ip = top.ip;
        let mut fp = top.fp;
        let mut locals: &mut [Value] = &mut stack[fp..];
        let result: Result<(), Trap> = 'run: loop {
            /// `?` for the slice: leaves the loop with the trap, `ip` on
            /// the attempted op.
            macro_rules! tri {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => break 'run Err(Trap::from(e)),
                    }
                };
            }
            /// Lands the running frame at arena index `$target`, counting
            /// the flow entry when the profile sink is enabled. Every
            /// control-transfer arm funnels through here; straight-line
            /// advancement does not, which is what keeps profiling off
            /// the per-dispatch path.
            ///
            /// This is also the cancellation poll: block entry is the one
            /// point every divergent program must pass infinitely often
            /// (straight-line flow is finite and recursion is bounded by
            /// `max_stack`), so polling here — and nowhere else —
            /// guarantees a cancelled run traps at its next control
            /// transfer. The poll comes first: a cancelled transfer
            /// records no flow entry and leaves `ip` on the fully
            /// executed, fully charged transfer op, which is exactly the
            /// state `fold_profile`'s attempted-frame cut accounts for.
            macro_rules! enter {
                ($target:expr) => {{
                    let target = $target as usize;
                    if let Some(t) = &self.cancel {
                        if t.fired() {
                            break 'run Err(TrapKind::Cancelled.into());
                        }
                    }
                    if P::ENABLED {
                        if let Some(d) = self.entry_deltas.get_mut(base + target) {
                            *d += 1;
                        }
                    }
                    ip = target;
                }};
            }
            /// [`enter!`] plus the Property 1 backedge accounting for an
            /// edge classified as a backedge at prepare time.
            macro_rules! goto {
                ($target:expr, $backedge:expr) => {{
                    if $backedge {
                        self.backedges_executed += 1;
                    }
                    enter!($target);
                }};
            }
            /// Pushes a frame for `$callee` (receiver first, then the
            /// argument locals, copied straight from the caller's window
            /// into the callee's on the same value stack) and switches
            /// the registers to it. The caller's resume index `$resume`
            /// is written back first; on a stack overflow the trap exit
            /// overwrites it with the attempted call's `ip`.
            macro_rules! call {
                ($callee:expr, $recv:expr, $args:expr, $dst:expr, $site:expr, $resume:expr) => {{
                    let callee: FuncId = $callee;
                    let recv: Option<Value> = $recv;
                    if frames.len() >= self.max_stack {
                        break 'run Err(TrapKind::StackOverflow(self.max_stack).into());
                    }
                    let pf: &'p PreparedFunction = prepared.func(callee);
                    debug_assert_eq!(pf.arity, $args.len() + usize::from(recv.is_some()));
                    if let Some(top) = frames.last_mut() {
                        top.ip = $resume;
                    }
                    let new_fp = stack.len();
                    stack.resize(new_fp + pf.num_locals, Value::Unit);
                    let mut k = new_fp;
                    if let Some(r) = recv {
                        stack[k] = r;
                        k += 1;
                    }
                    for a in $args.iter() {
                        stack[k] = stack[fp + a.index()];
                        k += 1;
                    }
                    if P::ENABLED {
                        // The new frame enters the callee's arena at slot 0.
                        if let Some(d) = self.entry_deltas.get_mut(pf.slot_base as usize) {
                            *d += 1;
                        }
                    }
                    frames.push(Frame {
                        func: callee,
                        ops: &pf.ops,
                        base: pf.slot_base,
                        ip: 0,
                        fp: new_fp,
                        ret_dst: $dst,
                        caller: Some((func, $site)),
                        path_reg: None,
                    });
                    self.entries_executed += 1;
                    func = callee;
                    ops = &pf.ops;
                    base = pf.slot_base as usize;
                    ip = 0;
                    fp = new_fp;
                    locals = &mut stack[fp..];
                }};
            }

            let op = &ops[ip];
            let w = op.width as usize;
            self.instructions += u64::from(op.width);
            tri!(self.charge_cycles(op.cost));
            match &op.kind {
                OpKind::Const { dst, value } => {
                    locals[dst.index()] = *value;
                    ip += 1;
                }
                OpKind::Move { dst, src } => {
                    locals[dst.index()] = locals[src.index()];
                    ip += 1;
                }
                OpKind::Un { op, dst, src } => {
                    locals[dst.index()] = tri!(Value::unary(*op, locals[src.index()]));
                    ip += 1;
                }
                OpKind::Bin { op, dst, lhs, rhs } => {
                    locals[dst.index()] =
                        tri!(Value::binary(*op, locals[lhs.index()], locals[rhs.index()]));
                    ip += 1;
                }
                OpKind::New {
                    dst,
                    class,
                    num_fields,
                } => {
                    locals[dst.index()] = tri!(self.heap.alloc_object(*class, *num_fields));
                    ip += 1;
                }
                OpKind::GetField { dst, obj, field } => {
                    let object = tri!(self.heap.object(locals[obj.index()]));
                    let Some(offset) = prepared.field_offset(object.class, *field) else {
                        let name = prepared.module().field_name(*field).to_owned();
                        break 'run Err(TrapKind::NoSuchField(name).into());
                    };
                    locals[dst.index()] = object.fields[offset as usize];
                    ip += 1;
                }
                OpKind::SetField { obj, field, src } => {
                    let o = locals[obj.index()];
                    let class = tri!(self.heap.object(o)).class;
                    let Some(offset) = prepared.field_offset(class, *field) else {
                        let name = prepared.module().field_name(*field).to_owned();
                        break 'run Err(TrapKind::NoSuchField(name).into());
                    };
                    tri!(self.heap.object_mut(o)).fields[offset as usize] = locals[src.index()];
                    ip += 1;
                }
                OpKind::GetFieldStatic { dst, obj, offset } => {
                    let object = tri!(self.heap.object(locals[obj.index()]));
                    locals[dst.index()] = object.fields[*offset as usize];
                    ip += 1;
                }
                OpKind::SetFieldStatic { obj, offset, src } => {
                    let v = locals[src.index()];
                    tri!(self.heap.object_mut(locals[obj.index()])).fields[*offset as usize] = v;
                    ip += 1;
                }
                OpKind::NewArray { dst, len } => {
                    let n = tri!(locals[len.index()].as_i64());
                    locals[dst.index()] = tri!(self.heap.alloc_array(n));
                    ip += 1;
                }
                OpKind::ArrayGet { dst, arr, idx } => {
                    let i = tri!(locals[idx.index()].as_i64());
                    let v = tri!(self.heap.array_get(locals[arr.index()], i));
                    locals[dst.index()] = Value::I64(v);
                    ip += 1;
                }
                OpKind::ArraySet { arr, idx, src } => {
                    let i = tri!(locals[idx.index()].as_i64());
                    let v = tri!(locals[src.index()].as_i64());
                    tri!(self.heap.array_set(locals[arr.index()], i, v));
                    ip += 1;
                }
                OpKind::ArrayLen { dst, arr } => {
                    let n = tri!(self.heap.array_len(locals[arr.index()]));
                    locals[dst.index()] = Value::I64(n);
                    ip += 1;
                }
                OpKind::Call(g) => {
                    call!(g.callee, None, g.args, g.dst, g.site, ip + 1)
                }
                OpKind::CallMethod(g) => {
                    let o = locals[g.obj.index()];
                    let class = tri!(self.heap.object(o)).class;
                    let Some(callee) = prepared.method_impl(class, g.method) else {
                        let name = prepared.module().method_name(g.method).to_owned();
                        break 'run Err(TrapKind::NoSuchMethod(name).into());
                    };
                    let expected = prepared.func(callee).arity;
                    if expected != g.args.len() + 1 {
                        break 'run Err(TrapKind::ArityMismatch {
                            method: prepared.module().function(callee).name().to_owned(),
                            given: g.args.len() + 1,
                            expected,
                        }
                        .into());
                    }
                    call!(callee, Some(o), g.args, g.dst, g.site, ip + 1);
                }
                OpKind::CallMethodStatic(g) => {
                    let o = locals[g.obj.index()];
                    // The method target and arity were verified at prepare
                    // time; the receiver must still be a live object so
                    // null and type traps match the dynamic path.
                    tri!(self.heap.object(o));
                    call!(g.callee, Some(o), g.args, g.dst, g.site, ip + 1);
                }
                OpKind::Print { src } => {
                    let n = match locals[src.index()] {
                        Value::I64(n) => n,
                        Value::Bool(b) => i64::from(b),
                        other => {
                            break 'run Err(TrapKind::TypeError {
                                expected: "printable value",
                                found: other.kind_name(),
                            }
                            .into())
                        }
                    };
                    self.output.push(n);
                    ip += 1;
                }
                OpKind::Spawn(g) => {
                    // The new thread's record joins `threads` before its
                    // first frame is checked against the depth limit,
                    // exactly as in the naive engine.
                    let tid = self.threads.len();
                    self.threads.push(Thread {
                        frames: Vec::new(),
                        stack: Vec::new(),
                        state: ThreadState::Runnable,
                    });
                    if self.max_stack == 0 {
                        break 'run Err(TrapKind::StackOverflow(0).into());
                    }
                    let pf = prepared.func(g.callee);
                    debug_assert_eq!(pf.arity, g.args.len());
                    let mut st = vec![Value::Unit; pf.num_locals];
                    for (slot, a) in st.iter_mut().zip(g.args.iter()) {
                        *slot = locals[a.index()];
                    }
                    if P::ENABLED {
                        if let Some(d) = self.entry_deltas.get_mut(pf.slot_base as usize) {
                            *d += 1;
                        }
                    }
                    let t = &mut self.threads[tid];
                    t.stack = st;
                    t.frames.push(Frame {
                        func: g.callee,
                        ops: &pf.ops,
                        base: pf.slot_base,
                        ip: 0,
                        fp: 0,
                        ret_dst: None,
                        caller: None,
                        path_reg: None,
                    });
                    self.entries_executed += 1;
                    locals[g.dst.index()] = Value::Thread(tid as u32);
                    ip += 1;
                }
                OpKind::Join { thread } => {
                    let t = match locals[thread.index()] {
                        Value::Thread(t) => t as usize,
                        other => {
                            break 'run Err(TrapKind::TypeError {
                                expected: "thread handle",
                                found: other.kind_name(),
                            }
                            .into())
                        }
                    };
                    if self.threads[t].state != ThreadState::Done {
                        self.threads[cur].state = ThreadState::Blocked(t);
                        if P::ENABLED {
                            // The join re-dispatches when unblocked: count
                            // the extra dispatch now, confined to this slot
                            // (`-1` right after keeps the rest of the block
                            // at one execution per entry). If the wake
                            // never comes, the end-of-run cut at this
                            // frame's `ip` cancels the prediction.
                            let slot = base + ip;
                            if let Some(d) = self.entry_deltas.get_mut(slot) {
                                *d += 1;
                            }
                            if let Some(d) = self.entry_deltas.get_mut(slot + 1) {
                                *d -= 1;
                            }
                        }
                        // Do not advance: the join re-executes when
                        // unblocked.
                        break 'run Ok(());
                    }
                    ip += 1;
                }
                OpKind::Yield => {
                    self.yields_executed += 1;
                    ip += 1;
                    if self.switch_bit {
                        self.switch_bit = false;
                        break 'run Ok(());
                    }
                }
                OpKind::Busy => {
                    // The cost was already charged; nothing else happens.
                    ip += 1;
                }
                OpKind::CallEdge => {
                    // Examine the call stack (paper §4.2): the caller and
                    // the call site were stashed in the frame at call time.
                    if let Some((caller, site)) = frames.last().and_then(|f| f.caller) {
                        self.profile.record_call_edge(caller, site, func);
                    }
                    ip += 1;
                }
                OpKind::FieldAccessProf { obj, field, write } => {
                    let class = tri!(self.heap.object(locals[obj.index()])).class;
                    self.profile.record_field_access(class, *field, *write);
                    ip += 1;
                }
                OpKind::BlockCount { block } => {
                    self.profile.record_block(func, *block);
                    ip += 1;
                }
                OpKind::EdgeCount { from, to } => {
                    self.profile.record_edge(func, *from, *to);
                    ip += 1;
                }
                OpKind::PathStart { value } => {
                    if let Some(f) = frames.last_mut() {
                        f.path_reg = Some(*value);
                    }
                    ip += 1;
                }
                OpKind::PathIncr { delta } => {
                    // `delta` may be the pre-folded sum of a fused run; the
                    // width then advances past the whole run's slots.
                    if let Some(r) = frames.last_mut().and_then(|f| f.path_reg.as_mut()) {
                        *r += *delta;
                    }
                    ip += w;
                }
                OpKind::PathEnd { site } => {
                    if let Some(id) = frames.last_mut().and_then(|f| f.path_reg.take()) {
                        self.profile.record_path(func, *site, id);
                    }
                    ip += 1;
                }
                OpKind::ValueProfile { local, site } => {
                    let v = match locals[local.index()] {
                        Value::I64(n) => n,
                        Value::Bool(b) => i64::from(b),
                        // Reference values are profiled by identity.
                        Value::Obj(h) | Value::Arr(h) | Value::Thread(h) => i64::from(h),
                        Value::Null => -1,
                        Value::Unit => 0,
                    };
                    self.profile.record_value(func, *site, v);
                    ip += 1;
                }
                // Fused superinstructions: each arm replays its group's
                // original effects in order under one dispatch. The group
                // cost was charged up front (sound because only the final
                // effectful component can trap); the arms with later
                // trap-capable components charge their `extra`/`branch`
                // halves mid-arm to keep fuel traps on the unfused
                // schedule.
                OpKind::BinImm(g) => {
                    locals[g.tmp.index()] = g.imm;
                    locals[g.dst.index()] = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    ip += w;
                }
                OpKind::ArrayGetImm { dst, arr, tmp, idx } => {
                    locals[tmp.index()] = Value::I64(*idx);
                    let v = tri!(self.heap.array_get(locals[arr.index()], *idx));
                    locals[dst.index()] = Value::I64(v);
                    ip += w;
                }
                OpKind::ArraySetImm { arr, tmp, idx, src } => {
                    locals[tmp.index()] = Value::I64(*idx);
                    let v = tri!(locals[src.index()].as_i64());
                    tri!(self.heap.array_set(locals[arr.index()], *idx, v));
                    ip += w;
                }
                OpKind::ArraySetImm2(g) => {
                    locals[g.tmp.index()] = Value::I64(g.idx);
                    locals[g.src_tmp.index()] = g.src;
                    let v = tri!(g.src.as_i64());
                    tri!(self.heap.array_set(locals[g.arr.index()], g.idx, v));
                    ip += w;
                }
                OpKind::GetFieldBin(g) => {
                    let v = tri!(self.heap.object(locals[g.obj.index()])).fields[g.offset as usize];
                    locals[g.tmp.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    locals[g.dst.index()] = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    ip += w;
                }
                OpKind::BinSetField(g) => {
                    let v = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    locals[g.dst.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    tri!(self.heap.object_mut(locals[g.obj.index()])).fields[g.offset as usize] = v;
                    ip += w;
                }
                OpKind::BinImmSetField(g) => {
                    locals[g.tmp.index()] = g.imm;
                    let v = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    locals[g.dst.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    tri!(self.heap.object_mut(locals[g.obj.index()])).fields[g.offset as usize] = v;
                    ip += w;
                }
                OpKind::GetFieldBinImm(g) => {
                    let v = tri!(self.heap.object(locals[g.obj.index()])).fields[g.offset as usize];
                    locals[g.tmp.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    locals[g.ctmp.index()] = g.imm;
                    locals[g.dst.index()] = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    ip += w;
                }
                OpKind::GetFieldBinImmSetField(g) => {
                    let v = tri!(self.heap.object(locals[g.obj.index()])).fields[g.offset as usize];
                    locals[g.tmp.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    locals[g.ctmp.index()] = g.imm;
                    let v = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    locals[g.dst.index()] = v;
                    tri!(self.charge_cycles(g.extra2));
                    tri!(self.heap.object_mut(locals[g.sobj.index()])).fields[g.soffset as usize] =
                        v;
                    ip += w;
                }
                OpKind::ConstSetField(g) => {
                    locals[g.tmp.index()] = g.imm;
                    tri!(self.heap.object_mut(locals[g.obj.index()])).fields[g.offset as usize] =
                        g.imm;
                    ip += w;
                }
                OpKind::GetFieldBrCmp(g) => {
                    let v = tri!(self.heap.object(locals[g.obj.index()])).fields[g.offset as usize];
                    locals[g.tmp.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    let v = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    locals[g.dst.index()] = v;
                    tri!(self.charge_cycles(g.branch));
                    // A successful comparison always yields a bool, so this
                    // is the `as_bool` of the unfused g.branch, trap-free.
                    enter!(if v == Value::Bool(true) { g.t } else { g.f });
                }
                OpKind::GetFieldArrayGet(g) => {
                    let v = tri!(self.heap.object(locals[g.obj.index()])).fields[g.offset as usize];
                    locals[g.tmp.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    let i = tri!(v.as_i64());
                    let v = tri!(self.heap.array_get(locals[g.arr.index()], i));
                    locals[g.dst.index()] = Value::I64(v);
                    ip += w;
                }
                OpKind::GetFieldArraySet(g) => {
                    let v = tri!(self.heap.object(locals[g.obj.index()])).fields[g.offset as usize];
                    locals[g.tmp.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    let i = tri!(v.as_i64());
                    let v = tri!(locals[g.src.index()].as_i64());
                    tri!(self.heap.array_set(locals[g.arr.index()], i, v));
                    ip += w;
                }
                OpKind::MoveRun { moves } => {
                    for (dst, src) in moves.iter() {
                        locals[dst.index()] = locals[src.index()];
                    }
                    ip += w;
                }
                OpKind::BrCmp(g) => {
                    let v = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    locals[g.dst.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    enter!(if v == Value::Bool(true) { g.t } else { g.f });
                }
                OpKind::BrCmpImm(g) => {
                    locals[g.tmp.index()] = g.imm;
                    let v = tri!(Value::binary(
                        g.op,
                        locals[g.lhs.index()],
                        locals[g.rhs.index()]
                    ));
                    locals[g.dst.index()] = v;
                    tri!(self.charge_cycles(g.extra));
                    enter!(if v == Value::Bool(true) { g.t } else { g.f });
                }
                OpKind::JumpInstr { target, effects } => {
                    enter!(*target);
                    for e in effects.iter() {
                        match e {
                            InstrEffect::CallEdge => {
                                if let Some((caller, site)) = frames.last().and_then(|f| f.caller) {
                                    self.profile.record_call_edge(caller, site, func);
                                }
                            }
                            InstrEffect::BlockCount(b) => self.profile.record_block(func, *b),
                            InstrEffect::EdgeCount(from, to) => {
                                self.profile.record_edge(func, *from, *to);
                            }
                        }
                    }
                }
                OpKind::Guided { steps, .. } => {
                    // The generalized profile-guided group: charge and
                    // execute per component (the up-front charge covered
                    // `steps[0]`), so budget traps, timer ticks and
                    // threadswitch catch-ups land at exactly the unfused
                    // positions for any component mix. Only the final step
                    // may be a call; it resumes past the whole group.
                    let (last, body) = steps.split_last().expect("guided group is non-empty");
                    debug_assert!(!body.is_empty(), "guided groups have two or three steps");
                    for (k, (cost, step)) in body.iter().enumerate() {
                        if k > 0 {
                            tri!(self.charge_cycles(*cost));
                        }
                        tri!(self.exec_component(locals, step));
                    }
                    tri!(self.charge_cycles(last.0));
                    match &last.1 {
                        OpKind::Call(g) => {
                            call!(g.callee, None, g.args, g.dst, g.site, ip + w)
                        }
                        OpKind::CallMethodStatic(g) => {
                            let o = locals[g.obj.index()];
                            // Target and arity verified at prepare time;
                            // the receiver still null/type-checks.
                            tri!(self.heap.object(o));
                            call!(g.callee, Some(o), g.args, g.dst, g.site, ip + w);
                        }
                        step => {
                            tri!(self.exec_component(locals, step));
                            ip += w;
                        }
                    }
                }
                OpKind::Gap => unreachable!("fusion gap slots are never executed"),
                // Terminators (inlined into the arena as the block's last op).
                OpKind::Jump { target, backedge } => goto!(*target, *backedge),
                OpKind::Br {
                    cond,
                    t,
                    f,
                    t_backedge,
                    f_backedge,
                } => {
                    if tri!(locals[cond.index()].as_bool()) {
                        goto!(*t, *t_backedge);
                    } else {
                        goto!(*f, *f_backedge);
                    }
                }
                OpKind::Ret { val } => {
                    let value = val.map_or(Value::Unit, |l| locals[l.index()]);
                    let frame = frames.pop().expect("ret pops the running frame");
                    stack.truncate(frame.fp);
                    let Some(caller) = frames.last() else {
                        // The thread is done: its stacks go with it.
                        self.threads[cur].state = ThreadState::Done;
                        frames = Vec::new();
                        stack = Vec::new();
                        break 'run Ok(());
                    };
                    func = caller.func;
                    ops = caller.ops;
                    base = caller.base as usize;
                    ip = caller.ip;
                    fp = caller.fp;
                    locals = &mut stack[fp..];
                    if let Some(dst) = frame.ret_dst {
                        locals[dst.index()] = value;
                    }
                }
                OpKind::Check {
                    sample,
                    cont,
                    sample_backedge,
                    cont_backedge,
                } => {
                    self.checks_executed += 1;
                    if self.trigger.on_check(cur) {
                        self.samples_taken += 1;
                        if S::ENABLED {
                            let backedge = *sample_backedge || *cont_backedge;
                            self.record_sample(cur, func, ip as u32, backedge);
                        }
                        if P::ENABLED {
                            self.psink.record_sample(self.cycles, self.checks_executed);
                            // The surcharge below is the one data-dependent
                            // cycle charge; count the firing so
                            // `fold_profile` can attribute it to this check.
                            if let Some(n) = self.fire_counts.get_mut(base + ip) {
                                *n += 1;
                            }
                        }
                        // Jumping into cold duplicated code costs extra
                        // (instruction-cache effects, §4.4 footnote 6).
                        self.cycles += self.sample_switch;
                        goto!(*sample, *sample_backedge);
                    } else {
                        goto!(*cont, *cont_backedge);
                    }
                }
            }
        };
        // Slice exit: write the registers back and reattach the stacks.
        if let Some(top) = frames.last_mut() {
            top.ip = ip;
        }
        let t = &mut self.threads[cur];
        t.frames = frames;
        t.stack = stack;
        result
    }

    /// Executes one non-call component of a [`OpKind::Guided`] group (the
    /// guided-eligible plain ops) on the running frame's `locals`.
    #[inline]
    fn exec_component(&mut self, locals: &mut [Value], kind: &OpKind) -> Result<(), TrapKind> {
        match kind {
            OpKind::Const { dst, value } => locals[dst.index()] = *value,
            OpKind::Move { dst, src } => locals[dst.index()] = locals[src.index()],
            OpKind::Un { op, dst, src } => {
                locals[dst.index()] = Value::unary(*op, locals[src.index()])?;
            }
            OpKind::Bin { op, dst, lhs, rhs } => {
                locals[dst.index()] = Value::binary(*op, locals[lhs.index()], locals[rhs.index()])?;
            }
            OpKind::GetFieldStatic { dst, obj, offset } => {
                locals[dst.index()] =
                    self.heap.object(locals[obj.index()])?.fields[*offset as usize];
            }
            OpKind::SetFieldStatic { obj, offset, src } => {
                let v = locals[src.index()];
                self.heap.object_mut(locals[obj.index()])?.fields[*offset as usize] = v;
            }
            OpKind::ArrayGet { dst, arr, idx } => {
                let i = locals[idx.index()].as_i64()?;
                locals[dst.index()] = Value::I64(self.heap.array_get(locals[arr.index()], i)?);
            }
            OpKind::ArraySet { arr, idx, src } => {
                let i = locals[idx.index()].as_i64()?;
                let v = locals[src.index()].as_i64()?;
                self.heap.array_set(locals[arr.index()], i, v)?;
            }
            OpKind::ArrayLen { dst, arr } => {
                locals[dst.index()] = Value::I64(self.heap.array_len(locals[arr.index()])?);
            }
            other => unreachable!("non-guided-eligible component {other:?} in guided group"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::run_naive;
    use crate::prepared::thread_preparations;

    fn compile(src: &str) -> Module {
        isf_frontend::compile(src).expect("test program compiles")
    }

    fn run_src(src: &str) -> Outcome {
        run(&compile(src), &VmConfig::default()).expect("test program runs")
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let o = run_src(
            "fn main() { var s = 0; var i = 1; while (i <= 10) { s = s + i; i = i + 1; } print(s); }",
        );
        assert_eq!(o.output, vec![55]);
    }

    #[test]
    fn function_calls_and_recursion() {
        let o = run_src(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn main() { print(fib(15)); }",
        );
        assert_eq!(o.output, vec![610]);
    }

    #[test]
    fn objects_methods_and_dispatch() {
        let o = run_src(
            "class Shape { field tag; method area() { return 0; } }
             class Square : Shape { field side; method area() { return self.side * self.side; } }
             fn main() {
                 var s = new Square; s.side = 9;
                 var base = new Shape;
                 print(s.area()); print(base.area());
             }",
        );
        assert_eq!(o.output, vec![81, 0]);
    }

    #[test]
    fn arrays() {
        let o = run_src(
            "fn main() {
                 var a = array(5);
                 var i = 0;
                 while (i < len(a)) { a[i] = i * i; i = i + 1; }
                 print(a[4]);
             }",
        );
        assert_eq!(o.output, vec![16]);
    }

    #[test]
    fn short_circuit_evaluation_skips_rhs() {
        // Division by zero on the rhs must not execute when lhs decides.
        let o = run_src(
            "fn main() { var x = 0; if (false && 1 / x == 1) { print(1); } else { print(2); } }",
        );
        assert_eq!(o.output, vec![2]);
    }

    #[test]
    fn traps_surface_as_errors() {
        let m = compile("fn main() { var x = 0; print(1 / x); }");
        let e = run(&m, &VmConfig::default()).unwrap_err();
        assert_eq!(e.kind, TrapKind::DivisionByZero);
        assert_eq!(e.function, "main");

        let m = compile("fn main() { var a = array(2); print(a[5]); }");
        let e = run(&m, &VmConfig::default()).unwrap_err();
        assert!(matches!(e.kind, TrapKind::IndexOutOfBounds { .. }));

        let m = compile("class A { field x; } fn main() { var a = null; print(a.x); }");
        let e = run(&m, &VmConfig::default()).unwrap_err();
        assert_eq!(e.kind, TrapKind::NullDereference);
    }

    #[test]
    fn cycle_budget_stops_infinite_loops() {
        let m = compile("fn main() { while (true) { } }");
        let cfg = VmConfig {
            limits: ExecLimits::cycles(10_000),
            ..VmConfig::default()
        };
        let e = run(&m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::FuelExhausted(10_000));
    }

    #[test]
    fn heap_budget_stops_allocation_storms() {
        let m = compile("fn main() { while (true) { var a = array(100); a[0] = 1; } }");
        let cfg = VmConfig {
            limits: ExecLimits {
                max_heap_words: Some(1_000),
                ..ExecLimits::default()
            },
            ..VmConfig::default()
        };
        let e = run(&m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::HeapExhausted { limit_words: 1_000 });
        assert_eq!(e.function, "main");
    }

    #[test]
    fn stack_overflow_detected() {
        let m = compile("fn f(n) { return f(n + 1); } fn main() { print(f(0)); }");
        let cfg = VmConfig {
            limits: ExecLimits {
                max_stack: 64,
                ..ExecLimits::default()
            },
            ..VmConfig::default()
        };
        let e = run(&m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::StackOverflow(64));
    }

    #[test]
    fn threads_spawn_join_and_interleave() {
        let o = run_src(
            "class Cell { field v; }
             fn work(c, n) { var i = 0; while (i < n) { c.v = c.v + 1; i = i + 1; } }
             fn main() {
                 var c = new Cell; c.v = 0;
                 var t1 = spawn work(c, 2000);
                 var t2 = spawn work(c, 3000);
                 join(t1); join(t2);
                 print(c.v);
             }",
        );
        assert_eq!(o.output, vec![5000]);
        assert!(o.thread_switches > 0, "timeslice must force interleaving");
    }

    #[test]
    fn deadlock_detected_for_self_join() {
        // main spawns a thread that joins a never-finishing partner set,
        // simplest case: joining a thread that joins us is impossible to
        // express; join on a thread that never terminates suffices.
        let m = compile(
            "fn forever() { while (true) { } }
             fn main() { var t = spawn forever(); join(t); }",
        );
        // The spinning thread yields on its backedge, main stays blocked;
        // bound the run so the test terminates: budget trap, not deadlock.
        let cfg = VmConfig {
            limits: ExecLimits::cycles(500_000),
            ..VmConfig::default()
        };
        let e = run(&m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::FuelExhausted(500_000));
    }

    #[test]
    fn counters_track_entries_backedges_yields() {
        let o = run_src(
            "fn tick() { }
             fn main() { var i = 0; while (i < 10) { tick(); i = i + 1; } }",
        );
        // Entries: main + 10 calls to tick.
        assert_eq!(o.entries_executed, 11);
        // Backedges: 10 iterations of the while loop.
        assert_eq!(o.backedges_executed, 10);
        // Yieldpoints: 11 method entries + 10 backedges.
        assert_eq!(o.yields_executed, 21);
        assert_eq!(o.checks_executed, 0);
        assert!(o.cycles > 0);
        assert!(o.instructions > 0);
    }

    #[test]
    fn determinism_identical_runs() {
        let src = "fn mix(a, b) { return a * 31 + b; }
             fn main() { var h = 7; var i = 0; while (i < 500) { h = mix(h, i); i = i + 1; } print(h); }";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.output, b.output);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn busy_advances_the_clock() {
        let quiet = run_src("fn main() { }");
        let busy = run_src("fn main() { busy(100000); }");
        assert!(busy.cycles >= quiet.cycles + 100_000);
    }

    #[test]
    fn cancel_after_traps_exactly_like_an_equal_fuel_budget() {
        let src = "fn mix(a, b) { return a * 31 + b; }
             fn main() { var h = 7; var i = 0; while (i < 500) { h = mix(h, i); i = i + 1; } print(h); }";
        let m = compile(src);
        for k in [100u64, 1_000, 10_000] {
            let fuel_cfg = VmConfig {
                limits: ExecLimits::cycles(k),
                ..VmConfig::default()
            };
            let fuel = run(&m, &fuel_cfg);
            let naive_fuel = run_naive(&m, &fuel_cfg);
            let cancelled = {
                let _scope = crate::cancel::arm(None, Some(k));
                run(&m, &VmConfig::default())
            };
            let naive_cancelled = {
                let _scope = crate::cancel::arm(None, Some(k));
                run_naive(&m, &VmConfig::default())
            };
            for (got, want) in [(cancelled, fuel), (naive_cancelled, naive_fuel)] {
                match (got, want) {
                    (Err(c), Err(f)) => {
                        assert_eq!(c.kind, TrapKind::Cancelled);
                        assert_eq!(f.kind, TrapKind::FuelExhausted(k));
                        assert_eq!(c.function, f.function, "stop point diverged at k={k}");
                    }
                    (Ok(c), Ok(f)) => assert_eq!(c, f),
                    (got, want) => panic!("divergence at k={k}: {got:?} vs {want:?}"),
                }
            }
        }
    }

    #[test]
    fn tied_fuel_budget_wins_over_cancel_after() {
        let m = compile("fn main() { while (true) { } }");
        let cfg = VmConfig {
            limits: ExecLimits::cycles(5_000),
            ..VmConfig::default()
        };
        let _scope = crate::cancel::arm(None, Some(5_000));
        let e = run(&m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::FuelExhausted(5_000));
    }

    #[test]
    fn fired_token_cancels_an_unbudgeted_loop_in_both_engines() {
        let m = compile("fn main() { while (true) { } }");
        let token = crate::cancel::CancelToken::new();
        let _scope = crate::cancel::arm(Some(&token), None);
        token.cancel(); // fired before the run: traps at the first poll
        let e = run(&m, &VmConfig::default()).unwrap_err();
        assert_eq!(e.kind, TrapKind::Cancelled);
        assert_eq!(e.function, "main");
        let e = run_naive(&m, &VmConfig::default()).unwrap_err();
        assert_eq!(e.kind, TrapKind::Cancelled);
        assert_eq!(e.function, "main");
    }

    #[test]
    fn unfired_token_leaves_outcomes_untouched() {
        let src = "fn main() { var i = 0; while (i < 200) { i = i + 1; } print(i); }";
        let m = compile(src);
        let clean = run(&m, &VmConfig::default()).unwrap();
        let token = crate::cancel::CancelToken::new();
        let armed = {
            let _scope = crate::cancel::arm(Some(&token), None);
            run(&m, &VmConfig::default()).unwrap()
        };
        assert_eq!(clean, armed, "an armed-but-silent token must be invisible");
    }

    #[test]
    fn cancelled_profiled_run_attributes_partial_cycles_exactly() {
        // `fold_profile`'s debug asserts pin the attribution identity
        // (per-opcode totals == the clock) for the cancelled run; the
        // explicit totals check keeps release builds honest too.
        let src = "fn mix(a, b) { return a * 31 + b; }
             fn main() { var h = 7; var i = 0; while (i < 500) { h = mix(h, i); i = i + 1; } print(h); }";
        let m = compile(src);
        let cfg = VmConfig::default();
        let prepared = PreparedModule::prepare(&m, &cfg.cost);
        let mut profile = crate::profile::OpProfile::new();
        let err = {
            let _scope = crate::cancel::arm(None, Some(4_000));
            run_prepared_profiled(&prepared, &cfg, &mut profile).unwrap_err()
        };
        assert_eq!(err.kind, TrapKind::Cancelled);
        // The partial profile must equal a fuel trap's at the same point.
        let fuel_cfg = VmConfig {
            limits: ExecLimits::cycles(4_000),
            ..cfg
        };
        let mut fuel_profile = crate::profile::OpProfile::new();
        let err = run_prepared_profiled(&prepared, &fuel_cfg, &mut fuel_profile).unwrap_err();
        assert_eq!(err.kind, TrapKind::FuelExhausted(4_000));
        assert_eq!(profile.total_cycles(), fuel_profile.total_cycles());
        assert_eq!(
            profile.total_instructions(),
            fuel_profile.total_instructions()
        );
        assert_eq!(profile.total_dispatches(), fuel_profile.total_dispatches());
    }

    #[test]
    fn prepared_engine_matches_naive_reference() {
        // Exercise every op class: arithmetic, control flow, calls, method
        // dispatch, arrays, threads, yieldpoints.
        let srcs = [
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn main() { print(fib(14)); }",
            "class Acc { field total; method add(x) { self.total = self.total + x; } }
             fn main() {
                 var a = new Acc; a.total = 0;
                 var i = 0;
                 while (i < 50) { a.add(i); i = i + 1; }
                 print(a.total);
             }",
            "fn work(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }
             fn main() {
                 var t = spawn work(1000);
                 var local = work(500);
                 join(t);
                 print(local);
             }",
        ];
        for src in srcs {
            let m = compile(src);
            let cfg = VmConfig::default();
            let fast = run(&m, &cfg).expect("prepared engine runs");
            let slow = run_naive(&m, &cfg).expect("naive engine runs");
            assert_eq!(fast, slow, "engines diverged on: {src}");
        }
    }

    #[test]
    fn run_prepared_amortizes_one_preparation() {
        let m = compile("fn main() { var i = 0; while (i < 100) { i = i + 1; } print(i); }");
        let cfg = VmConfig::default();
        let prepared = PreparedModule::prepare(&m, &cfg.cost);
        // Thread-local count: immune to concurrent test threads preparing.
        let before = thread_preparations();
        let a = run_prepared(&prepared, &cfg).unwrap();
        let b = run_prepared(&prepared, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            thread_preparations(),
            before,
            "run_prepared must not re-prepare"
        );
    }

    #[test]
    #[should_panic(expected = "cost model differs")]
    fn run_prepared_rejects_mismatched_cost_model() {
        let m = compile("fn main() { }");
        let prepared = PreparedModule::prepare(&m, &CostModel::default());
        let cfg = VmConfig {
            cost: CostModel {
                alu: 99,
                ..CostModel::default()
            },
            ..VmConfig::default()
        };
        let _ = run_prepared(&prepared, &cfg);
    }
}

//! Pre-decoded modules: the one-time `prepare` pass that flattens a
//! [`Module`] into the dense form the interpreter's hot loop executes.
//!
//! Preparation does, once per (module, cost model):
//!
//! * **Arena flattening.** Each function's blocks are laid out back to back
//!   in one contiguous [`Op`] vector, with the terminator inlined as the
//!   block's final op. The hot loop fetches `ops[ip]` — no block lookup,
//!   no separate instruction/terminator fetch.
//! * **Target pre-resolution.** Branch targets are absolute arena indices,
//!   not [`BlockId`]s resolved through the function on every transfer.
//! * **Cost pre-folding.** Every op carries its cycle cost, folded from
//!   the [`CostModel`] at prepare time; the hot loop never re-derives a
//!   cost from instruction shape.
//! * **Backedge pre-classification.** The per-function `loops::backedges`
//!   analysis runs once here and is baked into per-edge flags on each
//!   terminator, replacing the per-run analysis and per-transfer
//!   `HashSet<(BlockId, BlockId)>` probes of the naive interpreter.
//! * **Operand pre-resolution.** Constants become runtime [`Value`]s,
//!   `new` carries its class's field count, and Ball–Larus path constants
//!   are widened to `i64` up front.
//! * **Dense dispatch tables.** Field offsets and method implementations
//!   are resolved for every (class, symbol) pair into flat arrays, so a
//!   field access or a virtual call in the hot loop is one indexed load
//!   instead of a per-access hash-map probe through the class table.
//!
//! The pass is observable through [`preparations`], a process-wide counter
//! the harness asserts against to prove each experiment cell prepares its
//! module exactly once, however many times it re-runs it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use isf_ir::{
    loops, BinOp, BlockId, CallSiteId, ClassId, Const, FieldSym, FuncId, Function, Inst, InstrOp,
    LocalId, MethodSym, Module, Term, UnOp,
};

use crate::cost::CostModel;
use crate::value::Value;

/// Process-wide count of [`PreparedModule::prepare`] calls, used by the
/// harness to assert preparation happens once per experiment cell.
static PREPARATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread preparation count. An experiment cell runs entirely on
    /// one thread, so this gives a race-free once-per-cell assertion even
    /// while other threads prepare their own cells concurrently.
    static THREAD_PREPARATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of `prepare` passes executed by this process so far.
pub fn preparations() -> u64 {
    PREPARATIONS.load(Ordering::Relaxed)
}

/// Number of `prepare` passes executed by the *calling thread*. Immune to
/// concurrent preparations on other threads, unlike [`preparations`].
pub fn thread_preparations() -> u64 {
    THREAD_PREPARATIONS.with(|c| c.get())
}

/// Whether preparation runs the superinstruction fusion and static slot
/// resolution passes.
///
/// Fusion is observably equivalent: fused runs produce byte-identical
/// output, cycle counts, traps and profiles — only wall-clock time
/// changes. [`FuseMode::Off`] keeps the unfused pipeline alive as an
/// escape hatch and differential-testing baseline.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FuseMode {
    /// Decode only, exactly the pre-fusion pipeline.
    Off,
    /// Decode, then peephole-fuse superinstructions and statically resolve
    /// field slots and method targets (the default).
    Fuse,
}

/// The fuse mode [`PreparedModule::prepare`] resolves to: [`FuseMode::Off`]
/// when the `ISF_FUSE` environment variable (read once per process) is
/// `0`, `off` or `false`, else [`FuseMode::Fuse`]. Callers that must pin
/// the pipeline pass a mode to [`PreparedModule::prepare_with`] instead.
pub fn fuse_mode() -> FuseMode {
    static ENV: OnceLock<FuseMode> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("ISF_FUSE").ok().as_deref() {
        Some("0") | Some("off") | Some("false") => FuseMode::Off,
        _ => FuseMode::Fuse,
    })
}

/// One decoded operation: its pre-folded cycle cost plus the decoded form.
#[derive(Clone, Debug)]
pub(crate) struct Op {
    /// Cycles charged when this op executes (the check's sample-switch
    /// surcharge is the one cost still applied conditionally at runtime).
    /// For a fused superinstruction this is the summed cost of the whole
    /// group up to and including its first component that can trap; the
    /// rest rides in the variant's `extra` field, charged by the arm after
    /// that component executes, so budget traps land exactly where the
    /// unfused sequence would put them.
    pub(crate) cost: u64,
    /// Source instructions this op accounts for: 1 for a plain op, the
    /// group size for a fused superinstruction, which advances `ip` past
    /// the group's inert [`OpKind::Gap`] fillers.
    pub(crate) width: u32,
    pub(crate) kind: OpKind,
}

// Size pins for the compact encoding: the hot loop fetches one `Op` per
// dispatch, so a later variant must not silently grow it back. Operands
// that do not fit beside the tag in 24 bytes live out of line (boxed).
const _: () = assert!(std::mem::size_of::<OpKind>() == 24);
const _: () = assert!(std::mem::size_of::<Op>() == 40);

/// The decoded instruction set the hot loop dispatches on. Instructions
/// and terminators share one enum so a block is a flat run of ops ending
/// in a control transfer.
#[derive(Clone, Debug)]
pub(crate) enum OpKind {
    /// `dst = value`, with the constant already converted to a [`Value`].
    Const {
        dst: LocalId,
        value: Value,
    },
    Move {
        dst: LocalId,
        src: LocalId,
    },
    Un {
        op: UnOp,
        dst: LocalId,
        src: LocalId,
    },
    Bin {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
    },
    /// Allocation with the field count pre-resolved from the class table.
    New {
        dst: LocalId,
        class: ClassId,
        num_fields: usize,
    },
    GetField {
        dst: LocalId,
        obj: LocalId,
        field: FieldSym,
    },
    SetField {
        obj: LocalId,
        field: FieldSym,
        src: LocalId,
    },
    /// `GetField` whose slot is identical in every class of the module,
    /// resolved at prepare time: no per-access dispatch-table probe, and
    /// `NoSuchField` is statically impossible.
    GetFieldStatic {
        dst: LocalId,
        obj: LocalId,
        offset: u32,
    },
    /// `SetField` with a statically uniform slot.
    SetFieldStatic {
        obj: LocalId,
        offset: u32,
        src: LocalId,
    },
    NewArray {
        dst: LocalId,
        len: LocalId,
    },
    ArrayGet {
        dst: LocalId,
        arr: LocalId,
        idx: LocalId,
    },
    ArraySet {
        arr: LocalId,
        idx: LocalId,
        src: LocalId,
    },
    ArrayLen {
        dst: LocalId,
        arr: LocalId,
    },
    /// A direct call; operands boxed in [`Call`].
    Call(Box<Call>),
    /// A virtual call resolved per receiver class; operands boxed in [`CallMethod`].
    CallMethod(Box<CallMethod>),
    /// A virtual call with one implementation module-wide; operands boxed in [`CallMethodStatic`].
    CallMethodStatic(Box<CallMethodStatic>),
    Print {
        src: LocalId,
    },
    /// Starts a green thread; operands boxed in [`Spawn`].
    Spawn(Box<Spawn>),
    Join {
        thread: LocalId,
    },
    Yield,
    /// The cost field carries the whole effect.
    Busy,
    // Instrumentation operations, decoded from `Inst::Instr`.
    CallEdge,
    FieldAccessProf {
        obj: LocalId,
        field: FieldSym,
        write: bool,
    },
    BlockCount {
        block: BlockId,
    },
    EdgeCount {
        from: BlockId,
        to: BlockId,
    },
    ValueProfile {
        local: LocalId,
        site: u32,
    },
    PathStart {
        value: i64,
    },
    PathIncr {
        delta: i64,
    },
    PathEnd {
        site: u32,
    },
    // Terminators, with targets as absolute arena indices and backedge
    // membership pre-classified per edge.
    Jump {
        target: u32,
        backedge: bool,
    },
    Br {
        cond: LocalId,
        t: u32,
        f: u32,
        t_backedge: bool,
        f_backedge: bool,
    },
    Ret {
        val: Option<LocalId>,
    },
    Check {
        sample: u32,
        cont: u32,
        sample_backedge: bool,
        cont_backedge: bool,
    },
    // Fused superinstructions (built only under `FuseMode::Fuse`): the
    // three templates that measurably pay on the call-free dispatch loop
    // (DESIGN.md decision 19). Each replaces its group's first arena slot;
    // the interior slots become inert `Gap` fillers so every arena index
    // — branch targets, trace `check_ip`s — is preserved. A fused group
    // never contains a `Check`, a `Yield` or a backedge, which is what
    // makes charging the group under one dispatch observably identical
    // to charging per op.
    /// `tmp = imm; dst = src op tmp` — an integer constant as the right
    /// operand, held inline (no boxed operands: the most frequent fused
    /// dispatch pays no extra load).
    BinImm {
        op: BinOp,
        dst: LocalId,
        src: LocalId,
        tmp: LocalId,
        imm: i64,
    },
    /// Constant, compare and branch; operands boxed in [`BrCmpImm`].
    BrCmpImm(Box<BrCmpImm>),
    /// Constant-operand binary op stored into a field; operands boxed in [`BinImmSetField`].
    BinImmSetField(Box<BinImmSetField>),
    /// An inert filler occupying the interior slot of a fused group.
    /// Unreachable: sequential flow skips it via the leader's width, and
    /// branch targets only ever point at block starts.
    Gap,
}

/// Operands of [`OpKind::Call`].
#[derive(Clone, Debug)]
pub(crate) struct Call {
    pub(crate) dst: Option<LocalId>,
    pub(crate) callee: FuncId,
    pub(crate) args: Box<[LocalId]>,
    pub(crate) site: CallSiteId,
}

/// Operands of [`OpKind::CallMethod`].
#[derive(Clone, Debug)]
pub(crate) struct CallMethod {
    pub(crate) dst: Option<LocalId>,
    pub(crate) obj: LocalId,
    pub(crate) method: MethodSym,
    pub(crate) args: Box<[LocalId]>,
    pub(crate) site: CallSiteId,
}

/// `CallMethod` whose method symbol resolves to one implementation in
/// every class of the module (and whose arity was checked at prepare
/// time): the vtable probe and arity check leave the hot loop. The
/// receiver is still null/type-checked at runtime.
#[derive(Clone, Debug)]
pub(crate) struct CallMethodStatic {
    pub(crate) dst: Option<LocalId>,
    pub(crate) obj: LocalId,
    pub(crate) callee: FuncId,
    pub(crate) args: Box<[LocalId]>,
    pub(crate) site: CallSiteId,
}

/// Operands of [`OpKind::Spawn`].
#[derive(Clone, Debug)]
pub(crate) struct Spawn {
    pub(crate) dst: LocalId,
    pub(crate) callee: FuncId,
    pub(crate) args: Box<[LocalId]>,
}

/// `Const` + comparison-`Bin` + `Br` — the dominant tight-loop shape
/// (`while (i < n)` against a literal bound). [`Op::cost`] folds the
/// constant and the compare; `extra` is the branch's cost, charged after
/// the compare executes so a fuel trap lands between the two exactly as
/// in the unfused sequence. Backedge branches are never fused, so no
/// backedge flags are needed.
#[derive(Clone, Debug)]
pub(crate) struct BrCmpImm {
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) tmp: LocalId,
    pub(crate) imm: Value,
    pub(crate) extra: u64,
    pub(crate) t: u32,
    pub(crate) f: u32,
}

/// `tmp = imm; dst = lhs <op> rhs; obj.field = dst` — the full
/// constant-operand compute-and-store tail of `o.f = <expr> <op> K;`.
/// [`Op::cost`] folds the constant and the binary op; `extra` is the
/// store's cost, charged between the op and the store.
#[derive(Clone, Debug)]
pub(crate) struct BinImmSetField {
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) tmp: LocalId,
    pub(crate) imm: Value,
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) extra: u64,
}

impl OpKind {
    /// This op's index in the profiling opcode space
    /// ([`crate::profile::OPCODE_NAMES`]). The plain decoded forms map to
    /// the same indices the tree-walking engine assigns the corresponding
    /// `Inst`/`Term` dispatches, so unfused prepared profiles and naive
    /// profiles are directly comparable.
    pub(crate) const fn opcode(&self) -> usize {
        use crate::profile::*;
        match self {
            OpKind::Const { .. } => OPC_CONST,
            OpKind::Move { .. } => OPC_MOVE,
            OpKind::Un { .. } => OPC_UN,
            OpKind::Bin { .. } => OPC_BIN,
            OpKind::New { .. } => OPC_NEW,
            OpKind::GetField { .. } => OPC_GET_FIELD,
            OpKind::SetField { .. } => OPC_SET_FIELD,
            OpKind::NewArray { .. } => OPC_NEW_ARRAY,
            OpKind::ArrayGet { .. } => OPC_ARRAY_GET,
            OpKind::ArraySet { .. } => OPC_ARRAY_SET,
            OpKind::ArrayLen { .. } => OPC_ARRAY_LEN,
            OpKind::Call { .. } => OPC_CALL,
            OpKind::CallMethod { .. } => OPC_CALL_METHOD,
            OpKind::Print { .. } => OPC_PRINT,
            OpKind::Spawn { .. } => OPC_SPAWN,
            OpKind::Join { .. } => OPC_JOIN,
            OpKind::Yield => OPC_YIELD,
            OpKind::Busy => OPC_BUSY,
            OpKind::CallEdge => OPC_CALL_EDGE,
            OpKind::FieldAccessProf { .. } => OPC_FIELD_ACCESS_PROF,
            OpKind::BlockCount { .. } => OPC_BLOCK_COUNT,
            OpKind::EdgeCount { .. } => OPC_EDGE_COUNT,
            OpKind::ValueProfile { .. } => OPC_VALUE_PROFILE,
            OpKind::PathStart { .. } => OPC_PATH_START,
            OpKind::PathIncr { .. } => OPC_PATH_INCR,
            OpKind::PathEnd { .. } => OPC_PATH_END,
            OpKind::Jump { .. } => OPC_JUMP,
            OpKind::Br { .. } => OPC_BR,
            OpKind::Ret { .. } => OPC_RET,
            OpKind::Check { .. } => OPC_CHECK,
            OpKind::GetFieldStatic { .. } => OPC_GET_FIELD_STATIC,
            OpKind::SetFieldStatic { .. } => OPC_SET_FIELD_STATIC,
            OpKind::CallMethodStatic { .. } => OPC_CALL_METHOD_STATIC,
            OpKind::BinImm { .. } => OPC_BIN_IMM,
            OpKind::BrCmpImm { .. } => OPC_BR_CMP_IMM,
            OpKind::BinImmSetField { .. } => OPC_BIN_IMM_SET_FIELD,
            OpKind::Gap => OPC_GAP,
        }
    }

    /// Cycles this op charges *beyond* [`Op::cost`] when it runs to
    /// completion: the mid-arm `extra` charges of the fused
    /// superinstructions whose components trap independently. Together
    /// with [`Op::cost`] this is the exact per-dispatch charge of every
    /// completed dispatch (the check's sample-switch surcharge, applied
    /// only when the check fires, is accounted separately), which is what
    /// lets the profiled engine reconstruct exact per-opcode cycle totals
    /// from bare slot execution counts after the run.
    pub(crate) fn extra_cycles(&self) -> u64 {
        match self {
            OpKind::BrCmpImm(g) => g.extra,
            OpKind::BinImmSetField(g) => g.extra,
            _ => 0,
        }
    }
}

impl Op {
    /// The charge schedule of one dispatch of this op: each inner vec is
    /// one `charge_cycles` quantum, listing the per-component (source
    /// instruction) costs it folds, in execution order. This is the
    /// unfused schedule the fusion pass folded [`Op::cost`] and the
    /// `extra` fields from; the profiled engine walks it on the trapping
    /// dispatch to attribute exactly the instructions and cycles the
    /// unfused schedule would have reached before the trap (see
    /// `fold_profile`). Total components always equal [`Op::width`] and
    /// total cycles equal `cost + extra_cycles()`.
    pub(crate) fn charge_quanta(&self, cm: &CostModel) -> Vec<Vec<u64>> {
        let bin = |op: &BinOp| match op {
            BinOp::Mul => cm.mul,
            BinOp::Div | BinOp::Rem => cm.div,
            _ => cm.alu,
        };
        let q = match &self.kind {
            OpKind::BinImm { op, .. } => vec![vec![cm.alu, bin(op)]],
            OpKind::BrCmpImm(g) => vec![vec![cm.alu, bin(&g.op)], vec![g.extra]],
            OpKind::BinImmSetField(g) => vec![vec![cm.alu, bin(&g.op)], vec![g.extra]],
            _ => vec![vec![self.cost]],
        };
        debug_assert_eq!(
            q.iter().flatten().sum::<u64>(),
            self.cost + self.kind.extra_cycles(),
            "charge quanta must decompose the op's exact per-dispatch charge"
        );
        debug_assert_eq!(
            q.iter().map(Vec::len).sum::<usize>(),
            self.width as usize,
            "charge quanta must have one component per source instruction"
        );
        q
    }
}

/// One function flattened into a contiguous op arena. The entry point is
/// always arena index 0 (block 0 is laid out first).
#[derive(Clone, Debug)]
pub(crate) struct PreparedFunction {
    pub(crate) ops: Vec<Op>,
    pub(crate) num_locals: usize,
    pub(crate) arity: usize,
    /// Superinstructions installed by the fusion pass (0 under
    /// [`FuseMode::Off`]).
    pub(crate) fused: usize,
    /// This function's offset into the module-wide slot space: arena slot
    /// `i` of this function is slot `slot_base + i` of the module. The
    /// profiled engine counts block entries per module slot and folds the
    /// counts back into per-opcode totals after the run.
    pub(crate) slot_base: u32,
    /// Arena offset of each block, in layout order (`block_starts[0] == 0`).
    /// Control only ever enters a block at its start and only ever leaves
    /// through its final op — which is what lets the
    /// profiled engine reconstruct exact per-slot execution counts from
    /// per-entry counts by a prefix sum that resets at these boundaries.
    pub(crate) block_starts: Vec<u32>,
}

/// A module flattened for execution: the decoded op arenas plus the owned
/// source [`Module`] (still needed for runtime name/class resolution) and
/// the [`CostModel`] the costs were folded from.
///
/// Build once with [`PreparedModule::prepare`], then execute any number of
/// times with [`crate::run_prepared`] — Table 4, for example, runs the same
/// instrumented program at six sampling intervals, amortizing one
/// preparation over all of them.
#[derive(Clone, Debug)]
pub struct PreparedModule {
    module: Module,
    cost: CostModel,
    funcs: Vec<PreparedFunction>,
    /// Field slot per (class, field symbol), row-major by class.
    field_offsets: Box<[Option<u32>]>,
    num_field_syms: usize,
    /// Implementing function per (class, method symbol), row-major by
    /// class.
    method_impls: Box<[Option<FuncId>]>,
    num_method_syms: usize,
}

/// Module-wide static resolution tables: per-symbol slots and targets that
/// are identical in *every* class, so the decoded op can skip the
/// per-access (class, symbol) probe entirely.
struct Statics {
    /// Per [`FieldSym`]: the field's slot if every class places it there.
    field_slots: Vec<Option<u32>>,
    /// Per [`MethodSym`]: the implementation if every class resolves to it.
    method_targets: Vec<Option<FuncId>>,
}

impl Statics {
    fn resolve(module: &Module, mode: FuseMode) -> Self {
        let num_fields = module.num_field_syms();
        let num_methods = module.num_method_syms();
        if mode == FuseMode::Off || module.num_classes() == 0 {
            return Statics {
                field_slots: vec![None; num_fields],
                method_targets: vec![None; num_methods],
            };
        }
        let field_slots = (0..num_fields)
            .map(|s| {
                let sym = FieldSym::new(s as u32);
                let mut classes = module.classes();
                let first = classes.next()?.1.field_offset(sym)? as u32;
                classes
                    .all(|(_, c)| c.field_offset(sym) == Some(first as usize))
                    .then_some(first)
            })
            .collect();
        let method_targets = (0..num_methods)
            .map(|s| {
                let sym = MethodSym::new(s as u32);
                let mut classes = module.classes();
                let first = classes.next()?.1.resolve_method(sym)?;
                classes
                    .all(|(_, c)| c.resolve_method(sym) == Some(first))
                    .then_some(first)
            })
            .collect();
        Statics {
            field_slots,
            method_targets,
        }
    }
}

impl PreparedModule {
    /// Flattens `module` under `cost` with the default [`fuse_mode`].
    /// This is the only place the per-function backedge analysis runs.
    pub fn prepare(module: &Module, cost: &CostModel) -> Self {
        Self::prepare_with(module, cost, fuse_mode())
    }

    /// [`PreparedModule::prepare`] with an explicit fuse mode, for callers
    /// (differential tests, the dispatch-ablation bench) that must pin the
    /// pipeline regardless of the environment.
    pub fn prepare_with(module: &Module, cost: &CostModel, mode: FuseMode) -> Self {
        PREPARATIONS.fetch_add(1, Ordering::Relaxed);
        THREAD_PREPARATIONS.with(|c| c.set(c.get() + 1));
        let statics = Statics::resolve(module, mode);
        let mut slot_base = 0u32;
        let funcs: Vec<PreparedFunction> = module
            .functions()
            .map(|(_, f)| {
                let mut pf = prepare_function(module, f, cost, mode, &statics);
                pf.slot_base = slot_base;
                slot_base += pf.ops.len() as u32;
                pf
            })
            .collect();
        let num_field_syms = module.num_field_syms();
        let num_method_syms = module.num_method_syms();
        let num_classes = module.num_classes();
        let mut field_offsets = vec![None; num_classes * num_field_syms];
        let mut method_impls = vec![None; num_classes * num_method_syms];
        for (id, class) in module.classes() {
            for s in 0..num_field_syms {
                field_offsets[id.index() * num_field_syms + s] = class
                    .field_offset(FieldSym::new(s as u32))
                    .map(|o| o as u32);
            }
            for s in 0..num_method_syms {
                method_impls[id.index() * num_method_syms + s] =
                    class.resolve_method(MethodSym::new(s as u32));
            }
        }
        PreparedModule {
            module: module.clone(),
            cost: *cost,
            funcs,
            field_offsets: field_offsets.into_boxed_slice(),
            num_field_syms,
            method_impls: method_impls.into_boxed_slice(),
            num_method_syms,
        }
    }

    /// The source module (for name, class and method resolution).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The cost model the op costs were folded from.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Total decoded ops across all functions.
    pub fn num_ops(&self) -> usize {
        self.funcs.iter().map(|f| f.ops.len()).sum()
    }

    /// Total fused superinstructions across all functions (0 when prepared
    /// under [`FuseMode::Off`]).
    pub fn num_fused(&self) -> usize {
        self.funcs.iter().map(|f| f.fused).sum()
    }

    #[inline]
    pub(crate) fn func(&self, id: FuncId) -> &PreparedFunction {
        &self.funcs[id.index()]
    }

    /// All prepared functions, in slot-space order (the post-run profile
    /// fold walks every arena once).
    #[inline]
    pub(crate) fn funcs(&self) -> &[PreparedFunction] {
        &self.funcs
    }

    /// Size of the module-wide slot space ([`PreparedFunction::slot_base`]
    /// plus arena length, over the last function) — the length of the
    /// profiled engine's execution-counter table.
    #[inline]
    pub(crate) fn total_slots(&self) -> usize {
        self.funcs
            .last()
            .map_or(0, |f| f.slot_base as usize + f.ops.len())
    }

    /// Pre-resolved field slot of `field` on `class`.
    #[inline]
    pub(crate) fn field_offset(&self, class: ClassId, field: FieldSym) -> Option<u32> {
        self.field_offsets[class.index() * self.num_field_syms + field.index()]
    }

    /// Pre-resolved implementation of `method` on `class`.
    #[inline]
    pub(crate) fn method_impl(&self, class: ClassId, method: MethodSym) -> Option<FuncId> {
        self.method_impls[class.index() * self.num_method_syms + method.index()]
    }
}

fn prepare_function(
    module: &Module,
    f: &Function,
    cost: &CostModel,
    mode: FuseMode,
    statics: &Statics,
) -> PreparedFunction {
    let back: HashSet<(BlockId, BlockId)> = loops::backedges(f).into_iter().collect();
    // First pass: arena offset of each block (insts + inlined terminator).
    let mut starts = Vec::with_capacity(f.num_blocks());
    let mut offset = 0u32;
    for (_, b) in f.blocks() {
        starts.push(offset);
        offset += b.insts().len() as u32 + 1;
    }
    // Second pass: decode.
    let mut ops = Vec::with_capacity(offset as usize);
    for (id, b) in f.blocks() {
        for inst in b.insts() {
            ops.push(decode_inst(module, inst, cost, statics));
        }
        ops.push(decode_term(id, b.term(), cost, &back, &starts));
    }
    // Third pass: greedy peephole fusion within each block.
    let mut fused = 0;
    if mode == FuseMode::Fuse {
        for b in 0..starts.len() {
            let s = starts[b] as usize;
            let e = starts.get(b + 1).map_or(ops.len(), |&n| n as usize);
            fused += fuse_block(&mut ops, s, e);
        }
    }
    PreparedFunction {
        ops,
        num_locals: f.num_locals(),
        arity: f.arity(),
        fused,
        // Assigned by `prepare_with` once every function's arena length is
        // known.
        slot_base: 0,
        block_starts: starts,
    }
}

/// Installs a fused superinstruction over `ops[i..i + n]`: the leader
/// takes the group's slot count as its width, the interior slots become
/// inert [`OpKind::Gap`] fillers. The arena's length and every index in it
/// are preserved.
fn install(ops: &mut [Op], i: usize, n: usize, cost: u64, kind: OpKind) {
    ops[i] = Op {
        cost,
        width: n as u32,
        kind,
    };
    for slot in &mut ops[i + 1..i + n] {
        *slot = Op {
            cost: 0,
            width: 1,
            kind: OpKind::Gap,
        };
    }
}

/// Peephole-fuses one block's ops (`ops[s..e]`, terminator at `e - 1`)
/// with the greedy left-to-right catalogue pass. Returns the number of
/// superinstructions installed.
fn fuse_block(ops: &mut [Op], s: usize, e: usize) -> usize {
    let mut fused = 0;
    let mut i = s;
    while i < e {
        if let Some((n, cost, kind)) = match_at(ops, i, e) {
            install(ops, i, n, cost, kind);
            fused += 1;
            i += n;
        } else {
            i += 1;
        }
    }
    fused
}

/// Tries the superinstruction catalogue at `ops[i]`, bounded by the
/// block end `e`. Returns `Some((width, cost, kind))` for the group
/// [`install`] would build, `None` if nothing matches. Every template
/// starts with a `Const` feeding a `Bin`; the longer shapes are preferred.
/// Trap-order soundness: [`Op::cost`] folds component costs only up to
/// (and including) the first component that can trap; every later
/// component's cost rides in the variant's `extra` field and is charged by
/// the interpreter arm between the two executions, reproducing the
/// unfused charge/execute interleaving — and therefore the exact trap
/// point and cycle count — for both execution traps and budget traps (see
/// DESIGN.md decision 12).
fn match_at(ops: &[Op], i: usize, e: usize) -> Option<(usize, u64, OpKind)> {
    let OpKind::Const {
        dst: tmp,
        value: imm,
    } = ops[i].kind
    else {
        return None;
    };
    if i + 1 >= e {
        return None;
    }
    let OpKind::Bin { op, dst, lhs, rhs } = ops[i + 1].kind else {
        return None;
    };
    if lhs != tmp && rhs != tmp {
        return None;
    }
    let cost = ops[i].cost + ops[i + 1].cost;
    let third = (i + 2 < e).then(|| &ops[i + 2]);
    match third.map(|o| (&o.kind, o.cost)) {
        // The comparison feeds the block's branch and neither edge is a
        // backedge (`while (i < n)` against a literal bound).
        Some((
            &OpKind::Br {
                cond,
                t,
                f,
                t_backedge: false,
                f_backedge: false,
            },
            extra,
        )) if op.is_comparison() && cond == dst => {
            let kind = OpKind::BrCmpImm(Box::new(BrCmpImm {
                op,
                dst,
                lhs,
                rhs,
                tmp,
                imm,
                extra,
                t,
                f,
            }));
            Some((3, cost, kind))
        }
        // The computed value goes straight into a field
        // (`o.f = <expr> <op> K;`).
        Some((&OpKind::SetFieldStatic { obj, offset, src }, extra)) if src == dst => {
            let kind = OpKind::BinImmSetField(Box::new(BinImmSetField {
                op,
                dst,
                lhs,
                rhs,
                tmp,
                imm,
                obj,
                offset,
                extra,
            }));
            Some((3, cost, kind))
        }
        _ => match imm {
            Value::I64(imm) if rhs == tmp => Some((
                2,
                cost,
                OpKind::BinImm {
                    op,
                    dst,
                    src: lhs,
                    tmp,
                    imm,
                },
            )),
            _ => None,
        },
    }
}

fn decode_inst(module: &Module, inst: &Inst, cost: &CostModel, statics: &Statics) -> Op {
    let c = cost.inst_cost(inst);
    let kind = match inst {
        Inst::Const { dst, value } => OpKind::Const {
            dst: *dst,
            value: match value {
                Const::I64(n) => Value::I64(*n),
                Const::Bool(b) => Value::Bool(*b),
                Const::Null => Value::Null,
            },
        },
        Inst::Move { dst, src } => OpKind::Move {
            dst: *dst,
            src: *src,
        },
        Inst::Un { op, dst, src } => OpKind::Un {
            op: *op,
            dst: *dst,
            src: *src,
        },
        Inst::Bin { op, dst, lhs, rhs } => OpKind::Bin {
            op: *op,
            dst: *dst,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::New { dst, class } => OpKind::New {
            dst: *dst,
            class: *class,
            num_fields: module.class(*class).num_fields(),
        },
        Inst::GetField { dst, obj, field } => match statics.field_slots[field.index()] {
            Some(offset) => OpKind::GetFieldStatic {
                dst: *dst,
                obj: *obj,
                offset,
            },
            None => OpKind::GetField {
                dst: *dst,
                obj: *obj,
                field: *field,
            },
        },
        Inst::SetField { obj, field, src } => match statics.field_slots[field.index()] {
            Some(offset) => OpKind::SetFieldStatic {
                obj: *obj,
                offset,
                src: *src,
            },
            None => OpKind::SetField {
                obj: *obj,
                field: *field,
                src: *src,
            },
        },
        Inst::NewArray { dst, len } => OpKind::NewArray {
            dst: *dst,
            len: *len,
        },
        Inst::ArrayGet { dst, arr, idx } => OpKind::ArrayGet {
            dst: *dst,
            arr: *arr,
            idx: *idx,
        },
        Inst::ArraySet { arr, idx, src } => OpKind::ArraySet {
            arr: *arr,
            idx: *idx,
            src: *src,
        },
        Inst::ArrayLen { dst, arr } => OpKind::ArrayLen {
            dst: *dst,
            arr: *arr,
        },
        Inst::Call {
            dst,
            callee,
            args,
            site,
        } => OpKind::Call(Box::new(Call {
            dst: *dst,
            callee: *callee,
            args: args.clone().into_boxed_slice(),
            site: *site,
        })),
        Inst::CallMethod {
            dst,
            obj,
            method,
            args,
            site,
        } => match statics.method_targets[method.index()] {
            // The arity check moves to prepare time too; a mismatch (which
            // would trap for every receiver) keeps the dynamic form.
            Some(callee) if module.function(callee).arity() == args.len() + 1 => {
                OpKind::CallMethodStatic(Box::new(CallMethodStatic {
                    dst: *dst,
                    obj: *obj,
                    callee,
                    args: args.clone().into_boxed_slice(),
                    site: *site,
                }))
            }
            _ => OpKind::CallMethod(Box::new(CallMethod {
                dst: *dst,
                obj: *obj,
                method: *method,
                args: args.clone().into_boxed_slice(),
                site: *site,
            })),
        },
        Inst::Print { src } => OpKind::Print { src: *src },
        Inst::Spawn { dst, callee, args } => OpKind::Spawn(Box::new(Spawn {
            dst: *dst,
            callee: *callee,
            args: args.clone().into_boxed_slice(),
        })),
        Inst::Join { thread } => OpKind::Join { thread: *thread },
        Inst::Yield => OpKind::Yield,
        Inst::Busy { .. } => OpKind::Busy,
        Inst::Instr(op) => match op {
            InstrOp::CallEdge => OpKind::CallEdge,
            InstrOp::FieldAccess { obj, field, write } => OpKind::FieldAccessProf {
                obj: *obj,
                field: *field,
                write: *write,
            },
            InstrOp::BlockCount { block } => OpKind::BlockCount { block: *block },
            InstrOp::EdgeCount { from, to } => OpKind::EdgeCount {
                from: *from,
                to: *to,
            },
            InstrOp::ValueProfile { local, site } => OpKind::ValueProfile {
                local: *local,
                site: *site,
            },
            InstrOp::PathStart { value } => OpKind::PathStart {
                value: i64::from(*value),
            },
            InstrOp::PathIncr { delta } => OpKind::PathIncr {
                delta: i64::from(*delta),
            },
            InstrOp::PathEnd { site } => OpKind::PathEnd { site: *site },
        },
    };
    Op {
        cost: c,
        width: 1,
        kind,
    }
}

fn decode_term(
    from: BlockId,
    term: &Term,
    cost: &CostModel,
    back: &HashSet<(BlockId, BlockId)>,
    starts: &[u32],
) -> Op {
    let c = cost.term_cost(term);
    let target = |to: BlockId| starts[to.index()];
    let backedge = |to: BlockId| back.contains(&(from, to));
    let kind = match term {
        Term::Jump(t) => OpKind::Jump {
            target: target(*t),
            backedge: backedge(*t),
        },
        Term::Br { cond, t, f } => OpKind::Br {
            cond: *cond,
            t: target(*t),
            f: target(*f),
            t_backedge: backedge(*t),
            f_backedge: backedge(*f),
        },
        Term::Ret(val) => OpKind::Ret { val: *val },
        Term::Check { sample, cont } => OpKind::Check {
            sample: target(*sample),
            cont: target(*cont),
            sample_backedge: backedge(*sample),
            cont_backedge: backedge(*cont),
        },
    };
    Op {
        cost: c,
        width: 1,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        isf_frontend::compile(src).expect("test program compiles")
    }

    #[test]
    fn arena_layout_matches_source() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } print(i); }");
        let p = PreparedModule::prepare(&m, &CostModel::default());
        let f = m.function(m.main());
        // One op per instruction plus one inlined terminator per block.
        let expected: usize = f.blocks().map(|(_, b)| b.insts().len() + 1).sum();
        assert_eq!(p.func(m.main()).ops.len(), expected);
        assert_eq!(p.func(m.main()).num_locals, f.num_locals());
    }

    #[test]
    fn loop_backedge_is_preclassified() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } }");
        let p = PreparedModule::prepare(&m, &CostModel::default());
        let flagged = p
            .func(m.main())
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op.kind,
                    OpKind::Jump { backedge: true, .. }
                        | OpKind::Br {
                            t_backedge: true,
                            ..
                        }
                        | OpKind::Br {
                            f_backedge: true,
                            ..
                        }
                )
            })
            .count();
        assert_eq!(flagged, 1, "exactly one backedge in a single while loop");
    }

    #[test]
    fn costs_are_prefolded() {
        let cost = CostModel::default();
        let m = compile("fn main() { print(2 * 3); }");
        let p = PreparedModule::prepare_with(&m, &cost, FuseMode::Off);
        let ops = &p.func(m.main()).ops;
        assert!(
            ops.iter()
                .any(|op| matches!(op.kind, OpKind::Bin { op: BinOp::Mul, .. })
                    && op.cost == cost.mul)
        );
        assert!(ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::Print { .. }) && op.cost == cost.print));
        assert!(matches!(
            ops.last().map(|op| (&op.kind, op.cost)),
            Some((OpKind::Ret { .. }, c)) if c == cost.ret
        ));
    }

    #[test]
    fn const_bin_fuses_with_summed_cost() {
        let cost = CostModel::default();
        let m = compile("fn main() { print(2 * 3); }");
        let unfused = PreparedModule::prepare_with(&m, &cost, FuseMode::Off);
        let fused = PreparedModule::prepare_with(&m, &cost, FuseMode::Fuse);
        // Fusion is slot-preserving: same arena length, leaders widen.
        assert_eq!(
            fused.func(m.main()).ops.len(),
            unfused.func(m.main()).ops.len()
        );
        // `Const 3` + `Bin Mul` collapse into one BinImm charging both.
        let ops = &fused.func(m.main()).ops;
        assert!(ops.iter().any(|op| matches!(
            &op.kind,
            OpKind::BinImm {
                op: BinOp::Mul,
                imm: 3,
                ..
            }
        ) && op.cost == cost.alu + cost.mul
            && op.width == 2));
        assert!(ops.iter().any(|op| matches!(op.kind, OpKind::Gap)));
        assert!(fused.num_fused() > 0);
    }

    #[test]
    fn constant_left_operand_is_left_unfused() {
        // `BinImm` holds its constant as the right operand only; `10 - x`
        // keeps its plain `Const` and `Bin` dispatches.
        let m = compile("fn main() { var x = 4; print(10 - x); }");
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        let ops = &p.func(m.main()).ops;
        assert!(ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::Bin { op: BinOp::Sub, .. })));
        assert!(!ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::BinImm { .. })));
    }

    #[test]
    fn const_bin_store_fuses_into_bin_imm_set_field() {
        let cost = CostModel::default();
        let m = compile(
            "class C { field n; }
             fn main() { var c = new C; c.n = 1; c.n = c.n * 7; print(c.n); }",
        );
        let p = PreparedModule::prepare_with(&m, &cost, FuseMode::Fuse);
        // `Const 7; Bin Mul; SetFieldStatic` is one dispatch: the constant
        // and the multiply charged up front, the store's cost in `extra`
        // (it can trap only after the multiply executed).
        assert!(p.func(m.main()).ops.iter().any(|op| matches!(
            &op.kind,
            OpKind::BinImmSetField(g) if g.op == BinOp::Mul && g.extra == cost.field_access
        ) && op.cost == cost.alu + cost.mul
            && op.width == 3));
    }

    #[test]
    fn compare_and_branch_fuse_into_br_cmp() {
        let cost = CostModel::default();
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } }");
        let p = PreparedModule::prepare_with(&m, &cost, FuseMode::Fuse);
        // The loop header's `Const 3; Bin Lt; Br` triple becomes one
        // BrCmpImm: compare cost charged up front, branch cost in `extra`.
        let found = p.funcs.iter().flat_map(|f| f.ops.iter()).any(|op| {
            matches!(
                &op.kind,
                OpKind::BrCmpImm(g) if g.op == BinOp::Lt && g.extra == cost.branch
            ) && op.cost == cost.alu + cost.alu
                && op.width == 3
        });
        assert!(found, "loop header compare-and-branch should fuse");
    }

    #[test]
    fn fuse_off_produces_no_fused_ops() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } print(2 * 3); }");
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Off);
        assert_eq!(p.num_fused(), 0);
        for f in &p.funcs {
            for op in f.ops.iter() {
                assert_eq!(op.width, 1, "unfused ops all have width 1");
                assert!(!matches!(op.kind, OpKind::Gap));
            }
        }
    }

    #[test]
    fn uniform_field_layout_resolves_statically() {
        let m = compile(
            "class P { field x; method get() { return self.x; } }
             fn main() { var p = new P; p.x = 7; print(p.x); }",
        );
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        // A single class trivially has a uniform layout, so field accesses
        // resolve to static offsets and the method call to a direct target.
        let all_ops = || p.funcs.iter().flat_map(|f| f.ops.iter());
        assert!(all_ops().any(|op| matches!(op.kind, OpKind::SetFieldStatic { .. })));
        assert!(all_ops().any(|op| matches!(op.kind, OpKind::GetFieldStatic { .. })));
        assert!(!all_ops().any(|op| matches!(op.kind, OpKind::GetField { .. })));
        let off = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Off);
        let off_ops = || off.funcs.iter().flat_map(|f| f.ops.iter());
        assert!(off_ops().any(|op| matches!(op.kind, OpKind::GetField { .. })));
        assert!(!off_ops().any(|op| matches!(op.kind, OpKind::GetFieldStatic { .. })));
    }

    #[test]
    fn branch_targets_never_point_at_gap_interiors() {
        let m = compile(
            "fn main() {
                 var i = 0;
                 while (i < 10) {
                     if (i < 5) { i = i + 2; } else { i = i + 1; }
                 }
                 print(i);
             }",
        );
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        for f in &p.funcs {
            let mut targets = Vec::new();
            for op in f.ops.iter() {
                match &op.kind {
                    OpKind::Jump { target, .. } => targets.push(*target),
                    OpKind::Br { t, f, .. } => targets.extend([*t, *f]),
                    OpKind::BrCmpImm(g) => targets.extend([g.t, g.f]),
                    OpKind::Check { sample, cont, .. } => {
                        targets.push(*sample);
                        targets.push(*cont);
                    }
                    _ => {}
                }
            }
            for t in targets {
                assert!(
                    !matches!(f.ops[t as usize].kind, OpKind::Gap),
                    "control transfer lands on a gap slot"
                );
            }
        }
    }

    #[test]
    fn dispatch_tables_match_class_lookups() {
        let m = compile(
            "class Shape { field tag; method area() { return 0; } }
             class Square : Shape { field side; method area() { return self.side * self.side; } }
             fn main() { var s = new Square; s.side = 2; print(s.area()); }",
        );
        let p = PreparedModule::prepare(&m, &CostModel::default());
        for (id, class) in m.classes() {
            for s in 0..m.num_field_syms() {
                let sym = FieldSym::new(s as u32);
                assert_eq!(
                    p.field_offset(id, sym),
                    class.field_offset(sym).map(|o| o as u32)
                );
            }
            for s in 0..m.num_method_syms() {
                let sym = MethodSym::new(s as u32);
                assert_eq!(p.method_impl(id, sym), class.resolve_method(sym));
            }
        }
    }

    #[test]
    fn preparation_counter_increments() {
        let m = compile("fn main() { }");
        // Other tests in this binary prepare concurrently: the per-thread
        // count is exact, the process-wide one can only be bounded below.
        let before = preparations();
        let before_thread = thread_preparations();
        let _p = PreparedModule::prepare(&m, &CostModel::default());
        assert_eq!(thread_preparations(), before_thread + 1);
        assert!(preparations() > before);
    }
}

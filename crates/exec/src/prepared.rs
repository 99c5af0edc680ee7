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
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use isf_ir::{
    loops, BinOp, BlockId, CallSiteId, ClassId, Const, FieldSym, FuncId, Function, Inst, InstrOp,
    LocalId, MethodSym, Module, Term, UnOp,
};

use crate::cost::CostModel;
use crate::profile::{FuseGuidance, OPCODE_NAMES};
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
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FuseMode {
    /// Decode only, exactly the pre-fusion pipeline.
    Off,
    /// Decode, then peephole-fuse superinstructions and statically resolve
    /// field slots and method targets (the default).
    Fuse,
    /// [`FuseMode::Fuse`] plus a profile-guided pass: a per-block dynamic
    /// program over the warmup weights in the carried [`FuseGuidance`]
    /// re-partitions each block so that (a) catalogue templates apply
    /// where the greedy left-to-right pass consumed their prefix for a
    /// lesser match, and (b) hot sequences the fixed catalogue cannot
    /// express (call-adjacent moves, getfield chains feeding calls,
    /// arg-marshalling runs) fuse into the generalized
    /// [`OpKind::Guided`] template. Observably identical to `Off`/`Fuse`:
    /// guided groups charge per component, so cycles, traps and profiles
    /// stay on the unfused schedule. Boxed: the weight table is ~264
    /// bytes, and the common `Off`/`Fuse` values should stay
    /// pointer-sized.
    Guided(Box<FuseGuidance>),
}

/// Process-wide fuse-mode override: 0 = unset (consult `ISF_FUSE`),
/// 1 = off, 2 = fuse.
static FUSE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the fuse mode for subsequent [`PreparedModule::prepare`]
/// calls; `None` restores the default (the `ISF_FUSE` environment
/// variable, on unless set to `0`/`off`/`false`). The process-wide
/// override cannot carry a guidance payload, so [`FuseMode::Guided`] maps
/// to [`FuseMode::Fuse`] here; guided preparation is requested per call
/// via [`PreparedModule::prepare_with`].
pub fn set_fuse_mode(mode: Option<FuseMode>) {
    let v = match mode {
        None => 0,
        Some(FuseMode::Off) => 1,
        Some(FuseMode::Fuse) | Some(FuseMode::Guided(_)) => 2,
    };
    FUSE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The fuse mode [`PreparedModule::prepare`] currently resolves to: the
/// [`set_fuse_mode`] override if one is set, else the `ISF_FUSE`
/// environment variable (read once per process), else [`FuseMode::Fuse`].
pub fn fuse_mode() -> FuseMode {
    match FUSE_OVERRIDE.load(Ordering::Relaxed) {
        1 => FuseMode::Off,
        2 => FuseMode::Fuse,
        _ => env_fuse_mode(),
    }
}

fn env_fuse_mode() -> FuseMode {
    static ENV: OnceLock<FuseMode> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("ISF_FUSE").ok().as_deref() {
        Some("0") | Some("off") | Some("false") => FuseMode::Off,
        _ => FuseMode::Fuse,
    })
    .clone()
}

/// One decoded operation: its pre-folded cycle cost plus the decoded form.
#[derive(Clone, Debug)]
pub(crate) struct Op {
    /// Cycles charged when this op executes (the check's sample-switch
    /// surcharge is the one cost still applied conditionally at runtime).
    /// For a fused superinstruction this is the summed cost of the whole
    /// group (except the branch half of `BrCmp`/`BrCmpImm`, charged by the
    /// arm after the compare so budget traps land exactly where the
    /// unfused sequence would put them).
    pub(crate) cost: u64,
    /// Source instructions this op accounts for: 1 for a plain op, the
    /// group size for a fused superinstruction. Sequential flow advances
    /// `ip` by this amount, skipping the inert [`OpKind::Gap`] fillers.
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
    // Fused superinstructions (built only under `FuseMode::Fuse`). Each
    // replaces its group's first arena slot; the interior slots become
    // inert `Gap` fillers so every arena index — branch targets, trace
    // `check_ip`s — is preserved. A fused group never contains a `Check`,
    // a `Yield`, a backedge, or (except as the final component) an op
    // that can trap, which is what makes the single up-front charge of
    // the summed cost observably identical to charging per op.
    /// `tmp = imm; dst = lhs op rhs`; operands boxed in [`BinImm`].
    BinImm(Box<BinImm>),
    /// Compare and branch on the result; operands boxed in [`BrCmp`].
    BrCmp(Box<BrCmp>),
    /// Constant, compare and branch; operands boxed in [`BrCmpImm`].
    BrCmpImm(Box<BrCmpImm>),
    /// `tmp = idx; dst = arr[idx]` with an integer-constant index.
    ArrayGetImm {
        dst: LocalId,
        arr: LocalId,
        tmp: LocalId,
        idx: i64,
    },
    /// `tmp = idx; arr[idx] = src` with an integer-constant index.
    ArraySetImm {
        arr: LocalId,
        tmp: LocalId,
        idx: i64,
        src: LocalId,
    },
    /// `a[K] = V` with both constants; operands boxed in [`ArraySetImm2`].
    ArraySetImm2(Box<ArraySetImm2>),
    /// Field load feeding a binary op; operands boxed in [`GetFieldBin`].
    GetFieldBin(Box<GetFieldBin>),
    /// Binary op stored into a field; operands boxed in [`BinSetField`].
    BinSetField(Box<BinSetField>),
    /// Constant-operand binary op stored into a field; operands boxed in [`BinImmSetField`].
    BinImmSetField(Box<BinImmSetField>),
    /// Field load combined with a constant; operands boxed in [`GetFieldBinImm`].
    GetFieldBinImm(Box<GetFieldBinImm>),
    /// Field update with a constant operand; operands boxed in [`GetFieldBinImmSetField`].
    GetFieldBinImmSetField(Box<GetFieldBinImmSetField>),
    /// Constant stored into a field; operands boxed in [`ConstSetField`].
    ConstSetField(Box<ConstSetField>),
    /// Field load, compare and branch; operands boxed in [`GetFieldBrCmp`].
    GetFieldBrCmp(Box<GetFieldBrCmp>),
    /// Field-indexed array load; operands boxed in [`GetFieldArrayGet`].
    GetFieldArrayGet(Box<GetFieldArrayGet>),
    /// Field-indexed array store; operands boxed in [`GetFieldArraySet`].
    GetFieldArraySet(Box<GetFieldArraySet>),
    /// A run of two or more consecutive `Move`s, executed in order under
    /// one dispatch.
    MoveRun {
        moves: Box<[(LocalId, LocalId)]>,
    },
    /// A non-backedge `Jump` that pre-executes the target block's leading
    /// run of side-effect-only instrumentation ops and lands past them.
    /// The target's own slots stay live for its other predecessors.
    JumpInstr {
        target: u32,
        effects: Box<[InstrEffect]>,
    },
    /// The generalized profile-guided template ([`FuseMode::Guided`]): a
    /// mined run of two or three plain components executed under one
    /// dispatch. Unlike the fixed catalogue above, every component's cost
    /// is charged individually — [`Op::cost`] carries only the first
    /// component's, the rest are charged mid-arm — so
    /// charge/execute interleaving, traps, timer ticks and switch-bit
    /// catch-ups are positionally identical to the unfused sequence for
    /// *any* component mix, including components that trap mid-group.
    /// Components are plain ops from the guided-eligible set
    /// (const/move/un/bin, statically resolved field accesses, array ops),
    /// with a direct or static-method call allowed as the final component.
    Guided {
        /// `(cost, component)` per source instruction, in order.
        steps: Box<[(u64, OpKind)]>,
    },
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

/// `tmp = imm; dst = lhs op rhs` (a `Const` feeding a `Bin`).
#[derive(Clone, Debug)]
pub(crate) struct BinImm {
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) tmp: LocalId,
    pub(crate) imm: Value,
}

/// A comparison `Bin` feeding the block's `Br`: branch straight on the
/// comparison without a separate dispatch for the bool. `extra` is the
/// branch's cost, charged after the compare executes so a fuel trap
/// lands between the two exactly as in the unfused sequence. Backedge
/// branches are never fused, so no backedge flags are needed.
#[derive(Clone, Debug)]
pub(crate) struct BrCmp {
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) extra: u64,
    pub(crate) t: u32,
    pub(crate) f: u32,
}

/// `Const` + comparison-`Bin` + `Br` — the dominant tight-loop shape
/// (`while (i < n)` against a literal bound).
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

/// `tmp = idx; src_tmp = src; arr[idx] = src` — both the index and
/// the stored value are constants (the frontend lowers `a[1] = 5;`
/// this way, with the value's `Const` between the index's and the
/// store).
#[derive(Clone, Debug)]
pub(crate) struct ArraySetImm2 {
    pub(crate) arr: LocalId,
    pub(crate) tmp: LocalId,
    pub(crate) idx: i64,
    pub(crate) src_tmp: LocalId,
    pub(crate) src: Value,
}

/// `tmp = obj.field; dst = lhs <op> rhs` where the load feeds one
/// operand. Both halves can trap, so only the load's cost is folded
/// into [`Op::cost`]; `extra` (the binary op's cost) is charged by the
/// arm between the halves, exactly where the unfused dispatch would
/// charge it.
#[derive(Clone, Debug)]
pub(crate) struct GetFieldBin {
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) tmp: LocalId,
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) extra: u64,
}

/// `dst = lhs <op> rhs; obj.field = dst` — a computed value stored
/// straight into a field. `extra` is the store's cost, charged after
/// the binary op executes.
#[derive(Clone, Debug)]
pub(crate) struct BinSetField {
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) extra: u64,
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

/// `tmp = obj.field; ctmp = imm; dst = lhs <op> rhs` — a field load
/// combined with a constant (`self.hash * 31`). `extra` folds the
/// constant's and the binary op's costs (the constant can't trap, so
/// the two charges merge), charged after the load executes.
#[derive(Clone, Debug)]
pub(crate) struct GetFieldBinImm {
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) tmp: LocalId,
    pub(crate) ctmp: LocalId,
    pub(crate) imm: Value,
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) extra: u64,
}

/// `tmp = obj.field; ctmp = imm; dst = lhs <op> rhs; sobj.sfield =
/// dst` — a whole field update with a constant operand
/// (`self.pos = self.pos + 1`). `extra` folds the constant's and the
/// binary op's costs (charged after the load), `extra2` is the
/// store's cost (charged after the binary op).
#[derive(Clone, Debug)]
pub(crate) struct GetFieldBinImmSetField {
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) tmp: LocalId,
    pub(crate) ctmp: LocalId,
    pub(crate) imm: Value,
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) sobj: LocalId,
    pub(crate) soffset: u32,
    pub(crate) extra: u64,
    pub(crate) extra2: u64,
}

/// `tmp = imm; obj.field = tmp` — a constant stored into a field
/// (`self.run = 0`). Only the final store can trap, so the whole
/// cost folds into [`Op::cost`].
#[derive(Clone, Debug)]
pub(crate) struct ConstSetField {
    pub(crate) tmp: LocalId,
    pub(crate) imm: Value,
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
}

/// `tmp = obj.field; dst = lhs <op> rhs; br dst ? t : f` — the
/// field-loaded compare-and-branch of a loop header
/// (`while (self.pos < stop)`). Three trap/charge points, so the
/// compare's cost (`extra`) and the branch's cost (`branch`) are both
/// charged separately at their unfused positions. Only built when
/// neither edge is a backedge.
#[derive(Clone, Debug)]
pub(crate) struct GetFieldBrCmp {
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) tmp: LocalId,
    pub(crate) op: BinOp,
    pub(crate) dst: LocalId,
    pub(crate) lhs: LocalId,
    pub(crate) rhs: LocalId,
    pub(crate) extra: u64,
    pub(crate) branch: u64,
    pub(crate) t: u32,
    pub(crate) f: u32,
}

/// `tmp = obj.field; dst = arr[tmp]` — a field-indexed array load
/// (`data[self.pos]`). `extra` is the load's cost, charged between
/// the halves.
#[derive(Clone, Debug)]
pub(crate) struct GetFieldArrayGet {
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) tmp: LocalId,
    pub(crate) dst: LocalId,
    pub(crate) arr: LocalId,
    pub(crate) extra: u64,
}

/// `tmp = obj.field; arr[tmp] = src` — a field-indexed array store
/// (`out[self.pos] = b`). `extra` is the store's cost.
#[derive(Clone, Debug)]
pub(crate) struct GetFieldArraySet {
    pub(crate) obj: LocalId,
    pub(crate) offset: u32,
    pub(crate) tmp: LocalId,
    pub(crate) arr: LocalId,
    pub(crate) src: LocalId,
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
            OpKind::BrCmp { .. } => OPC_BR_CMP,
            OpKind::BrCmpImm { .. } => OPC_BR_CMP_IMM,
            OpKind::ArrayGetImm { .. } => OPC_ARRAY_GET_IMM,
            OpKind::ArraySetImm { .. } => OPC_ARRAY_SET_IMM,
            OpKind::ArraySetImm2 { .. } => OPC_ARRAY_SET_IMM2,
            OpKind::ConstSetField { .. } => OPC_CONST_SET_FIELD,
            OpKind::GetFieldBin { .. } => OPC_GET_FIELD_BIN,
            OpKind::BinSetField { .. } => OPC_BIN_SET_FIELD,
            OpKind::BinImmSetField { .. } => OPC_BIN_IMM_SET_FIELD,
            OpKind::GetFieldBinImm { .. } => OPC_GET_FIELD_BIN_IMM,
            OpKind::GetFieldBinImmSetField { .. } => OPC_GET_FIELD_BIN_IMM_SET_FIELD,
            OpKind::GetFieldBrCmp { .. } => OPC_GET_FIELD_BR_CMP,
            OpKind::GetFieldArrayGet { .. } => OPC_GET_FIELD_ARRAY_GET,
            OpKind::GetFieldArraySet { .. } => OPC_GET_FIELD_ARRAY_SET,
            OpKind::MoveRun { .. } => OPC_MOVE_RUN,
            OpKind::JumpInstr { .. } => OPC_JUMP_INSTR,
            OpKind::Guided { .. } => OPC_GUIDED,
            OpKind::Gap => OPC_GAP,
        }
    }

    /// Cycles this op charges *beyond* [`Op::cost`] when it runs to
    /// completion: the mid-arm `extra`/`branch` charges of the fused
    /// superinstructions whose components trap independently. Together
    /// with [`Op::cost`] this is the exact per-dispatch charge of every
    /// completed dispatch (the check's sample-switch surcharge, applied
    /// only when the check fires, is accounted separately), which is what
    /// lets the profiled engine reconstruct exact per-opcode cycle totals
    /// from bare slot execution counts after the run.
    pub(crate) fn extra_cycles(&self) -> u64 {
        match self {
            OpKind::BrCmp(g) => g.extra,
            OpKind::BrCmpImm(g) => g.extra,
            OpKind::GetFieldBin(g) => g.extra,
            OpKind::BinSetField(g) => g.extra,
            OpKind::BinImmSetField(g) => g.extra,
            OpKind::GetFieldBinImm(g) => g.extra,
            OpKind::GetFieldArrayGet(g) => g.extra,
            OpKind::GetFieldArraySet(g) => g.extra,
            OpKind::GetFieldBinImmSetField(g) => g.extra + g.extra2,
            OpKind::GetFieldBrCmp(g) => g.extra + g.branch,
            OpKind::Guided { steps } => steps[1..].iter().map(|(c, _)| c).sum(),
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
            OpKind::BinImm(g) => vec![vec![cm.alu, bin(&g.op)]],
            OpKind::BrCmp(g) => vec![vec![bin(&g.op)], vec![g.extra]],
            OpKind::BrCmpImm(g) => vec![vec![cm.alu, bin(&g.op)], vec![g.extra]],
            OpKind::ArrayGetImm { .. } | OpKind::ArraySetImm { .. } => {
                vec![vec![cm.alu, cm.array_access]]
            }
            OpKind::ArraySetImm2(_) => vec![vec![cm.alu, cm.alu, cm.array_access]],
            OpKind::ConstSetField(_) => vec![vec![cm.alu, cm.field_access]],
            OpKind::GetFieldBin(g) => vec![vec![self.cost], vec![g.extra]],
            OpKind::BinSetField(g) => vec![vec![self.cost], vec![g.extra]],
            OpKind::BinImmSetField(g) => vec![vec![cm.alu, bin(&g.op)], vec![g.extra]],
            OpKind::GetFieldBinImm(g) => vec![vec![self.cost], vec![cm.alu, bin(&g.op)]],
            OpKind::GetFieldBinImmSetField(g) => {
                vec![vec![self.cost], vec![cm.alu, bin(&g.op)], vec![g.extra2]]
            }
            OpKind::GetFieldBrCmp(g) => vec![vec![self.cost], vec![g.extra], vec![g.branch]],
            OpKind::GetFieldArrayGet(g) => vec![vec![self.cost], vec![g.extra]],
            OpKind::GetFieldArraySet(g) => vec![vec![self.cost], vec![g.extra]],
            OpKind::MoveRun { moves } => vec![vec![cm.alu; moves.len()]],
            OpKind::PathIncr { .. } if self.width > 1 => {
                vec![vec![cm.instr_path_arith; self.width as usize]]
            }
            OpKind::JumpInstr { effects, .. } => {
                let mut q = vec![cm.jump];
                q.extend(effects.iter().map(|ef| match ef {
                    InstrEffect::CallEdge => cm.instr_call_edge,
                    InstrEffect::BlockCount(_) => cm.instr_block_count,
                    InstrEffect::EdgeCount(..) => cm.instr_edge_count,
                }));
                vec![q]
            }
            OpKind::Guided { steps, .. } => steps.iter().map(|(c, _)| vec![*c]).collect(),
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

/// A profiling side effect absorbed into a [`OpKind::JumpInstr`]. Only
/// trap-free, operand-free ops qualify.
#[derive(Copy, Clone, Debug)]
pub(crate) enum InstrEffect {
    /// Record a (caller, site, callee) call edge from the current frame.
    CallEdge,
    /// Record one execution of an original block.
    BlockCount(BlockId),
    /// Record one traversal of an original CFG edge.
    EdgeCount(BlockId, BlockId),
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
    /// Control only ever enters a block at its start (or, for
    /// [`OpKind::JumpInstr`], at a recorded mid-block landing slot), and
    /// only ever leaves through its final op — which is what lets the
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
    fn resolve(module: &Module, mode: &FuseMode) -> Self {
        let num_fields = module.num_field_syms();
        let num_methods = module.num_method_syms();
        if matches!(mode, FuseMode::Off) || module.num_classes() == 0 {
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
    /// Flattens `module` under `cost` with the process-wide [`fuse_mode`].
    /// This is the only place the per-function backedge analysis runs.
    pub fn prepare(module: &Module, cost: &CostModel) -> Self {
        Self::prepare_with(module, cost, fuse_mode())
    }

    /// [`PreparedModule::prepare`] with an explicit fuse mode, for callers
    /// (differential tests, the dispatch-ablation bench) that must pin the
    /// pipeline regardless of environment or process-wide override.
    pub fn prepare_with(module: &Module, cost: &CostModel, mode: FuseMode) -> Self {
        PREPARATIONS.fetch_add(1, Ordering::Relaxed);
        THREAD_PREPARATIONS.with(|c| c.set(c.get() + 1));
        let statics = Statics::resolve(module, &mode);
        let mut slot_base = 0u32;
        let funcs: Vec<PreparedFunction> = module
            .functions()
            .map(|(_, f)| {
                let mut pf = prepare_function(module, f, cost, &mode, &statics);
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

    /// Fused groups using the generalized [`OpKind::Guided`] template (a
    /// subset of [`PreparedModule::num_fused`]; 0 unless prepared under
    /// [`FuseMode::Guided`]).
    pub fn num_guided(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| f.ops.iter())
            .filter(|o| matches!(o.kind, OpKind::Guided { .. }))
            .count()
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
    mode: &FuseMode,
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
    // Third pass: peephole fusion within each block (greedy catalogue
    // matching under `Fuse`, the weight-maximizing dynamic program under
    // `Guided`), then the cross-block jump/instrumentation pass over the
    // (now fused) arena.
    let mut fused = 0;
    if !matches!(mode, FuseMode::Off) {
        for b in 0..starts.len() {
            let s = starts[b] as usize;
            let e = starts.get(b + 1).map_or(ops.len(), |&n| n as usize);
            fused += match mode {
                FuseMode::Off => unreachable!("gated above"),
                FuseMode::Fuse => fuse_block(&mut ops, s, e),
                FuseMode::Guided(g) => guide_block(&mut ops, s, e, g),
            };
        }
        fused += fuse_jump_effects(&mut ops, &starts);
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

/// Tries every pattern of the superinstruction catalogue at `ops[i]`,
/// bounded by the block end `e`. Returns `Some((width, cost, kind))` for
/// the group [`install`] would build, `None` if nothing matches. Pure:
/// looks only at `ops[i..i + width]`, so cached results stay valid while
/// earlier slots of the block are rewritten. Trap-order soundness:
/// [`Op::cost`] folds component costs only up to (and including) the
/// first component that can trap; every later component's cost rides in
/// the variant's `extra` field and is charged by the interpreter arm
/// between the two executions, reproducing the unfused charge/execute
/// interleaving — and therefore the exact trap point and cycle count —
/// for both execution traps and budget traps (see DESIGN.md decision 12).
fn match_at(ops: &[Op], i: usize, e: usize) -> Option<(usize, u64, OpKind)> {
    match ops[i].kind {
        OpKind::Const { dst: tmp, value } if i + 1 < e => {
            let c0 = ops[i].cost;
            match ops[i + 1].kind {
                OpKind::Bin { op, dst, lhs, rhs } if lhs == tmp || rhs == tmp => {
                    let c1 = ops[i + 1].cost;
                    // Prefer the triple when the comparison feeds the
                    // block's branch and neither edge is a backedge.
                    if op.is_comparison() && i + 2 < e {
                        if let OpKind::Br {
                            cond,
                            t,
                            f,
                            t_backedge: false,
                            f_backedge: false,
                        } = ops[i + 2].kind
                        {
                            if cond == dst {
                                let kind = OpKind::BrCmpImm(Box::new(BrCmpImm {
                                    op,
                                    dst,
                                    lhs,
                                    rhs,
                                    tmp,
                                    imm: value,
                                    extra: ops[i + 2].cost,
                                    t,
                                    f,
                                }));
                                return Some((3, c0 + c1, kind));
                            }
                        }
                    }
                    // Second-choice triple: the computed value goes
                    // straight into a field (`o.f = <expr> <op> K;`).
                    if i + 2 < e {
                        if let OpKind::SetFieldStatic { obj, offset, src } = ops[i + 2].kind {
                            if src == dst {
                                let kind = OpKind::BinImmSetField(Box::new(BinImmSetField {
                                    op,
                                    dst,
                                    lhs,
                                    rhs,
                                    tmp,
                                    imm: value,
                                    obj,
                                    offset,
                                    extra: ops[i + 2].cost,
                                }));
                                return Some((3, c0 + c1, kind));
                            }
                        }
                    }
                    let kind = OpKind::BinImm(Box::new(BinImm {
                        op,
                        dst,
                        lhs,
                        rhs,
                        tmp,
                        imm: value,
                    }));
                    Some((2, c0 + c1, kind))
                }
                OpKind::ArrayGet { dst, arr, idx } if idx == tmp => match value {
                    Value::I64(n) => {
                        let cost = c0 + ops[i + 1].cost;
                        Some((
                            2,
                            cost,
                            OpKind::ArrayGetImm {
                                dst,
                                arr,
                                tmp,
                                idx: n,
                            },
                        ))
                    }
                    _ => None,
                },
                // `a[K] = V;` with two literals: the value's `Const` sits
                // between the index's `Const` and the store, so the pair
                // patterns below never see it.
                OpKind::Const {
                    dst: src_tmp,
                    value: src,
                } if src_tmp != tmp && i + 2 < e => {
                    if let OpKind::ArraySet {
                        arr,
                        idx: set_idx,
                        src: set_src,
                    } = ops[i + 2].kind
                    {
                        if set_idx == tmp && set_src == src_tmp {
                            if let Value::I64(n) = value {
                                let cost = c0 + ops[i + 1].cost + ops[i + 2].cost;
                                let kind = OpKind::ArraySetImm2(Box::new(ArraySetImm2 {
                                    arr,
                                    tmp,
                                    idx: n,
                                    src_tmp,
                                    src,
                                }));
                                return Some((3, cost, kind));
                            }
                        }
                    }
                    None
                }
                OpKind::SetFieldStatic { obj, offset, src } if src == tmp => {
                    let kind = OpKind::ConstSetField(Box::new(ConstSetField {
                        tmp,
                        imm: value,
                        obj,
                        offset,
                    }));
                    Some((2, c0 + ops[i + 1].cost, kind))
                }
                OpKind::ArraySet { arr, idx, src } if idx == tmp && src != tmp => match value {
                    Value::I64(n) => {
                        let cost = c0 + ops[i + 1].cost;
                        Some((
                            2,
                            cost,
                            OpKind::ArraySetImm {
                                arr,
                                tmp,
                                idx: n,
                                src,
                            },
                        ))
                    }
                    _ => None,
                },
                _ => None,
            }
        }
        OpKind::Bin { op, dst, lhs, rhs } if i + 1 < e => {
            if op.is_comparison() {
                if let OpKind::Br {
                    cond,
                    t,
                    f,
                    t_backedge: false,
                    f_backedge: false,
                } = ops[i + 1].kind
                {
                    if cond == dst {
                        let kind = OpKind::BrCmp(Box::new(BrCmp {
                            op,
                            dst,
                            lhs,
                            rhs,
                            extra: ops[i + 1].cost,
                            t,
                            f,
                        }));
                        return Some((2, ops[i].cost, kind));
                    }
                }
            }
            if let OpKind::SetFieldStatic { obj, offset, src } = ops[i + 1].kind {
                if src == dst {
                    let kind = OpKind::BinSetField(Box::new(BinSetField {
                        op,
                        dst,
                        lhs,
                        rhs,
                        obj,
                        offset,
                        extra: ops[i + 1].cost,
                    }));
                    return Some((2, ops[i].cost, kind));
                }
            }
            None
        }
        OpKind::GetFieldStatic {
            dst: tmp,
            obj,
            offset,
        } if i + 1 < e => {
            let c0 = ops[i].cost;
            match ops[i + 1].kind {
                OpKind::ArrayGet { dst, arr, idx } if idx == tmp => {
                    let kind = OpKind::GetFieldArrayGet(Box::new(GetFieldArrayGet {
                        obj,
                        offset,
                        tmp,
                        dst,
                        arr,
                        extra: ops[i + 1].cost,
                    }));
                    Some((2, c0, kind))
                }
                OpKind::ArraySet { arr, idx, src } if idx == tmp => {
                    let kind = OpKind::GetFieldArraySet(Box::new(GetFieldArraySet {
                        obj,
                        offset,
                        tmp,
                        arr,
                        src,
                        extra: ops[i + 1].cost,
                    }));
                    Some((2, c0, kind))
                }
                OpKind::Const { dst: ctmp, value } if i + 2 < e => {
                    if let OpKind::Bin { op, dst, lhs, rhs } = ops[i + 2].kind {
                        if (lhs == tmp && rhs == ctmp) || (lhs == ctmp && rhs == tmp) {
                            // Best case: the result goes straight back
                            // into a field — one dispatch for the whole
                            // `o.f = o.g <op> K;` statement.
                            if i + 3 < e {
                                if let OpKind::SetFieldStatic {
                                    obj: sobj,
                                    offset: soffset,
                                    src,
                                } = ops[i + 3].kind
                                {
                                    if src == dst {
                                        let kind = OpKind::GetFieldBinImmSetField(Box::new(
                                            GetFieldBinImmSetField {
                                                obj,
                                                offset,
                                                tmp,
                                                ctmp,
                                                imm: value,
                                                op,
                                                dst,
                                                lhs,
                                                rhs,
                                                sobj,
                                                soffset,
                                                extra: ops[i + 1].cost + ops[i + 2].cost,
                                                extra2: ops[i + 3].cost,
                                            },
                                        ));
                                        return Some((4, c0, kind));
                                    }
                                }
                            }
                            let kind = OpKind::GetFieldBinImm(Box::new(GetFieldBinImm {
                                obj,
                                offset,
                                tmp,
                                ctmp,
                                imm: value,
                                op,
                                dst,
                                lhs,
                                rhs,
                                extra: ops[i + 1].cost + ops[i + 2].cost,
                            }));
                            return Some((3, c0, kind));
                        }
                    }
                    None
                }
                OpKind::Bin { op, dst, lhs, rhs } if lhs == tmp || rhs == tmp => {
                    // A comparison that feeds the block's branch takes the
                    // full load–compare–branch triple.
                    if op.is_comparison() && i + 2 < e {
                        if let OpKind::Br {
                            cond,
                            t,
                            f,
                            t_backedge: false,
                            f_backedge: false,
                        } = ops[i + 2].kind
                        {
                            if cond == dst {
                                let kind = OpKind::GetFieldBrCmp(Box::new(GetFieldBrCmp {
                                    obj,
                                    offset,
                                    tmp,
                                    op,
                                    dst,
                                    lhs,
                                    rhs,
                                    extra: ops[i + 1].cost,
                                    branch: ops[i + 2].cost,
                                    t,
                                    f,
                                }));
                                return Some((3, c0, kind));
                            }
                        }
                    }
                    let kind = OpKind::GetFieldBin(Box::new(GetFieldBin {
                        obj,
                        offset,
                        tmp,
                        op,
                        dst,
                        lhs,
                        rhs,
                        extra: ops[i + 1].cost,
                    }));
                    Some((2, c0, kind))
                }
                _ => None,
            }
        }
        OpKind::Move { .. } => {
            let mut n = 1;
            while i + n < e && matches!(ops[i + n].kind, OpKind::Move { .. }) {
                n += 1;
            }
            if n < 2 {
                return None;
            }
            let moves: Box<[(LocalId, LocalId)]> = ops[i..i + n]
                .iter()
                .map(|o| match o.kind {
                    OpKind::Move { dst, src } => (dst, src),
                    _ => unreachable!("run scanned above"),
                })
                .collect();
            let cost = ops[i..i + n].iter().map(|o| o.cost).sum();
            Some((n, cost, OpKind::MoveRun { moves }))
        }
        OpKind::PathIncr { delta: first } => {
            // Deltas are non-negative (widened u32), so when the summed
            // delta fits in i64, every unfused partial sum fits too and
            // one addition of the sum is exactly the sequential result.
            let mut n = 1;
            let mut sum = first;
            while i + n < e {
                let OpKind::PathIncr { delta } = ops[i + n].kind else {
                    break;
                };
                let Some(s) = sum.checked_add(delta) else {
                    break;
                };
                sum = s;
                n += 1;
            }
            if n < 2 {
                return None;
            }
            let cost = ops[i..i + n].iter().map(|o| o.cost).sum();
            Some((n, cost, OpKind::PathIncr { delta: sum }))
        }
        _ => None,
    }
}

/// Whether `kind` may ride inside a generalized [`OpKind::Guided`] group.
/// Because guided groups charge per component, any component mix is
/// trap-order sound; the set is restricted to the register-file/heap ops
/// the guided interpreter arm implements, plus — only in the final
/// position — the statically resolved calls (a call replaces the frame's
/// control state, so nothing may follow it under the same dispatch).
fn guided_component_ok(kind: &OpKind, last: bool) -> bool {
    match kind {
        OpKind::Const { .. }
        | OpKind::Move { .. }
        | OpKind::Un { .. }
        | OpKind::Bin { .. }
        | OpKind::GetFieldStatic { .. }
        | OpKind::SetFieldStatic { .. }
        | OpKind::ArrayGet { .. }
        | OpKind::ArraySet { .. }
        | OpKind::ArrayLen { .. } => true,
        OpKind::Call { .. } | OpKind::CallMethodStatic { .. } => last,
        _ => false,
    }
}

/// Per-slot value a covered op contributes to the guided dynamic program:
/// the warmup dispatch weight of its opcode, scaled so profile weight
/// dominates, plus one so coverage itself breaks ties among equally hot
/// partitions (and so catalogue matches always beat leaving ops unfused).
const GUIDED_WEIGHT_SCALE: u64 = 1024;

fn guided_slot_value(op: &Op, g: &FuseGuidance) -> u64 {
    GUIDED_WEIGHT_SCALE
        .saturating_mul(g.weight(op.kind.opcode()))
        .saturating_add(1)
}

fn guided_span_value(ops: &[Op], i: usize, n: usize, g: &FuseGuidance) -> u64 {
    ops[i..i + n]
        .iter()
        .fold(0u64, |acc, o| acc.saturating_add(guided_slot_value(o, g)))
}

/// Whether `ops[i..i + n]` can form a guided group: all components
/// eligible (calls only last) and at least one warm under `g` — cold code
/// keeps its plain dispatches so a pathological profile cannot bloat the
/// arena with groups that never run.
fn guided_group_ok(ops: &[Op], i: usize, n: usize, e: usize, g: &FuseGuidance) -> bool {
    if i + n > e {
        return false;
    }
    let mut warm = false;
    for (k, o) in ops[i..i + n].iter().enumerate() {
        if !guided_component_ok(&o.kind, k + 1 == n) {
            return false;
        }
        warm |= g.weight(o.kind.opcode()) > 0;
    }
    warm
}

/// The profile-guided replacement for [`fuse_block`]: a backward dynamic
/// program over `ops[s..e]` that picks the non-overlapping partition into
/// catalogue matches, generalized two/three-op guided groups, and skipped
/// slots maximizing total covered weight. Replacement is on strictly
/// greater value with candidates considered in the order catalogue match,
/// then guided (longer first), so on ties the specialized catalogue
/// template wins and the greedy pass's coverage is never given up — the
/// DP can only re-partition where the profile says it pays. Returns the
/// number of groups installed.
fn guide_block(ops: &mut [Op], s: usize, e: usize, g: &FuseGuidance) -> usize {
    let m = e - s;
    #[derive(Copy, Clone)]
    enum Choice {
        Skip,
        Catalogue,
        Guided(usize),
    }
    // `match_at` is pure over pristine slots, so results cached before any
    // install stay valid for the reconstruction below.
    let matches: Vec<Option<(usize, u64, OpKind)>> = (s..e).map(|i| match_at(ops, i, e)).collect();
    let mut best: Vec<(u64, Choice)> = vec![(0, Choice::Skip); m + 1];
    for j in (0..m).rev() {
        let i = s + j;
        let mut v = best[j + 1].0;
        let mut c = Choice::Skip;
        if let Some((n, _, _)) = &matches[j] {
            let val = guided_span_value(ops, i, *n, g).saturating_add(best[j + n].0);
            if val > v {
                v = val;
                c = Choice::Catalogue;
            }
        }
        for n in [3usize, 2] {
            if j + n <= m && guided_group_ok(ops, i, n, e, g) {
                let val = guided_span_value(ops, i, n, g).saturating_add(best[j + n].0);
                if val > v {
                    v = val;
                    c = Choice::Guided(n);
                }
            }
        }
        best[j] = (v, c);
    }
    let mut fused = 0;
    let mut j = 0;
    while j < m {
        match best[j].1 {
            Choice::Skip => j += 1,
            Choice::Catalogue => {
                let (n, cost, kind) = matches[j].clone().expect("chosen catalogue match exists");
                install(ops, s + j, n, cost, kind);
                fused += 1;
                j += n;
            }
            Choice::Guided(n) => {
                let i = s + j;
                let steps: Box<[(u64, OpKind)]> = ops[i..i + n]
                    .iter()
                    .map(|o| (o.cost, o.kind.clone()))
                    .collect();
                let cost = steps[0].0;
                install(ops, i, n, cost, OpKind::Guided { steps });
                fused += 1;
                j += n;
            }
        }
    }
    fused
}

/// One ranked candidate from [`mine_hot_sequences`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSequence {
    /// Name of the function the run lives in.
    pub function: String,
    /// Arena index of the run's first op within that function.
    pub start: u32,
    /// Number of consecutive source instructions in the run.
    pub len: u32,
    /// Summed warmup dispatch weight of the run's opcodes.
    pub weight: u64,
    /// Profiling opcode names of the components, in order.
    pub opcodes: Vec<&'static str>,
}

/// Ranks the hottest *unfused* adjacent op sequences of a prepared module
/// under `guidance`: scans every function's arena for maximal runs of
/// guided-eligible plain ops (the remainder the static catalogue pass
/// left width-1, with a call allowed to terminate a run) and scores each
/// run by its opcodes' warmup dispatch weights. Returns the `top`
/// heaviest runs, heaviest first, ties broken by position for
/// determinism. This is the ranking [`FuseMode::Guided`] acts on via its
/// per-block dynamic program; it is exposed for reports and tests.
pub fn mine_hot_sequences(
    prepared: &PreparedModule,
    guidance: &FuseGuidance,
    top: usize,
) -> Vec<HotSequence> {
    let mut out = Vec::new();
    for ((_, src), f) in prepared.module.functions().zip(prepared.funcs.iter()) {
        let ops = &f.ops;
        let eligible = |k: usize| ops[k].width == 1 && guided_component_ok(&ops[k].kind, true);
        let mut i = 0usize;
        while i < ops.len() {
            if !eligible(i) {
                i += 1;
                continue;
            }
            let start = i;
            let mut weight = 0u64;
            while i < ops.len() && eligible(i) {
                weight = weight.saturating_add(guidance.weight(ops[i].kind.opcode()));
                let is_call = matches!(
                    ops[i].kind,
                    OpKind::Call { .. } | OpKind::CallMethodStatic { .. }
                );
                i += 1;
                if is_call {
                    break;
                }
            }
            if i - start >= 2 && weight > 0 {
                out.push(HotSequence {
                    function: src.name().to_owned(),
                    start: start as u32,
                    len: (i - start) as u32,
                    weight,
                    opcodes: ops[start..i]
                        .iter()
                        .map(|o| OPCODE_NAMES[o.kind.opcode()])
                        .collect(),
                });
            }
        }
    }
    out.sort_by(|a, b| {
        b.weight
            .cmp(&a.weight)
            .then_with(|| a.function.cmp(&b.function))
            .then_with(|| a.start.cmp(&b.start))
    });
    out.truncate(top);
    out
}

/// Fuses each non-backedge `Jump` with the leading run of trap-free,
/// operand-free instrumentation ops (`CallEdge`, `BlockCount`,
/// `EdgeCount`) in its target block, landing past them. The target's own
/// slots are left untouched — other predecessors still execute them.
/// Runs after the intra-block pass, which never touches these op kinds.
fn fuse_jump_effects(ops: &mut [Op], starts: &[u32]) -> usize {
    let mut fused = 0;
    for b in 0..starts.len() {
        let term = starts.get(b + 1).map_or(ops.len(), |&n| n as usize) - 1;
        let target = match ops[term].kind {
            OpKind::Jump {
                target,
                backedge: false,
            } => target as usize,
            _ => continue,
        };
        let mut effects = Vec::new();
        let mut extra = 0u64;
        let mut k = target;
        loop {
            match &ops[k].kind {
                OpKind::CallEdge => effects.push(InstrEffect::CallEdge),
                OpKind::BlockCount { block } => effects.push(InstrEffect::BlockCount(*block)),
                OpKind::EdgeCount { from, to } => {
                    effects.push(InstrEffect::EdgeCount(*from, *to));
                }
                _ => break,
            }
            extra += ops[k].cost;
            k += 1;
        }
        if effects.is_empty() {
            continue;
        }
        ops[term] = Op {
            cost: ops[term].cost + extra,
            width: 1 + effects.len() as u32,
            kind: OpKind::JumpInstr {
                target: k as u32,
                effects: effects.into(),
            },
        };
        fused += 1;
    }
    fused
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
            OpKind::BinImm(g) if g.op == BinOp::Mul && g.imm == Value::I64(3)
        ) && op.cost == cost.alu + cost.mul
            && op.width == 2));
        assert!(ops.iter().any(|op| matches!(op.kind, OpKind::Gap)));
        assert!(fused.num_fused() > 0);
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
    fn const_index_array_ops_fuse() {
        let m =
            compile("fn main() { var a = array(4); var x = 9; a[1] = 5; a[2] = x; print(a[1]); }");
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        let ops = &p.func(m.main()).ops;
        assert!(
            ops.iter().any(|op| matches!(
                &op.kind,
                OpKind::ArraySetImm2(g) if g.idx == 1 && g.src == Value::I64(5)
            )),
            "literal-value constant-index store should fuse as a triple"
        );
        assert!(
            ops.iter()
                .any(|op| matches!(op.kind, OpKind::ArraySetImm { idx: 2, .. })),
            "variable-value constant-index store should fuse"
        );
        assert!(
            ops.iter()
                .any(|op| matches!(op.kind, OpKind::ArrayGetImm { idx: 1, .. })),
            "constant-index load should fuse"
        );
    }

    #[test]
    fn move_runs_fuse() {
        let m = compile(
            "fn main() { var a = 1; var b = 2; var c = 3; a = b; c = a; b = c; print(b); }",
        );
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        let ops = &p.func(m.main()).ops;
        assert!(
            ops.iter()
                .any(|op| matches!(op.kind, OpKind::MoveRun { ref moves } if moves.len() >= 2)),
            "consecutive moves should fuse into a MoveRun"
        );
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
        assert!(all_ops().any(|op| matches!(
            op.kind,
            OpKind::SetFieldStatic { .. } | OpKind::ConstSetField { .. }
        )));
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
                    OpKind::Jump { target, .. } | OpKind::JumpInstr { target, .. } => {
                        targets.push(*target)
                    }
                    OpKind::Br { t, f, .. } => targets.extend([*t, *f]),
                    OpKind::BrCmp(g) => targets.extend([g.t, g.f]),
                    OpKind::BrCmpImm(g) => targets.extend([g.t, g.f]),
                    OpKind::GetFieldBrCmp(g) => targets.extend([g.t, g.f]),
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

//! Cooperative cancellation: an `Arc`'d atomic epoch both engines poll
//! at points they already visit, raising [`TrapKind::Cancelled`] so a
//! cancelled run stops with a well-defined error instead of being killed.
//!
//! The design mirrors the budget traps of `ExecLimits`: cancellation is
//! not preemption. The prepared engine polls at block entries (the same
//! control-transfer funnel the profiler counts flow at), the naive engine
//! every [`NAIVE_POLL_INTERVAL`] dispatches, so a cancelled run stops at
//! the next control transfer — fused, unfused and naive alike —
//! and unwinds through the ordinary trap path with an accurate partial
//! profile.
//!
//! A [`CancelToken`] is an epoch counter, not a flag: a watchdog that
//! captured the epoch when a cell *started* can only cancel that same
//! cell ([`CancelToken::cancel_from`] is a compare-and-swap), so a stale
//! timer firing after the cell finished — and after the worker moved on —
//! cannot kill the cell that reused the thread.
//!
//! Tokens are armed per worker thread ([`arm`]) rather than carried in
//! `VmConfig`: the config is `Copy` and its `Debug` form feeds run
//! fingerprints, while a token is identity, not configuration. The
//! engines snapshot the armed state once at machine construction, so the
//! hot loop never touches thread-local storage; with nothing armed the
//! polls are a never-taken branch on a plain `Option` and clean runs are
//! byte-identical to a build without the subsystem.
//!
//! Wall-clock cancellation is inherently nondeterministic, so tests use
//! the deterministic half of [`arm`]: `cancel_after` raises
//! [`TrapKind::Cancelled`] at exactly the charge that takes the clock
//! past the given cycle count — the same predicate, at the same points,
//! as a `max_cycles` fuel trap — making cancellation-at-cycle-K runs
//! exactly reproducible and differentially testable against fuel traps.
//!
//! [`TrapKind::Cancelled`]: crate::TrapKind::Cancelled

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many naive-engine dispatches pass between epoch polls. The naive
/// engine has no cheap control-transfer funnel (every transfer re-derives
/// targets through the module), so it amortizes the atomic load over a
/// fixed dispatch count instead.
pub const NAIVE_POLL_INTERVAL: u32 = 1024;

/// A shared cancellation epoch. Clones observe the same epoch; see the
/// module docs for the arming and polling contract.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    epoch: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh token at epoch 0, not yet cancelled.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch, to be captured alongside [`arm`] and passed to
    /// [`CancelToken::cancel_from`] by whoever may cancel later.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Cancels unconditionally by advancing the epoch. Every engine armed
    /// with this token at the previous epoch traps at its next poll.
    pub fn cancel(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Cancels only if the epoch still equals `snapshot` — the epoch a
    /// watchdog captured when its deadline started. Returns whether the
    /// cancellation landed; `false` means the epoch had already moved on
    /// (the run finished and the token was re-armed), so the stale fire
    /// hit nothing.
    pub fn cancel_from(&self, snapshot: u64) -> bool {
        self.epoch
            .compare_exchange(
                snapshot,
                snapshot.wrapping_add(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Whether the epoch has moved past `snapshot`.
    pub fn is_cancelled(&self, snapshot: u64) -> bool {
        self.epoch.load(Ordering::Relaxed) != snapshot
    }
}

/// A token plus the epoch at arming time: what the engines actually poll.
#[derive(Clone)]
pub(crate) struct ArmedToken {
    epoch: Arc<AtomicU64>,
    snapshot: u64,
}

impl ArmedToken {
    /// Whether the token was cancelled since arming. One relaxed atomic
    /// load; the poll sites are cheap enough that ordering stricter than
    /// `Relaxed` would buy nothing (the trap path synchronizes through
    /// the unwind, not the flag).
    #[inline]
    pub(crate) fn fired(&self) -> bool {
        self.epoch.load(Ordering::Relaxed) != self.snapshot
    }
}

thread_local! {
    static ARMED_TOKEN: RefCell<Option<ArmedToken>> = const { RefCell::new(None) };
    static CANCEL_AFTER: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Arms cancellation for machines constructed on the current thread until
/// the returned guard drops: an optional shared `token` (polled at block
/// entries / every-N dispatches) and an optional deterministic
/// `cancel_after` cycle count (checked at every cycle charge, exactly
/// where a fuel budget would trap). The guard restores the previous
/// arming on drop — including across unwinds, so a panicking or trapping
/// cell cannot leak its token into the next cell run on the same worker.
#[must_use = "cancellation is only armed while the scope is alive"]
pub fn arm(token: Option<&CancelToken>, cancel_after: Option<u64>) -> CancelScope {
    let armed = token.map(|t| ArmedToken {
        epoch: Arc::clone(&t.epoch),
        snapshot: t.epoch(),
    });
    let prev_token = ARMED_TOKEN.with(|s| s.replace(armed));
    let prev_after = CANCEL_AFTER.with(|s| s.replace(cancel_after));
    CancelScope {
        prev_token,
        prev_after,
    }
}

/// RAII guard returned by [`arm`]; restores the previously armed state.
pub struct CancelScope {
    prev_token: Option<ArmedToken>,
    prev_after: Option<u64>,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        ARMED_TOKEN.with(|s| *s.borrow_mut() = self.prev_token.take());
        CANCEL_AFTER.with(|s| s.set(self.prev_after.take()));
    }
}

/// The armed token snapshot for a machine being constructed now.
pub(crate) fn armed_token() -> Option<ArmedToken> {
    ARMED_TOKEN.with(|s| s.borrow().clone())
}

/// The armed deterministic cancellation point, if any.
pub(crate) fn armed_after() -> Option<u64> {
    CANCEL_AFTER.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_from_only_lands_on_the_captured_epoch() {
        let t = CancelToken::new();
        let snapshot = t.epoch();
        assert!(!t.is_cancelled(snapshot));
        assert!(t.cancel_from(snapshot), "first fire lands");
        assert!(t.is_cancelled(snapshot));
        // A stale watchdog holding the old snapshot cannot cancel the
        // next run's epoch.
        assert!(!t.cancel_from(snapshot), "stale fire must miss");
        let next = t.epoch();
        assert!(!t.is_cancelled(next));
    }

    #[test]
    fn arm_is_scoped_and_nestable() {
        assert!(armed_token().is_none());
        assert_eq!(armed_after(), None);
        let outer_token = CancelToken::new();
        {
            let _outer = arm(Some(&outer_token), Some(10));
            assert!(armed_token().is_some());
            assert_eq!(armed_after(), Some(10));
            {
                let _inner = arm(None, Some(7));
                assert!(armed_token().is_none(), "inner scope shadows the token");
                assert_eq!(armed_after(), Some(7));
            }
            assert!(armed_token().is_some(), "outer arming restored");
            assert_eq!(armed_after(), Some(10));
        }
        assert!(armed_token().is_none());
        assert_eq!(armed_after(), None);
    }

    #[test]
    fn scope_restores_across_unwind() {
        let t = CancelToken::new();
        let r = std::panic::catch_unwind(|| {
            let _scope = arm(Some(&t), Some(5));
            panic!("cell died");
        });
        assert!(r.is_err());
        assert!(armed_token().is_none(), "unwind must disarm");
        assert_eq!(armed_after(), None);
    }
}

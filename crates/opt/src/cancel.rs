//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a shared epoch counter: cloning it hands out another
//! handle to the *same* counter, [`CancelToken::cancel`] bumps the epoch,
//! and a solve that captured the epoch at its start observes the bump at
//! its next check point. Solvers poll the token only at round /
//! generation / node boundaries, and a check that does not fire changes
//! *nothing* about the search trajectory — cancellation can never perturb
//! the result of a run that completes. A fired check makes the solver stop
//! where it is and return its best incumbent, flagged via
//! [`SolveResult::cancelled`](crate::SolveResult::cancelled).
//!
//! The epoch design (rather than a latched `AtomicBool`) lets one token be
//! reused across consecutive solves of a session: each solve captures the
//! epoch current at its start, so a cancellation consumed by solve *k*
//! does not spuriously abort solve *k + 1*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable, thread-safe cancellation handle.
///
/// All clones share one epoch counter. `Default` and [`CancelToken::new`]
/// both create a fresh, unfired token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    epoch: Arc<AtomicU64>,
}

impl CancelToken {
    /// Creates a fresh token (epoch 0, nothing cancelled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: bumps the shared epoch. Every in-flight solve
    /// that captured an earlier epoch observes the request at its next
    /// check point; solves started *after* this call are unaffected
    /// (they capture the already-bumped epoch).
    pub fn cancel(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current epoch. Capture this at the start of a cancellable
    /// operation and pass it to [`CancelToken::fired_since`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether [`CancelToken::cancel`] has been called since `epoch` was
    /// captured.
    pub fn fired_since(&self, epoch: u64) -> bool {
        self.epoch() != epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_unfired() {
        let t = CancelToken::new();
        let start = t.epoch();
        assert!(!t.fired_since(start));
    }

    #[test]
    fn cancel_fires_for_captured_epoch_only() {
        let t = CancelToken::new();
        let before = t.epoch();
        t.cancel();
        assert!(t.fired_since(before));
        // A solve starting now captures the new epoch: not cancelled.
        let after = t.epoch();
        assert!(!t.fired_since(after));
    }

    #[test]
    fn clones_share_the_epoch() {
        let t = CancelToken::new();
        let handle = t.clone();
        let start = t.epoch();
        handle.cancel();
        assert!(t.fired_since(start));
        assert_eq!(t.epoch(), handle.epoch());
    }

    #[test]
    fn cancellations_accumulate_across_solves() {
        let t = CancelToken::new();
        for _ in 0..3 {
            let epoch = t.epoch();
            t.cancel();
            assert!(t.fired_since(epoch));
        }
        assert_eq!(t.epoch(), 3);
    }
}

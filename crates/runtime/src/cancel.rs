//! Structured, region-scoped cancellation.
//!
//! Every task owns a [`CancelToken`] derived from its parent's, so a token
//! forms a tree mirroring the task graph: cancelling a token cancels the
//! whole subtree below it. Tokens are honored at *yield points* — the
//! scheduler checks the current task's token before every `step` call and
//! completes a cancelled task with an empty value instead of running it —
//! and by spinners, for which a cancellation event is the fifth wake
//! condition (beyond the paper's throttle deactivation, application
//! completion, region end, and loop end).
//!
//! Cancellation is cooperative and monotonic: a cancelled token never
//! un-cancels, and a `step` already in flight runs to its next yield.

use std::cell::Cell;
use std::rc::Rc;

use maestro_machine::snap::{Codec, SnapError};

#[derive(Debug)]
struct TokenInner {
    cancelled: Cell<bool>,
    parent: Option<Rc<TokenInner>>,
    /// Shared per-run generation counter, bumped on every cancel event so
    /// the scheduler can detect "something was cancelled" without walking
    /// every live token.
    generation: Rc<Cell<u64>>,
}

/// A handle to one node of a run's cancellation tree.
///
/// Clones share state: cancelling any clone cancels the node (and thereby
/// everything derived from it via [`CancelToken::child`]).
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Rc<TokenInner>,
}

impl CancelToken {
    /// A fresh root token (its own cancellation scope and generation).
    pub fn new() -> Self {
        CancelToken {
            inner: Rc::new(TokenInner {
                cancelled: Cell::new(false),
                parent: None,
                generation: Rc::new(Cell::new(0)),
            }),
        }
    }

    /// Derive a child scope: cancelled whenever `self` (or any ancestor)
    /// is, and independently cancellable without affecting `self`.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Rc::new(TokenInner {
                cancelled: Cell::new(false),
                parent: Some(Rc::clone(&self.inner)),
                generation: Rc::clone(&self.inner.generation),
            }),
        }
    }

    /// Cancel this scope and everything below it. Idempotent.
    pub fn cancel(&self) {
        if !self.inner.cancelled.replace(true) {
            self.inner.generation.set(self.inner.generation.get() + 1);
        }
    }

    /// True when this scope or any ancestor has been cancelled.
    ///
    /// An observed ancestor cancellation is memoized into this node, so
    /// repeated checks from deep tokens stay cheap.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.get() {
            return true;
        }
        let mut node = self.inner.parent.as_ref();
        while let Some(n) = node {
            if n.cancelled.get() {
                self.inner.cancelled.set(true);
                return true;
            }
            node = n.parent.as_ref();
        }
        false
    }

    /// The shared generation counter: bumped once per distinct cancel event
    /// anywhere in this token's tree.
    pub fn generation(&self) -> u64 {
        self.inner.generation.get()
    }

    /// This node's own flag, without the ancestor walk or memoization —
    /// what a snapshot must record so restoring does not bake an ancestor's
    /// state into descendants that never observed it.
    pub(crate) fn local_flag(&self) -> bool {
        self.inner.cancelled.get()
    }

    /// Set this node's flag without bumping the shared generation counter.
    /// Snapshot restore only: the captured generation already accounts for
    /// every cancel event, so replaying flags must not double-count.
    pub(crate) fn restore_flag(&self, cancelled: bool) {
        self.inner.cancelled.set(cancelled);
    }

    /// Overwrite the shared generation counter (snapshot restore only).
    pub(crate) fn restore_generation(&self, generation: u64) {
        self.inner.generation.set(generation);
    }

    /// The snapshot codec for a run's root token (see [`Codec`]): its own
    /// flag, then the tree's generation. Decodes into a fresh root carrying
    /// both; the writer echoes this token back.
    pub(crate) fn codec<K: Codec>(&self, c: &mut K) -> Result<CancelToken, SnapError> {
        let cancelled = c.bool(self.local_flag())?;
        let generation = c.u64(self.generation())?;
        if !K::DECODING {
            return Ok(self.clone());
        }
        let token = CancelToken::new();
        token.restore_flag(cancelled);
        token.restore_generation(generation);
        Ok(token)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.generation(), 0);
    }

    #[test]
    fn cancel_is_idempotent_and_bumps_generation_once() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.generation(), 1);
    }

    #[test]
    fn parent_cancel_reaches_descendants() {
        let root = CancelToken::new();
        let mid = root.child();
        let leaf = mid.child().child();
        let sibling = root.child().child();
        // A clear read first must not stick once an ancestor is cancelled.
        assert!(!leaf.is_cancelled());
        mid.cancel();
        assert!(leaf.is_cancelled());
        assert!(!sibling.is_cancelled());
        root.cancel();
        assert!(sibling.is_cancelled());
        assert!(mid.is_cancelled());
        // Memoized: the leaf's own flag is now set, so a second check does
        // not need the chain walk.
        assert!(leaf.is_cancelled());
    }

    #[test]
    fn child_cancel_does_not_reach_parent_or_sibling() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!root.is_cancelled());
        assert!(!b.is_cancelled());
        // But the shared generation moved, so the scheduler notices.
        assert_eq!(root.generation(), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }
}

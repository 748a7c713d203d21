//! The execution context parallel work inherits.
//!
//! One thread-local value holds the [`crate::par::with_workers`] pin and
//! the [`crate::chaos`] scope. A scope saves this thread's value, changes
//! it for the duration of a closure and restores it afterwards (also on
//! panic), so scopes nest. [`crate::par`] copies the caller's value into
//! every worker it spawns, so a pin or a chaos scope covers every item
//! run on the caller's behalf, nested `par` calls included. No thread
//! ever sees another thread's scope.

use crate::chaos::ChaosConfig;
use std::cell::RefCell;

/// One thread's execution context.
#[derive(Clone, Default)]
pub(crate) struct Context {
    /// The pinned worker count; 0 = no pin.
    pub(crate) workers: usize,
    /// The innermost chaos scope; `None` falls back to `SECEDA_CHAOS`.
    pub(crate) chaos: Option<ChaosConfig>,
}

thread_local! {
    static CONTEXT: RefCell<Context> = const {
        RefCell::new(Context { workers: 0, chaos: None })
    };
}

/// Reads this thread's context.
pub(crate) fn with<R>(f: impl FnOnce(&Context) -> R) -> R {
    CONTEXT.with_borrow(f)
}

/// Runs `f` under this thread's context as changed by `update`, then
/// restores the previous context (also on panic).
pub(crate) fn scoped<R>(update: impl FnOnce(&mut Context), f: impl FnOnce() -> R) -> R {
    struct Restore(Context);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.set(std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(CONTEXT.with_borrow_mut(|c| {
        let prev = c.clone();
        update(c);
        prev
    }));
    f()
}

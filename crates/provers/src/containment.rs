//! Panic containment for the fault-isolated verification core.
//!
//! A single panicking prover stage used to take the whole verification
//! run down with it (and, under the parallel driver, to kill one worker
//! thread so `--jobs N` silently degraded to `N-1`).  [`contain`] wraps a
//! dispatch in [`std::panic::catch_unwind`] behind an
//! [`AssertUnwindSafe`] boundary and converts
//! an escaped panic into an error message, so the caller can quarantine the
//! one faulted sequent and let the rest of the run complete.
//!
//! The boundary is sound to assert: every solver builds its search state
//! fresh per call (the `Solver`, congruence closure, theory stacks all live
//! inside `refute`), and the process-global structures a panic could leave
//! behind — the intern table, the proof cache — are guarded by their own
//! locks.  A panic while *holding* one of those locks poisons it, which
//! surfaces as further contained `Crashed` answers, never as a wrong verdict.
//!
//! While a contained section is on the stack, the default panic hook's
//! backtrace spew is suppressed (a chaos run injects thousands of panics on
//! purpose); panics outside any contained section still reach the previous
//! hook untouched.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Depth of nested contained sections on this thread.
    static CONTAINED: Cell<usize> = const { Cell::new(0) };
}

static INSTALL_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent for panics
/// unwinding toward a [`contain`] boundary and delegates every other panic to
/// the previously installed hook.
fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CONTAINED.with(Cell::get) == 0 {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding the
/// caller.  The message is the panic payload when it was a string (the usual
/// `panic!("...")` case), or a placeholder otherwise.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    CONTAINED.with(|depth| depth.set(depth.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CONTAINED.with(|depth| depth.set(depth.get() - 1));
    result.map_err(|payload| {
        if let Some(message) = payload.downcast_ref::<&'static str>() {
            (*message).to_string()
        } else if let Some(message) = payload.downcast_ref::<String>() {
            message.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_pass_through() {
        assert_eq!(contain(|| 7), Ok(7));
    }

    #[test]
    fn panics_become_messages() {
        assert_eq!(
            contain(|| -> u32 { panic!("injected fault") }),
            Err("injected fault".to_string())
        );
        let msg = format!("formatted {}", 42);
        assert_eq!(
            contain(|| -> u32 { panic!("{msg}") }),
            Err("formatted 42".to_string())
        );
    }

    #[test]
    fn nested_containment_unwinds_to_the_inner_boundary() {
        let outer = contain(|| {
            let inner = contain(|| -> u32 { panic!("inner") });
            assert_eq!(inner, Err("inner".to_string()));
            11
        });
        assert_eq!(outer, Ok(11));
    }
}

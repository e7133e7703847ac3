//! A session's drain deadline.
//!
//! When a daemon receives SIGTERM (or a `shutdown {"drain": true}` op) it
//! stops accepting new work but lets in-flight requests finish — *up to a
//! point*.  The drain deadline is that point: once it passes, every
//! still-running cascade of the draining session must wind down as if its
//! own module deadline had expired, answering `Skipped(DeadlineExceeded)`
//! partial reports instead of holding the process open indefinitely.
//!
//! A request's module deadline is fixed as an `Instant` when the request
//! starts, so a drain that begins *mid-request* cannot be expressed through
//! it.  Instead the session hands its [`Drain`] to the cascade next to the
//! module deadline ([`RequestScope`](crate::cascade::RequestScope)): the
//! check before each sequent and each stage consults both, and each stage's
//! cooperative [`Cancel`](crate::Cancel) deadline is clamped to both.  The
//! same degrade-only invariant the fault plan obeys holds here: a drain can
//! only turn would-be answers into `Skipped`, never fabricate a `Proved`.
//!
//! Reading a drain is on the per-stage hot path, so it costs one atomic
//! load while no drain has begun (the overwhelmingly common case).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `deadline_ns` while no drain has begun.
const NOT_DRAINING: u64 = u64::MAX;

/// The drain deadline of one session: unset until [`Drain::begin`], then
/// only ever moved earlier.
#[derive(Debug)]
pub struct Drain {
    /// The instant `deadline_ns` counts from.
    epoch: Instant,
    /// The deadline in nanoseconds after `epoch`, or [`NOT_DRAINING`].
    deadline_ns: AtomicU64,
}

impl Default for Drain {
    fn default() -> Drain {
        Drain {
            epoch: Instant::now(),
            deadline_ns: AtomicU64::new(NOT_DRAINING),
        }
    }
}

impl Drain {
    /// Starts (or tightens) the drain and returns the deadline in force.
    /// A second `begin` keeps the *earlier* of the two deadlines — a second
    /// SIGTERM can only hasten shutdown, never extend it.
    pub fn begin(&self, deadline: Instant) -> Instant {
        let ns = deadline.saturating_duration_since(self.epoch).as_nanos();
        let ns = ns.min(u128::from(NOT_DRAINING - 1)) as u64;
        let earliest = self.deadline_ns.fetch_min(ns, Ordering::AcqRel).min(ns);
        self.epoch + Duration::from_nanos(earliest)
    }

    /// The drain deadline, once a drain has begun.
    pub fn deadline(&self) -> Option<Instant> {
        match self.deadline_ns.load(Ordering::Acquire) {
            NOT_DRAINING => None,
            ns => Some(self.epoch + Duration::from_nanos(ns)),
        }
    }

    /// `true` once a drain has begun and its deadline has passed.
    pub fn passed(&self) -> bool {
        self.deadline()
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unstarted_drain_has_no_deadline() {
        let drain = Drain::default();
        assert_eq!(drain.deadline(), None);
        assert!(!drain.passed());
    }

    #[test]
    fn begin_keeps_the_earlier_deadline_and_passes() {
        let drain = Drain::default();
        let soon = Instant::now() + Duration::from_millis(1);
        let late = Instant::now() + Duration::from_secs(60);
        assert_eq!(drain.begin(late), late);
        assert_eq!(drain.begin(soon), soon);
        assert_eq!(drain.begin(late), soon, "a later begin must not extend it");
        assert_eq!(drain.deadline(), Some(soon));
        std::thread::sleep(Duration::from_millis(5));
        assert!(drain.passed());
    }
}

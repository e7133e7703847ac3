//! Deterministic chaos injection for the fault-isolated verification core.
//!
//! A [`FaultPlan`] describes a *seeded, reproducible* storm of infrastructure
//! faults: probabilistic prover-stage panics, injected delays, spurious
//! `Unknown` verdicts, and I/O errors (short writes, disk-full, lock failure)
//! on appends to the persistent proof store.
//!
//! A plan governs one request.  It travels on the request
//! (`ipl_core::Request::fault_plan`, the daemon frame's `fault_plan` key) and
//! reaches each injection site as an argument: the cascade's stage dispatch
//! ([`RequestScope`](crate::cascade::RequestScope)) and the store append
//! ([`StoreHandle::append_with`](crate::cache_store::StoreHandle::append_with)).
//! No plan is process-global, so a chaos request never faults the requests
//! running beside it.  Every decision is a pure hash of `(seed, fault kind,
//! site key)`, where the site key is derived from the *content* being
//! processed (the query's structural hash, the entry batch's fingerprint) —
//! never from scheduling order — so a plan injects the identical faults at
//! `--jobs 1` and `--jobs N`, and two runs of the same plan fault the same
//! sequents.
//!
//! The load-bearing invariant, enforced by the chaos suite: **faults only
//! degrade**.  Every injection turns a would-be verdict into
//! `Crashed`/`Unknown`/an I/O error; no site can fabricate `Proved`, so a
//! faulted run's proved set is always a subset of the fault-free run's.
//!
//! ## Plan format
//!
//! `ipl verify --fault-plan SPEC` (or `IPL_FAULT_PLAN=SPEC`) parses a
//! comma-separated `key=value` list.  Probabilities are percentages (floats
//! allowed); `default` loads the standard chaos plan (1% panics, 5% delays,
//! seeded store faults) and later keys override it:
//!
//! ```text
//! seed=42,panic=1,delay=5,delay_ms=1,spurious=0.5,short_write=5,disk_full=1,lock_fail=1
//! default,seed=7
//! ```

/// Granularity of the probability space: probabilities are quantized to
/// basis points (1/100 of a percent), so parsed percentages are exact.
const BASIS: u64 = 10_000;

/// A seeded, deterministic fault-injection plan.  All probability fields are
/// in basis points (`100` = 1%); a zero field never fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Probability that a prover-stage dispatch panics (contained by the
    /// cascade into `Outcome::Crashed`).
    pub stage_panic_bp: u32,
    /// Probability that a stage dispatch is delayed by [`delay_ms`](Self::delay_ms).
    pub delay_bp: u32,
    /// Length of an injected delay, milliseconds.
    pub delay_ms: u64,
    /// Probability that a stage is skipped with a spurious `Unknown` verdict
    /// (models a flaky prover giving up early).
    pub spurious_unknown_bp: u32,
    /// Probability that a store append tears mid-write (a prefix of the
    /// batch reaches disk, then the write errors — the torn-tail recovery
    /// path on the next open).
    pub store_short_write_bp: u32,
    /// Probability that a store append fails with disk-full before writing.
    pub store_disk_full_bp: u32,
    /// Probability that acquiring the advisory file lock for a store append
    /// reports `Unsupported` (exercises the lock-free degradation path).
    pub store_lock_fail_bp: u32,
    /// Probability that the daemon drops a connection mid-response-frame
    /// (a partial frame reaches the client, then the connection is severed —
    /// models a flaky network or a client vanishing mid-read).
    pub serve_conn_drop_bp: u32,
    /// Probability that handling a serve request stalls for
    /// [`serve_stall_ms`](Self::serve_stall_ms) while holding its admission
    /// slot (models a slow client or a request that hogs a worker).
    pub serve_stall_bp: u32,
    /// Length of an injected serve stall, milliseconds.
    pub serve_stall_ms: u64,
    /// Probability that admission control reports the daemon as overloaded
    /// even when capacity is free (the request is answered with a typed
    /// `overloaded` frame and never dispatched).
    pub serve_overload_bp: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            stage_panic_bp: 0,
            delay_bp: 0,
            delay_ms: 1,
            spurious_unknown_bp: 0,
            store_short_write_bp: 0,
            store_disk_full_bp: 0,
            store_lock_fail_bp: 0,
            serve_conn_drop_bp: 0,
            serve_stall_bp: 0,
            serve_stall_ms: 1,
            serve_overload_bp: 0,
        }
    }
}

/// The standard chaos plan, the spec's `default` preset: 1% stage panics,
/// 5% injected delays, 0.5% spurious Unknowns, seeded store faults, and
/// connection-level serve faults (drops, stalls, spurious overload).
pub fn default_chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        stage_panic_bp: 100,
        delay_bp: 500,
        delay_ms: 1,
        spurious_unknown_bp: 50,
        store_short_write_bp: 500,
        store_disk_full_bp: 100,
        store_lock_fail_bp: 100,
        serve_conn_drop_bp: 100,
        serve_stall_bp: 100,
        serve_stall_ms: 1,
        serve_overload_bp: 100,
    }
}

impl FaultPlan {
    /// Parses the `key=value` plan format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if token == "default" {
                plan = default_chaos(plan.seed);
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault plan: `{token}` is not key=value"))?;
            let percent_bp = |v: &str| -> Result<u32, String> {
                let pct: f64 = v
                    .trim_end_matches('%')
                    .parse()
                    .map_err(|_| format!("fault plan: `{key}={v}` is not a percentage"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("fault plan: `{key}={v}` out of 0..=100"));
                }
                Ok((pct * 100.0).round() as u32)
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault plan: `seed={value}` is not an integer"))?;
                }
                "delay_ms" => {
                    plan.delay_ms = value
                        .parse()
                        .map_err(|_| format!("fault plan: `delay_ms={value}` is not an integer"))?;
                }
                "panic" => plan.stage_panic_bp = percent_bp(value)?,
                "delay" => plan.delay_bp = percent_bp(value)?,
                "spurious" => plan.spurious_unknown_bp = percent_bp(value)?,
                "short_write" => plan.store_short_write_bp = percent_bp(value)?,
                "disk_full" => plan.store_disk_full_bp = percent_bp(value)?,
                "lock_fail" => plan.store_lock_fail_bp = percent_bp(value)?,
                "conn_drop" => plan.serve_conn_drop_bp = percent_bp(value)?,
                "stall" => plan.serve_stall_bp = percent_bp(value)?,
                "stall_ms" => {
                    plan.serve_stall_ms = value
                        .parse()
                        .map_err(|_| format!("fault plan: `stall_ms={value}` is not an integer"))?;
                }
                "overload" => plan.serve_overload_bp = percent_bp(value)?,
                other => return Err(format!("fault plan: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// `true` when no fault can ever fire under this plan.
    pub fn is_zero(&self) -> bool {
        self.stage_panic_bp == 0
            && self.delay_bp == 0
            && self.spurious_unknown_bp == 0
            && self.store_short_write_bp == 0
            && self.store_disk_full_bp == 0
            && self.store_lock_fail_bp == 0
            && self.serve_conn_drop_bp == 0
            && self.serve_stall_bp == 0
            && self.serve_overload_bp == 0
    }

    /// The deterministic raw roll for one `(kind, site)` pair: a value in
    /// `0..BASIS` plus extra mixed bits for sites that need a second draw
    /// (e.g. the cut point of a short write).
    fn roll(&self, kind: &str, key: u64) -> u64 {
        // SplitMix64-style finalizer over the seed, the fault kind and the
        // content key; no shared state, so concurrent sites never interact.
        let mut x = self.seed ^ key;
        for byte in kind.bytes() {
            x = x
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(byte));
        }
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn hits(&self, kind: &str, key: u64, bp: u32) -> bool {
        bp > 0 && self.roll(kind, key) % BASIS < u64::from(bp)
    }

    /// The faults to inject around one prover-stage dispatch.
    pub fn stage_faults(&self, stage: &str, key: u64) -> StageFaults {
        let key = key ^ self.roll("stage", hash_str(stage));
        StageFaults {
            delay: self
                .hits("delay", key, self.delay_bp)
                .then_some(std::time::Duration::from_millis(self.delay_ms)),
            spurious_unknown: self.hits("spurious", key, self.spurious_unknown_bp),
            panic: self.hits("panic", key, self.stage_panic_bp),
        }
    }

    /// The fault to inject into one store append of `len` bytes, if any.
    pub fn store_append_fault(&self, key: u64, len: usize) -> Option<StoreFault> {
        if self.hits("disk_full", key, self.store_disk_full_bp) {
            return Some(StoreFault::DiskFull);
        }
        if self.hits("short_write", key, self.store_short_write_bp) {
            let cut = (self.roll("cut", key) as usize) % len.max(1);
            return Some(StoreFault::ShortWrite { cut });
        }
        None
    }

    /// Whether acquiring the store lock should report `Unsupported` for this
    /// site.
    pub fn store_lock_fails(&self, key: u64) -> bool {
        self.hits("lock_fail", key, self.store_lock_fail_bp)
    }

    /// The connection-level faults to inject around one serve request, keyed
    /// on the request's *content* (so the same plan drops/stalls/rejects the
    /// same requests regardless of connection scheduling).  Applied in field
    /// order: an overload rejection pre-empts a stall, which precedes the
    /// verification; the mid-frame drop fires on the response write.
    pub fn serve_faults(&self, key: u64) -> ServeFaults {
        ServeFaults {
            overload: self.hits("serve_overload", key, self.serve_overload_bp),
            stall: self
                .hits("serve_stall", key, self.serve_stall_bp)
                .then_some(std::time::Duration::from_millis(self.serve_stall_ms)),
            drop_mid_frame: self.hits("serve_conn_drop", key, self.serve_conn_drop_bp),
        }
    }
}

/// Decisions for one serve request (see [`FaultPlan::serve_faults`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeFaults {
    /// Answer the request with a typed `overloaded` frame without admitting
    /// it, even when capacity is free.
    pub overload: bool,
    /// Sleep this long while holding the admission slot before dispatching
    /// (models a request that hogs a worker).
    pub stall: Option<std::time::Duration>,
    /// Write only a prefix of the response frame, then sever the connection
    /// (the client sees a mid-frame disconnect; the daemon must tear down
    /// only that connection).
    pub drop_mid_frame: bool,
}

/// Decisions for one stage dispatch, applied in field order: delay first,
/// then a spurious skip, then (inside the containment boundary) a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFaults {
    /// Sleep this long before dispatching.
    pub delay: Option<std::time::Duration>,
    /// Skip the stage, reporting `Unknown` without running it.
    pub spurious_unknown: bool,
    /// Panic inside the dispatch (exercises the containment boundary).
    pub panic: bool,
}

/// An injected store I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Write only the first `cut` bytes of the batch, then error — the torn
    /// write a crash or a full disk leaves behind.
    ShortWrite {
        /// Bytes of the batch that reach the file before the tear.
        cut: usize,
    },
    /// Fail before writing anything.
    DiskFull,
}

fn hash_str(s: &str) -> u64 {
    let mut x: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        x = (x ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_default_chaos_plan() {
        let parsed = FaultPlan::parse(
            "seed=42,panic=1,delay=5,delay_ms=1,spurious=0.5,short_write=5,disk_full=1,lock_fail=1,\
             conn_drop=1,stall=1,stall_ms=1,overload=1",
        )
        .unwrap();
        assert_eq!(parsed, default_chaos(42));
        assert_eq!(
            FaultPlan::parse("default,seed=42").unwrap(),
            default_chaos(42)
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert!(FaultPlan::parse("panic=200").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("stall_ms=x").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = default_chaos(1);
        let a = plan.stage_faults("smt-ground", 0xfeed);
        let b = plan.stage_faults("smt-ground", 0xfeed);
        assert_eq!(a, b, "same seed + site must decide identically");
        let mut differs = false;
        for key in 0..2_000u64 {
            if default_chaos(1).stage_faults("smt-ground", key)
                != default_chaos(2).stage_faults("smt-ground", key)
            {
                differs = true;
                break;
            }
        }
        assert!(differs, "different seeds must produce different storms");
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let plan = FaultPlan {
            seed: 9,
            stage_panic_bp: 1_000, // 10%
            ..FaultPlan::default()
        };
        let hits = (0..10_000u64)
            .filter(|&key| plan.stage_faults("stage", key).panic)
            .count();
        assert!(
            (700..=1_300).contains(&hits),
            "10% nominal rate hit {hits}/10000 times"
        );
    }

    #[test]
    fn zero_plan_never_fires() {
        let plan = FaultPlan::default();
        assert!(plan.is_zero());
        for key in 0..500 {
            let faults = plan.stage_faults("any", key);
            assert!(!faults.panic && !faults.spurious_unknown && faults.delay.is_none());
            assert_eq!(plan.store_append_fault(key, 64), None);
            assert!(!plan.store_lock_fails(key));
            let serve = plan.serve_faults(key);
            assert!(!serve.overload && !serve.drop_mid_frame && serve.stall.is_none());
        }
    }

    #[test]
    fn serve_fault_decisions_are_deterministic_and_content_keyed() {
        let plan = FaultPlan {
            seed: 11,
            serve_overload_bp: 2_000,
            serve_conn_drop_bp: 2_000,
            serve_stall_bp: 2_000,
            serve_stall_ms: 3,
            ..FaultPlan::default()
        };
        for key in 0..200u64 {
            assert_eq!(plan.serve_faults(key), plan.serve_faults(key));
        }
        // The three kinds roll independently: over a window some keys must
        // hit exactly one of them.
        let mixed = (0..2_000u64)
            .map(|k| plan.serve_faults(k))
            .filter(|f| f.overload != f.drop_mid_frame)
            .count();
        assert!(mixed > 0, "kinds must not be perfectly correlated");
        let stalled = (0..2_000u64)
            .filter(|&k| plan.serve_faults(k).stall.is_some())
            .count();
        assert!((100..=800).contains(&stalled), "20% nominal hit {stalled}");
    }
}

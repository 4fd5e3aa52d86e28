//! Tiered spin backoff for bounded retry loops.
//!
//! The executor's MAP fragmentation ladder retries a volatile placement
//! a bounded number of times ([`Retry`], budgeted by [`RetryPolicy`]),
//! servicing RA/CQ between attempts. An unconditional `yield_now` per
//! attempt costs a syscall each round and floods the scheduler when many
//! workers retry at once; pure spinning burns a core while a peer needs
//! it to make progress. [`Backoff`] escalates through three tiers
//! instead:
//!
//! 1. a bounded run of [`core::hint::spin_loop`] hints (cheap, keeps the
//!    wait on-core while the expected latency is a few cache misses),
//! 2. a bounded run of [`std::thread::yield_now`] (lets a runnable peer
//!    take the core),
//! 3. short [`std::thread::park_timeout`] naps (caps the busy-wait cost
//!    of long waits without risking a lost wakeup — the park is bounded,
//!    so no explicit unpark is required).
//!
//! Callers reset the backoff whenever they observe progress, which keeps
//! the common fast path in the spin tier.
//!
//! The executor's blocking protocol waits (REC, a full mailbox slot, END)
//! do not use this: they poll flat and then sleep on a
//! [`crate::rma::Doorbell`] that the peers ring.

use std::time::Duration;

/// Escalating wait strategy: spin → yield → bounded park.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

/// Iterations spent in the spin-hint tier before yielding.
const SPIN_LIMIT: u32 = 6;
/// Iterations spent yielding before parking.
const YIELD_LIMIT: u32 = 16;
/// Length of one bounded park in the final tier.
const PARK: Duration = Duration::from_micros(50);

impl Backoff {
    /// A fresh backoff in the spin tier.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Return to the spin tier (call after observing progress).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Is the backoff past the spin tiers (i.e. waits now park)?
    #[inline]
    pub fn is_parking(&self) -> bool {
        self.step >= SPIN_LIMIT + YIELD_LIMIT
    }

    /// Wait once, escalating the tier. Exponential spin-hint runs while
    /// in the first tier, a single `yield_now` in the second, a bounded
    /// park in the third.
    #[inline]
    pub fn wait(&mut self) {
        if self.step < SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                core::hint::spin_loop();
            }
        } else if self.step < SPIN_LIMIT + YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(PARK);
        }
        if !self.is_parking() {
            self.step += 1;
        }
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

/// A bounded retry loop: couples a [`Backoff`] with an attempt cap, for
/// waits that must eventually give up and surface a typed error rather
/// than spin forever — e.g. the executor's MAP-time response to a
/// transiently fragmented arena.
#[derive(Debug)]
pub struct Retry {
    backoff: Backoff,
    attempts: u32,
    limit: u32,
}

impl Retry {
    /// Retry up to `limit` more times after the initial attempt.
    pub fn new(limit: u32) -> Self {
        Retry { backoff: Backoff::new(), attempts: 0, limit }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Wait once (escalating the backoff tier) and report whether another
    /// attempt is allowed. Returns `false` once the cap is exhausted —
    /// without waiting — so the caller can surface its error promptly.
    pub fn again(&mut self) -> bool {
        if self.attempts >= self.limit {
            return false;
        }
        self.attempts += 1;
        self.backoff.wait();
        true
    }
}

/// Per-site retry budgets for the executor's recovery ladder: how many
/// times each class of transient failure may be retried (with tiered
/// [`Backoff`] between attempts, via [`Retry`]) before it escalates to
/// the next rung — window rollback, and ultimately a typed
/// `Unrecoverable` error naming the exhausted budget.
///
/// The budgets are deliberately plain data: the executor consults them
/// at the matching injection/failure sites, so a given `(fault seed,
/// scenario, plan)` triple always exhausts a budget at the same draw,
/// which is what makes recovery decisions reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per MAP-time volatile allocation before the window is
    /// truncated or rolled back (the innermost rung).
    pub alloc_attempts: u32,
    /// Attempts per mailbox hand-off treated as rejected before the
    /// send suspends into the CQ path.
    pub mailbox_attempts: u32,
    /// Re-executions per window (rollback + replay) before the run
    /// fails with `Unrecoverable`.
    pub window_attempts: u32,
}

impl RetryPolicy {
    /// Default budgets: generous enough that every budgeted fault
    /// scenario drains its injection budget before the ladder gives up.
    pub const fn new() -> Self {
        RetryPolicy { alloc_attempts: 8, mailbox_attempts: 8, window_attempts: 24 }
    }

    /// A bounded retry loop over the MAP-allocation budget.
    pub fn alloc_retry(&self) -> Retry {
        Retry::new(self.alloc_attempts)
    }

    /// A bounded retry loop over the mailbox hand-off budget.
    pub fn mailbox_retry(&self) -> Retry {
        Retry::new(self.mailbox_attempts)
    }

    /// A bounded retry loop over the per-window re-execution budget.
    pub fn window_retry(&self) -> Retry {
        Retry::new(self.window_attempts)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_parking_and_resets() {
        let mut b = Backoff::new();
        assert!(!b.is_parking());
        for _ in 0..(SPIN_LIMIT + YIELD_LIMIT) {
            assert!(!b.is_parking());
            b.wait();
        }
        assert!(b.is_parking());
        // Parking waits stay in the parking tier.
        b.wait();
        assert!(b.is_parking());
        b.reset();
        assert!(!b.is_parking());
    }

    #[test]
    fn retry_caps_attempts() {
        let mut r = Retry::new(3);
        let mut n = 0;
        while r.again() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(r.attempts(), 3);
        assert!(!r.again(), "exhausted retry stays exhausted");
        let mut zero = Retry::new(0);
        assert!(!zero.again(), "zero-limit retry allows no attempts");
    }

    #[test]
    fn retry_policy_budgets_are_independent() {
        let p = RetryPolicy { alloc_attempts: 2, mailbox_attempts: 0, window_attempts: 1 };
        let mut alloc = p.alloc_retry();
        assert!(alloc.again());
        assert!(alloc.again());
        assert!(!alloc.again());
        assert!(!p.mailbox_retry().again(), "zero budget allows no attempts");
        let mut w = p.window_retry();
        assert!(w.again());
        assert!(!w.again());
        assert_eq!(RetryPolicy::default(), RetryPolicy::new());
    }

    #[test]
    fn parked_wait_is_bounded() {
        let mut b = Backoff::new();
        while !b.is_parking() {
            b.wait();
        }
        let t0 = std::time::Instant::now();
        b.wait();
        // A bounded park returns promptly even with no unpark (generous
        // bound: scheduler jitter).
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}

//! Shared-memory remote-memory-access (RMA) windows.
//!
//! On the Cray-T3D, `SHMEM_PUT` deposits data directly into a remote
//! processor's user space — no buffering, no handshake — provided the
//! remote address is known in advance. The threaded executor reproduces
//! those semantics on shared memory: every simulated processor owns an
//! [`RmaHeap`] (a fixed slab of `f64` cells), and a sender writes into the
//! receiver's heap at an offset it learned from an address package, then
//! raises an arrival flag with `Release` ordering. The receiver spins on
//! the flag with `Acquire` before reading.
//!
//! ## Safety protocol
//!
//! The heap cells are `UnsafeCell`s; Rust cannot see the happens-before
//! edges the execution protocol provides, so the put/read primitives are
//! `unsafe` with the following contract (this is exactly the paper's
//! dependence-completeness argument, Theorem 1):
//!
//! 1. A range is written by at most one thread at a time, and never
//!    concurrently with a reader.
//! 2. Writers publish with [`FlagBoard::raise`] (Release) after the last
//!    store; readers call [`FlagBoard::is_raised`] (Acquire) before the
//!    first load.
//! 3. Ranges handed out by one `Arena` never overlap while live.
//!
//! Graphs produced by the inspector are dependence-complete, which makes
//! (1) hold for every schedule the runtime executes.

// sync-audit: `FlagBoard` is the publication edge for one-sided RMA puts —
// `raise` is a Release `fetch_add` (publishes every heap store sequenced
// before it), `is_raised` an Acquire load. The payload-publication protocol
// (including guarded re-execution after recovery) is model-checked
// exhaustively by `rapid_sync::models::sentguard` (see DESIGN.md §16).
// `Doorbell` is a Dekker handshake: the sleeper's announce store and the
// ringer's `sleeping` load are each followed/preceded by a SeqCst fence, and
// the retract store is Relaxed by design (a stale 1 costs one spurious
// unpark, never a lost wake-up). The real type is driven through the shim by
// the doorbell model in `rapid-sync/tests/model_check.rs` (DESIGN.md §16).

use rapid_sync::{sync_fence, Ordering, SyncAtomicU32};
use std::cell::UnsafeCell;
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Duration;

/// A fixed slab of `f64` cells writable from remote threads.
pub struct RmaHeap {
    cells: Box<[UnsafeCell<f64>]>,
}

// SAFETY: all aliasing is controlled by the execution protocol documented
// above; the type itself only hands out raw access through `unsafe` fns.
unsafe impl Sync for RmaHeap {}
unsafe impl Send for RmaHeap {}

impl RmaHeap {
    /// A heap of `capacity` units, zero-initialized.
    pub fn new(capacity: u64) -> Self {
        let cells = (0..capacity).map(|_| UnsafeCell::new(0.0)).collect();
        RmaHeap { cells }
    }

    /// Capacity in units.
    pub fn capacity(&self) -> u64 {
        self.cells.len() as u64
    }

    /// One-sided put: copy `src` into `[off, off + src.len())`.
    ///
    /// # Safety
    /// Caller must hold exclusive access to the range per the module
    /// protocol (no concurrent reader or writer of any overlapping range).
    #[inline]
    pub unsafe fn put(&self, off: u64, src: &[f64]) {
        debug_assert!(off + src.len() as u64 <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too) and exclusively owned per the module protocol, so the
        // offset stays inside the allocation and the copy cannot race.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize);
            std::ptr::copy_nonoverlapping(src.as_ptr(), base as *mut f64, src.len());
        }
    }

    /// Read `[off, off + dst.len())` into `dst`.
    ///
    /// # Safety
    /// No thread may be writing any overlapping range; the caller must
    /// have observed the writer's Release flag with Acquire first.
    #[inline]
    pub unsafe fn read(&self, off: u64, dst: &mut [f64]) {
        debug_assert!(off + dst.len() as u64 <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too); the caller observed the writer's Release flag, so no
        // writer overlaps this copy.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize);
            std::ptr::copy_nonoverlapping(base as *const f64, dst.as_mut_ptr(), dst.len());
        }
    }

    /// Mutable view of a range for local computation.
    ///
    /// # Safety
    /// Exclusive access to the range per the module protocol for the
    /// lifetime of the returned slice.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, off: u64, len: u64) -> &mut [f64] {
        debug_assert!(off + len <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too) and the caller holds exclusive access for the
        // returned lifetime, so no aliasing view can exist.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize) as *mut f64;
            std::slice::from_raw_parts_mut(base, len as usize)
        }
    }

    /// Shared view of a range.
    ///
    /// # Safety
    /// No concurrent writer of any overlapping range.
    #[inline]
    pub unsafe fn slice(&self, off: u64, len: u64) -> &[f64] {
        debug_assert!(off + len <= self.capacity());
        // SAFETY: range is in bounds (debug-asserted; callers uphold it in
        // release too) and no writer overlaps it for the returned lifetime
        // per the module protocol.
        unsafe {
            let base = self.cells.as_ptr().add(off as usize) as *const f64;
            std::slice::from_raw_parts(base, len as usize)
        }
    }
}

/// Arrival flags: one counter per cross-processor dependence edge (or any
/// other static token), raised by the sender after its put and polled by
/// the receiver. A counter (not a bool) so that tests can detect double
/// raises.
pub struct FlagBoard {
    flags: Box<[SyncAtomicU32]>,
}

impl FlagBoard {
    /// Board of `n` flags, all lowered.
    pub fn new(n: usize) -> Self {
        FlagBoard { flags: (0..n).map(|_| SyncAtomicU32::new(0)).collect() }
    }

    /// Raise flag `i` (Release): publishes every store sequenced before it.
    #[inline]
    pub fn raise(&self, i: usize) {
        self.flags[i].fetch_add(1, Ordering::Release);
    }

    /// Has flag `i` been raised (Acquire)? Synchronizes with the raiser.
    #[inline]
    pub fn is_raised(&self, i: usize) -> bool {
        self.flags[i].load(Ordering::Acquire) > 0
    }

    /// Name flag `i` in model-check counterexample traces.
    #[cfg(any(debug_assertions, rapid_model_check))]
    pub fn label(&self, i: usize, name: &str) {
        self.flags[i].label(name);
    }

    /// Raw counter value (tests).
    pub fn count(&self, i: usize) -> u32 {
        self.flags[i].load(Ordering::Acquire)
    }

    /// Number of flags raised at least once — a cheap progress indicator
    /// for stall diagnostics (how many messages have arrived so far).
    pub fn raised_count(&self) -> usize {
        self.flags.iter().filter(|f| f.load(Ordering::Acquire) > 0).count()
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True when the board has no flags.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

/// A processor's wake-up bell: lets a worker that has run out of local
/// work sleep instead of polling, and lets the peers whose publications
/// could unblock it (a raised arrival flag, a handed-off or drained
/// address package) wake it.
///
/// The handshake is Dekker's, so a ring that lands while the sleeper is
/// deciding is never lost:
///
/// - **Sleeper** (the one thread bound with [`Doorbell::bind`]):
///   [`Doorbell::announce`] (store `sleeping`, SeqCst fence), re-check the
///   wake condition once, then [`Doorbell::sleep`] if it still holds or
///   [`Doorbell::retract`] if it does not. A ring that lands between the
///   re-check and the park leaves `std`'s park token set, so the park
///   returns at once.
/// - **Ringer**: publish first (for example [`FlagBoard::raise`], a Release
///   RMW), then [`Doorbell::ring`] (SeqCst fence, load `sleeping`, unpark
///   only when it is set). A ring to a bell nobody sleeps on is one fence
///   and one plain load.
///
/// The sleep is bounded by a timeout, so a ring that never comes costs
/// latency, not liveness. Each bell sits on its own cache line: the
/// sleeper writes its word while every peer reads it.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Doorbell {
    sleeping: SyncAtomicU32,
    sleeper: OnceLock<Thread>,
    #[cfg(any(debug_assertions, rapid_model_check))]
    mutant: DoorbellMutant,
}

/// A fence the doorbell model's mutants delete (model checking only: the
/// shipped handshake is [`DoorbellMutant::None`]).
#[cfg(any(debug_assertions, rapid_model_check))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DoorbellMutant {
    /// The shipped handshake, both fences in place.
    #[default]
    None,
    /// [`Doorbell::ring`] loads `sleeping` without its SeqCst fence.
    RingerNoFence,
    /// [`Doorbell::announce`] stores `sleeping` without its SeqCst fence.
    SleeperNoFence,
}

/// The doorbell's seeded mutation corpus: every entry must be refuted by
/// the model checker with a lost wake-up.
#[cfg(any(debug_assertions, rapid_model_check))]
pub const DOORBELL_MUTANTS: [(&str, DoorbellMutant); 2] = [
    ("doorbell-ringer-no-fence", DoorbellMutant::RingerNoFence),
    ("doorbell-sleeper-no-fence", DoorbellMutant::SleeperNoFence),
];

impl Doorbell {
    /// A bell nobody sleeps on yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bell running `mutant`'s handshake, for the model checker's
    /// mutation corpus.
    #[cfg(any(debug_assertions, rapid_model_check))]
    pub fn with_mutant(mutant: DoorbellMutant) -> Self {
        Doorbell { mutant, ..Self::default() }
    }

    /// Name the bell's word in model-check counterexample traces (call
    /// once the bell is at its final address).
    #[cfg(any(debug_assertions, rapid_model_check))]
    pub fn label(&self, name: &str) {
        self.sleeping.label(name);
    }

    /// Is the fence on this side of the handshake in place?
    #[inline(always)]
    fn fenced(&self, ringer: bool) -> bool {
        #[cfg(any(debug_assertions, rapid_model_check))]
        {
            let cut =
                if ringer { DoorbellMutant::RingerNoFence } else { DoorbellMutant::SleeperNoFence };
            self.mutant != cut
        }
        #[cfg(not(any(debug_assertions, rapid_model_check)))]
        {
            let _ = ringer;
            true
        }
    }

    /// Make the calling thread the bell's sleeper. Must precede its first
    /// [`Doorbell::announce`]; later calls are ignored.
    pub fn bind(&self) {
        let _ = self.sleeper.set(std::thread::current());
    }

    /// Sleeper, step 1: announce the intent to sleep. The caller must
    /// re-check its wake condition after this returns, then call
    /// [`Doorbell::sleep`] or [`Doorbell::retract`].
    #[inline]
    pub fn announce(&self) {
        // Release: a ringer that sees the announcement also sees the
        // binding that preceded it.
        self.sleeping.store(1, Ordering::Release);
        if self.fenced(false) {
            sync_fence(Ordering::SeqCst);
        }
    }

    /// Sleeper, step 2: park until rung or until `timeout` passes, then
    /// retract. Must be called on the bound thread.
    pub fn sleep(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
        self.retract();
    }

    /// Sleeper: withdraw the announcement (the re-check found work).
    #[inline]
    pub fn retract(&self) {
        self.sleeping.store(0, Ordering::Relaxed);
    }

    /// Ringer: wake the sleeper if it has announced. Call after the
    /// publication the sleeper waits on. Returns whether it found the
    /// sleeper announced (and so unparked it).
    #[inline]
    pub fn ring(&self) -> bool {
        if self.fenced(true) {
            sync_fence(Ordering::SeqCst);
        }
        if self.sleeping.load(Ordering::Acquire) == 0 {
            return false;
        }
        if let Some(t) = self.sleeper.get() {
            t.unpark();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn put_then_read_roundtrip() {
        let h = RmaHeap::new(16);
        let src = [1.0, 2.0, 3.0];
        unsafe {
            h.put(4, &src);
            let mut dst = [0.0; 3];
            h.read(4, &mut dst);
            assert_eq!(dst, src);
            assert_eq!(h.slice(4, 3), &src);
            h.slice_mut(4, 1)[0] = 9.0;
            assert_eq!(h.slice(4, 1)[0], 9.0);
        }
    }

    #[test]
    fn flags_count_raises() {
        let f = FlagBoard::new(3);
        assert!(!f.is_raised(1));
        f.raise(1);
        assert!(f.is_raised(1));
        assert!(!f.is_raised(0));
        f.raise(1);
        assert_eq!(f.count(1), 2);
        assert_eq!(f.len(), 3);
        assert_eq!(f.raised_count(), 1, "double raise counts one flag");
        f.raise(0);
        assert_eq!(f.raised_count(), 2);
    }

    #[test]
    fn cross_thread_put_is_published_by_flag() {
        // Classic message-passing litmus: the reader that observes the
        // flag must observe the payload.
        let heap = Arc::new(RmaHeap::new(1024));
        let flags = Arc::new(FlagBoard::new(1));
        let (h2, f2) = (Arc::clone(&heap), Arc::clone(&flags));
        let writer = std::thread::spawn(move || {
            let payload: Vec<f64> = (0..512).map(|i| i as f64 * 0.5).collect();
            unsafe { h2.put(100, &payload) };
            f2.raise(0);
        });
        while !flags.is_raised(0) {
            std::hint::spin_loop();
        }
        let got = unsafe { heap.slice(100, 512) };
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, i as f64 * 0.5);
        }
        writer.join().unwrap();
    }

    #[test]
    fn ring_before_sleep_returns_at_once() {
        let bell = Doorbell::new();
        bell.bind();
        bell.announce();
        assert!(bell.ring(), "an announced sleeper is rung");
        let t0 = Instant::now();
        bell.sleep(Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(5), "the park token must end the sleep");
        assert!(!bell.ring(), "sleep retracts the announcement");
    }

    #[test]
    fn unrung_sleep_returns_within_its_timeout() {
        let bell = Doorbell::new();
        bell.bind();
        bell.announce();
        let t0 = Instant::now();
        bell.sleep(Duration::from_millis(20));
        // Generous upper bound: timer slack and a loaded host.
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn ring_to_a_bell_nobody_sleeps_on_costs_no_unpark() {
        let bell = Doorbell::new();
        assert!(!bell.ring(), "unbound, unannounced: nothing to unpark");
        bell.bind();
        assert!(!bell.ring(), "bound but not announced: nothing to unpark");
        bell.announce();
        bell.retract();
        assert!(!bell.ring(), "a retracted announcement is not rung");
    }
}

//! Per-fingerprint staging latches: single-flight specialization.
//!
//! When many concurrent requests arrive for an invariant whose cache is not
//! yet staged, exactly one of them should run the loader; the rest must
//! neither duplicate the work nor serialize behind a global lock. The
//! [`LatchTable`] provides that coordination: a sharded map from layout
//! fingerprint to a tiny shared/exclusive latch, in the lock-table idiom of
//! embedded storage engines.
//!
//! - **Shared** latches coexist: any number of readers of the same
//!   fingerprint proceed together.
//! - An **exclusive** latch excludes everything on that fingerprint: one
//!   stager runs the loader while late arrivals block on a shared latch and
//!   wake when the stager drops its guard.
//! - Distinct fingerprints never contend beyond their hash shard: staging
//!   invariant A does not slow serving invariant B.
//!
//! Only store misses use the table: a hit serves an immutable sealed entry,
//! which needs no exclusion, so it takes no latch at all. A release
//! signals the shard's condition variable only when a thread waits on that
//! fingerprint.
//!
//! Latches are address-free — a fingerprint needs no prior registration,
//! and a latch entry exists only while someone holds or waits on it, so
//! the table's footprint is bounded by concurrency, not by history.
//!
//! Guards release on `Drop`, so a panic inside a staging critical section
//! still wakes waiters (the mutex-poison flag is deliberately ignored: the
//! latch protects *admission to work*, not data, and the store underneath
//! does its own integrity checking).

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, PoisonError};

/// Number of independent shards. Contention on the table itself (not on a
/// fingerprint) only occurs between fingerprints hashing to the same shard.
const SHARDS: usize = 16;

/// Latch entries each shard has room for before its map must grow. Live
/// entries are bounded by the number of threads staging or waiting at
/// once, so a few per shard cover the daemon's worker counts.
const SHARD_ROOM: usize = 4;

/// Latch state for one fingerprint, alive only while held or waited on.
#[derive(Debug, Default)]
struct Entry {
    /// Number of shared holders.
    shared: u32,
    /// Whether an exclusive holder exists (excludes all others).
    exclusive: bool,
    /// Number of threads blocked on this entry, pinning it in the map.
    waiters: u32,
}

#[derive(Debug)]
struct Shard {
    state: Mutex<HashMap<u64, Entry>>,
    cv: Condvar,
}

/// A sharded table of per-fingerprint shared/exclusive latches.
///
/// See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct LatchTable {
    shards: Vec<Shard>,
}

impl Default for LatchTable {
    fn default() -> Self {
        LatchTable::new()
    }
}

impl LatchTable {
    /// Creates an empty table. Every shard's map is allocated here, on the
    /// thread that builds the table (and, under the daemon, later drops
    /// it), so taking and releasing latches on worker threads does not
    /// allocate; see the [`daemon`](crate::daemon) module docs on memory.
    pub fn new() -> LatchTable {
        LatchTable {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(HashMap::with_capacity(SHARD_ROOM)),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, fp: u64) -> &Shard {
        // Fingerprints are already well-mixed hashes; fold the high bits in
        // anyway so a biased low byte cannot collapse the table to one shard.
        &self.shards[((fp ^ (fp >> 32)) as usize) % SHARDS]
    }

    /// Acquires a shared latch on `fp`, blocking while an exclusive holder
    /// exists.
    pub fn shared(&self, fp: u64) -> SharedLatch<'_> {
        let shard = self.shard(fp);
        let mut state = lock(&shard.state);
        loop {
            let entry = state.entry(fp).or_default();
            if !entry.exclusive {
                entry.shared += 1;
                return SharedLatch { table: self, fp };
            }
            entry.waiters += 1;
            state = lock_wait(&shard.cv, state);
            unpin(&mut state, fp);
        }
    }

    /// Acquires an exclusive latch on `fp`, blocking while any holder
    /// (shared or exclusive) exists.
    pub fn exclusive(&self, fp: u64) -> ExclusiveLatch<'_> {
        let shard = self.shard(fp);
        let mut state = lock(&shard.state);
        loop {
            let entry = state.entry(fp).or_default();
            if !entry.exclusive && entry.shared == 0 {
                entry.exclusive = true;
                return ExclusiveLatch { table: self, fp };
            }
            entry.waiters += 1;
            state = lock_wait(&shard.cv, state);
            unpin(&mut state, fp);
        }
    }

    /// Tries to acquire an exclusive latch on `fp` without blocking.
    ///
    /// `None` means someone else holds the latch — for the staging
    /// protocol, that the fingerprint already has a stager in flight and
    /// the caller should wait for it (via [`LatchTable::shared`]) instead
    /// of duplicating the load.
    pub fn try_exclusive(&self, fp: u64) -> Option<ExclusiveLatch<'_>> {
        let shard = self.shard(fp);
        let mut state = lock(&shard.state);
        let entry = state.entry(fp).or_default();
        if !entry.exclusive && entry.shared == 0 {
            entry.exclusive = true;
            Some(ExclusiveLatch { table: self, fp })
        } else {
            if entry.shared == 0 && !entry.exclusive && entry.waiters == 0 {
                state.remove(&fp);
            }
            None
        }
    }

    /// Number of live latch entries (held or waited on), for tests and
    /// leak detection: an idle table is empty.
    pub fn live_entries(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.state).len()).sum()
    }

    fn release_shared(&self, fp: u64) {
        let shard = self.shard(fp);
        let mut state = lock(&shard.state);
        let entry = state.get_mut(&fp).expect("released latch must exist");
        entry.shared -= 1;
        if entry.shared > 0 {
            return;
        }
        // Notify only when someone waits on `fp`: a notify is a futex
        // syscall even with no waiter.
        if entry.waiters > 0 {
            shard.cv.notify_all();
        } else {
            state.remove(&fp);
        }
    }

    fn release_exclusive(&self, fp: u64) {
        let shard = self.shard(fp);
        let mut state = lock(&shard.state);
        let entry = state.get_mut(&fp).expect("released latch must exist");
        entry.exclusive = false;
        if entry.waiters > 0 {
            shard.cv.notify_all();
        } else {
            state.remove(&fp);
        }
    }
}

/// Locks ignoring poison: a panicking holder already released its latch
/// via its guard's `Drop`, so the map is consistent.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_wait<'a, T>(cv: &Condvar, g: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Drops one waiter pin after waking, removing the entry if it is now idle.
fn unpin(state: &mut HashMap<u64, Entry>, fp: u64) {
    if let Some(entry) = state.get_mut(&fp) {
        entry.waiters -= 1;
        if entry.shared == 0 && !entry.exclusive && entry.waiters == 0 {
            state.remove(&fp);
        }
    }
}

/// A held shared latch; releases (and wakes waiters) on drop.
#[derive(Debug)]
pub struct SharedLatch<'a> {
    table: &'a LatchTable,
    fp: u64,
}

impl Drop for SharedLatch<'_> {
    fn drop(&mut self) {
        self.table.release_shared(self.fp);
    }
}

/// A held exclusive latch; releases (and wakes waiters) on drop.
#[derive(Debug)]
pub struct ExclusiveLatch<'a> {
    table: &'a LatchTable,
    fp: u64,
}

impl Drop for ExclusiveLatch<'_> {
    fn drop(&mut self) {
        self.table.release_exclusive(self.fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn shared_latches_coexist_and_clean_up() {
        let table = LatchTable::new();
        let a = table.shared(7);
        let b = table.shared(7);
        let c = table.shared(8);
        assert_eq!(table.live_entries(), 2);
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(table.live_entries(), 0, "idle table must hold no entries");
    }

    #[test]
    fn exclusive_excludes_shared_until_dropped() {
        let table = Arc::new(LatchTable::new());
        let guard = table.exclusive(42);
        let acquired = Arc::new(AtomicU32::new(0));
        let handle = {
            let (table, acquired) = (Arc::clone(&table), Arc::clone(&acquired));
            std::thread::spawn(move || {
                let _s = table.shared(42);
                acquired.store(1, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            acquired.load(Ordering::SeqCst),
            0,
            "shared must block behind exclusive"
        );
        drop(guard);
        handle.join().unwrap();
        assert_eq!(acquired.load(Ordering::SeqCst), 1);
        assert_eq!(table.live_entries(), 0);
    }

    #[test]
    fn try_exclusive_reports_a_stager_in_flight() {
        let table = LatchTable::new();
        let first = table.try_exclusive(9).expect("uncontended");
        assert!(table.try_exclusive(9).is_none(), "second stager must lose");
        let other = table.try_exclusive(10);
        assert!(other.is_some(), "other fingerprints are unaffected");
        drop(first);
        assert!(table.try_exclusive(9).is_some());
    }

    #[test]
    fn racing_threads_stage_exactly_once() {
        // The single-flight protocol: probe a "store", try-exclusive to
        // stage, or wait shared and re-probe. Under N racing threads the
        // expensive staging body must run exactly once.
        let table = Arc::new(LatchTable::new());
        let staged = Arc::new(AtomicU32::new(0));
        let stage_runs = Arc::new(AtomicU32::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let table = Arc::clone(&table);
                let staged = Arc::clone(&staged);
                let stage_runs = Arc::clone(&stage_runs);
                let served = Arc::clone(&served);
                std::thread::spawn(move || loop {
                    if staged.load(Ordering::SeqCst) == 1 {
                        let _g = table.shared(5);
                        assert_eq!(staged.load(Ordering::SeqCst), 1);
                        served.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    match table.try_exclusive(5) {
                        Some(_g) => {
                            stage_runs.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(20));
                            staged.store(1, Ordering::SeqCst);
                            served.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                        None => {
                            let _wait = table.shared(5);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stage_runs.load(Ordering::SeqCst), 1, "single-flight");
        assert_eq!(served.load(Ordering::SeqCst), 16, "everyone answered");
        assert_eq!(table.live_entries(), 0);
    }

    #[test]
    fn randomized_acquire_order_never_deadlocks() {
        // 8 threads × 200 iterations over 4 fingerprints, mixing shared /
        // exclusive / try_exclusive in a seeded-random order. Latches are
        // acquired one at a time (the daemon never holds two), so the only
        // deadlock risk is a lost wakeup — which this would hang on.
        let table = Arc::new(LatchTable::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut rng = crate::FaultInjector::new(0xD00D + t as u64);
                    for _ in 0..200 {
                        let fp = rng.pick(4);
                        match rng.pick(3) {
                            0 => {
                                let _g = table.shared(fp);
                            }
                            1 => {
                                let _g = table.exclusive(fp);
                            }
                            _ => {
                                let _g = table.try_exclusive(fp);
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(table.live_entries(), 0);
    }
}

//! LRU boundary behavior of the polyvariant [`CacheStore`]: degenerate
//! capacities, eviction at a realistic capacity, eviction racing a hit,
//! and invalidation or replacement racing a hit.
//!
//! A hit shares the sealed entry out under the shard lock (an `Arc`), so
//! every "race" here can be driven deterministically by sequencing the
//! operations the way two workers would interleave them — no loom, no
//! timing dependence.
//! Damage comes from the existing seeded fault hooks ([`FaultInjector`]),
//! so each scenario replays identically.

use ds_interp::{CacheBuf, Value};
use ds_runtime::{CacheStore, FaultInjector, StoreEntry};
use std::sync::Arc;

fn entry(n: i64) -> StoreEntry {
    let mut cache = CacheBuf::new(1);
    cache.set(0, Value::Int(n));
    let seal = cache.content_hash();
    StoreEntry { cache, seal }
}

#[test]
fn capacity_zero_clamps_to_one_entry() {
    let store = CacheStore::new(0);
    assert_eq!(store.capacity(), 1, "capacity 0 is clamped, not honored");
    assert_eq!(store.insert(1, entry(1)), 0);
    assert_eq!(store.len(), 1);
    // A second fingerprint must evict the first, never grow past one.
    assert_eq!(store.insert(2, entry(2)), 1);
    assert_eq!(store.len(), 1);
    assert!(store.get(1).is_none());
    assert!(store.get(2).is_some());
}

#[test]
fn capacity_one_keeps_the_most_recent_fingerprint() {
    let store = CacheStore::new(1);
    assert_eq!(store.capacity(), 1);
    let mut evictions = 0;
    for fp in [3u64, 9, 3, 9, 3] {
        if store.get(fp).is_none() {
            evictions += store.insert(fp, entry(fp as i64));
        }
    }
    // Every fingerprint switch evicts the previous occupant; the final
    // occupant is whoever was inserted last.
    assert_eq!(evictions, 4);
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(3).unwrap().cache.get(0), Some(Value::Int(3)));
    // Re-sealing under the resident fingerprint replaces in place.
    assert_eq!(store.insert(3, entry(33)), 0);
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(3).unwrap().cache.get(0), Some(Value::Int(33)));
}

/// A worker shares an entry out, then other workers' inserts evict that
/// fingerprint. The held entry must stay intact and seal-valid — eviction
/// can never tear an execution that already holds it.
#[test]
fn eviction_does_not_damage_a_held_entry() {
    let store = CacheStore::new(2);
    store.insert(1, entry(10));
    store.insert(2, entry(20));

    let held = store.get(1).expect("hit before eviction");

    // Two fresh fingerprints push both residents out (capacity 2).
    let evicted = store.insert(3, entry(30)) + store.insert(4, entry(40));
    assert_eq!(evicted, 2, "both earlier entries evicted");
    assert!(
        store.get(1).is_none(),
        "fingerprint 1 is gone from the store"
    );

    // The held entry is untouched: same value, seal still matches.
    assert_eq!(held.cache.get(0), Some(Value::Int(10)));
    assert_eq!(held.seal, held.cache.content_hash());

    // The worker can re-seed the store from its intact entry.
    assert_eq!(store.insert(1, entry(10)), 1);
    assert_eq!(store.get(1).unwrap().cache.get(0), Some(Value::Int(10)));
}

/// Worker A shares an entry out (a hit); worker B finds its own copy fails
/// seal validation and invalidates the fingerprint. A's copy must remain
/// usable, the store must miss afterwards, and only one invalidation wins.
#[test]
fn invalidation_racing_a_hit_leaves_the_hit_intact() {
    let store = CacheStore::new(4);

    // Seed a damaged entry: corrupt the slot value after sealing, exactly
    // like the corrupt-slot fault does on the loader's write path.
    let injector = FaultInjector::new(7);
    let good = entry(42);
    let mut bad = good.clone();
    bad.cache.set(0, injector.corrupt(Value::Int(42)));
    assert_ne!(
        bad.seal,
        bad.cache.content_hash(),
        "corruption must break the seal"
    );
    store.insert(7, bad);

    // Worker A hits and shares the (damaged) entry out.
    let held = store.get(7).expect("hit");

    // Worker B detects the seal mismatch on its own copy and invalidates.
    assert!(store.invalidate(7), "first invalidation wins");
    // Worker A, acting on the same detection, loses the race benignly.
    assert!(!store.invalidate(7), "second invalidation is a no-op");
    assert!(store.get(7).is_none(), "damaged entry cannot be re-served");
    assert_eq!(store.len(), 0);

    // A's entry is unchanged by the invalidation: still the damaged bytes
    // it was handed, and its own validation still detects the damage.
    assert_ne!(held.seal, held.cache.content_hash());

    // Recovery: a rebuilt, healthy entry is served normally afterwards.
    store.insert(7, entry(42));
    let fresh = store.get(7).expect("rebuilt entry hits");
    assert_eq!(fresh.seal, fresh.cache.content_hash());
    assert_eq!(fresh.cache.get(0), Some(Value::Int(42)));
}

/// Invalidation under eviction pressure: invalidating a fingerprint that
/// eviction already removed must not double-decrement the length.
#[test]
fn invalidate_after_eviction_is_a_clean_miss() {
    let store = CacheStore::new(1);
    store.insert(1, entry(1));
    assert_eq!(store.insert(2, entry(2)), 1, "fp 1 evicted");
    assert!(!store.invalidate(1), "already evicted");
    assert_eq!(store.len(), 1);
    assert!(store.get(2).is_some());
}

/// A capacity-3072 store (one entry per pixel of a 64×48 frame) takes
/// 3100 fingerprints: exactly the 28 oldest are evicted, across shards.
#[test]
fn a_per_pixel_store_evicts_exactly_the_least_recently_used() {
    let store = CacheStore::new(3072);
    let mut evicted = 0;
    for fp in 0..3072u64 {
        evicted += store.insert(fp, entry(fp as i64));
    }
    assert_eq!(evicted, 0, "filling to capacity never evicts");
    // Touch the 28 oldest so they are no longer the LRU victims; the
    // next 28 oldest (28..56) become them.
    for fp in 0..28u64 {
        assert!(store.get(fp).is_some());
    }
    for fp in 3072..3100u64 {
        evicted += store.insert(fp, entry(fp as i64));
    }
    assert_eq!(evicted, 28);
    assert_eq!(store.len(), 3072);
    for fp in 0..3100u64 {
        let victim = (28..56).contains(&fp);
        assert_eq!(store.get(fp).is_none(), victim, "fingerprint {fp}");
    }
}

#[test]
fn hits_on_one_fingerprint_share_one_allocation() {
    let store = CacheStore::new(4);
    store.insert(7, entry(1));
    let a = store.get(7).expect("hit");
    let b = store.get(7).expect("hit");
    assert!(Arc::ptr_eq(&a, &b), "a hit bumps a refcount, never copies");
}

/// Replacing a fingerprint publishes a new entry; a session already
/// holding the old one keeps exactly what it was handed.
#[test]
fn replacement_leaves_a_held_entry_unchanged() {
    let store = CacheStore::new(4);
    store.insert(7, entry(1));
    let held = store.get(7).expect("hit");
    assert_eq!(store.insert(7, entry(2)), 0, "replace, not evict");
    let fresh = store.get(7).expect("hit");
    assert!(!Arc::ptr_eq(&held, &fresh));
    assert_eq!(held.cache.get(0), Some(Value::Int(1)));
    assert_eq!(held.seal, held.cache.content_hash());
    assert_eq!(fresh.cache.get(0), Some(Value::Int(2)));
    assert!(store.invalidate(7));
    assert_eq!(fresh.cache.get(0), Some(Value::Int(2)), "invalidation too");
}

#[test]
fn snapshot_copies_entries_in_fingerprint_order() {
    let store = CacheStore::new(16);
    let fps = [0xFFFF_FFFF_FFFF_FFF0u64, 5, 1 << 40, 9, 3, 8];
    for &fp in &fps {
        store.insert(fp, entry(fp as i64));
    }
    let snap = store.snapshot();
    let mut sorted = fps.to_vec();
    sorted.sort_unstable();
    assert_eq!(snap.iter().map(|(fp, _)| *fp).collect::<Vec<_>>(), sorted);
    for (fp, e) in &snap {
        assert_eq!(e, &*store.get(*fp).unwrap(), "snapshot equals the entry");
    }
}

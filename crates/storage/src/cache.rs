//! Per-device decoded bucket-page cache.
//!
//! Decoding a bucket page on every read allocates a fresh `Vec<Record>`
//! plus per-value `String`/`Vec<u8>` payloads — wall-clock work the
//! paper's one-unit-per-access cost model never sees. This cache keeps
//! each bucket's decoded records as an [`Arc<[Record]>`] so a hot read
//! is one map lookup plus an `Arc` clone.
//!
//! Staleness is impossible by construction, not by discipline: a miss
//! decodes the page *and installs it* while holding the device's store
//! read lock, and every writer drops the page's entry while holding the
//! store write lock. A write therefore either finished before the decode
//! (and the decode saw its bytes) or waits for the install to finish and
//! then drops the entry — a stale page can never outlive a write.
//!
//! Capacity is bounded by a hermetic CLOCK (second-chance) policy: hits
//! set a reference bit, the eviction hand sweeps slots clearing bits and
//! evicts the first unreferenced slot. Capacity `0` disables the cache
//! entirely — reads bypass it and **no** `cache.*` counters fire, so a
//! cache-off run is observationally silent.
//!
//! Counters (all under [`pmr_rt::obs`], recorded only while tracing):
//! `cache.hit`, `cache.miss`, `cache.evicted`, `cache.invalidated`.

use pmr_mkh::Record;
use pmr_rt::obs;
use pmr_rt::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Which store a cached page was decoded from. Primary and mirror pages
/// of the same bucket index are distinct cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKey {
    /// A primary-store bucket page.
    Primary(u64),
    /// A mirror-store page this device holds for its buddy.
    Mirror(u64),
}

#[derive(Debug)]
struct Entry {
    key: PageKey,
    records: Arc<[Record]>,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Maximum resident entries; 0 disables the cache.
    capacity: usize,
    /// Key → slot index into `slots`.
    map: HashMap<PageKey, usize>,
    /// CLOCK ring. `None` slots are free (only until first fill).
    slots: Vec<Option<Entry>>,
    /// CLOCK hand: next slot the eviction sweep examines.
    hand: usize,
}

/// The per-device decoded-page cache. All state sits behind one `Mutex`
/// — a leaf lock, always acquired after (or without) the device's store
/// lock, never before. It holds nothing but its resident entries, so its
/// memory is bounded by its capacity.
#[derive(Debug)]
pub struct PageCache {
    inner: Mutex<Inner>,
}

/// Default per-device capacity (decoded pages), chosen to hold the
/// full working set of the paper's Table 7 system (≤ 128 buckets per
/// device) with room for mirror pages.
pub const DEFAULT_CAPACITY: usize = 1024;

impl PageCache {
    /// Creates a cache bounded to `capacity` decoded pages (0 = off).
    pub fn new(capacity: usize) -> Self {
        PageCache {
            inner: Mutex::new(Inner {
                capacity,
                ..Inner::default()
            }),
        }
    }

    /// Current capacity in decoded pages.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Resizes the cache. A no-op when the capacity is unchanged;
    /// otherwise resident entries are dropped. Passing 0 turns the cache
    /// off.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        if inner.capacity == capacity {
            return;
        }
        inner.capacity = capacity;
        inner.map.clear();
        inner.slots.clear();
        inner.hand = 0;
    }

    /// Cache lookup. `Some` is a hit (counts `cache.hit`, sets the
    /// CLOCK reference bit); `None` with the cache enabled is a miss
    /// (counts `cache.miss`); `None` with the cache off is silent. On a
    /// miss, callers decode and [`PageCache::insert`] under the store
    /// read lock.
    pub fn get(&self, key: PageKey) -> Option<Arc<[Record]>> {
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return None;
        }
        if let Some(&slot) = inner.map.get(&key) {
            let entry = inner.slots[slot].as_mut().expect("mapped slot is occupied");
            entry.referenced = true;
            let records = entry.records.clone();
            drop(inner);
            obs::counter_add("cache.hit", 1);
            return Some(records);
        }
        drop(inner);
        obs::counter_add("cache.miss", 1);
        None
    }

    /// Installs a decoded page, evicting via CLOCK when full; a no-op
    /// when the cache is off. Call under the store read lock the page was
    /// decoded under, so no write can land between decode and install.
    pub fn insert(&self, key: PageKey, records: Arc<[Record]>) {
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return;
        }
        if let Some(&slot) = inner.map.get(&key) {
            // Two concurrent misses decoded the same bytes: refresh.
            let entry = inner.slots[slot].as_mut().expect("mapped slot is occupied");
            entry.records = records;
            entry.referenced = true;
            return;
        }
        let entry = Entry {
            key,
            records,
            referenced: false,
        };
        if inner.slots.len() < inner.capacity {
            let slot = inner.slots.len();
            inner.slots.push(Some(entry));
            inner.map.insert(key, slot);
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced slot
        // turns up. Terminates within two revolutions.
        let evicted = loop {
            let hand = inner.hand;
            inner.hand = (hand + 1) % inner.slots.len();
            match inner.slots[hand].as_mut() {
                Some(e) if e.referenced => e.referenced = false,
                Some(_) => {
                    let old = inner.slots[hand].take().expect("checked occupied");
                    inner.map.remove(&old.key);
                    inner.slots[hand] = Some(entry);
                    inner.map.insert(key, hand);
                    break true;
                }
                None => {
                    inner.slots[hand] = Some(entry);
                    inner.map.insert(key, hand);
                    break false;
                }
            }
        };
        drop(inner);
        if evicted {
            obs::counter_add("cache.evicted", 1);
        }
    }

    /// Marks one page written: drops any resident entry. Call inside the
    /// store write-lock critical section of the mutation it covers.
    /// Counts `cache.invalidated` when an entry was actually dropped.
    pub fn invalidate(&self, key: PageKey) {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.map.remove(&key) else {
            return;
        };
        inner.slots[slot] = None;
        drop(inner);
        obs::counter_add("cache.invalidated", 1);
    }

    /// Invalidates every page at once (`clear`/`drain`).
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.map.len() as u64;
        inner.map.clear();
        inner.slots.clear();
        inner.hand = 0;
        drop(inner);
        if dropped > 0 {
            obs::counter_add("cache.invalidated", dropped);
        }
    }

    /// Invalidates every mirror-store page (`clear_mirror`).
    pub fn invalidate_mirrors(&self) {
        let mut inner = self.inner.lock();
        let Inner { map, slots, .. } = &mut *inner;
        let mut dropped = 0u64;
        map.retain(|key, &mut slot| {
            let mirror = matches!(key, PageKey::Mirror(_));
            if mirror {
                slots[slot] = None;
                dropped += 1;
            }
            !mirror
        });
        drop(inner);
        if dropped > 0 {
            obs::counter_add("cache.invalidated", dropped);
        }
    }

    /// Number of resident entries (tests/metrics).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_mkh::Value;

    fn page(i: i64) -> Arc<[Record]> {
        vec![Record::new(vec![Value::Int(i)])].into()
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = PageCache::new(4);
        let k = PageKey::Primary(7);
        assert!(c.get(k).is_none());
        c.insert(k, page(1));
        assert_eq!(c.get(k).as_deref(), Some(&*page(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_drops_resident_entries() {
        let c = PageCache::new(4);
        let (a, b) = (PageKey::Primary(0), PageKey::Primary(1));
        c.insert(a, page(1));
        c.insert(b, page(2));
        c.invalidate(a);
        assert!(c.get(a).is_none());
        assert!(c.get(b).is_some(), "other pages stay resident");
        c.invalidate(a); // absent: a no-op
        c.invalidate_all();
        assert!(c.is_empty());
        c.insert(a, page(3));
        assert_eq!(c.get(a).as_deref(), Some(&*page(3)));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let c = PageCache::new(2);
        let (a, b, d) = (
            PageKey::Primary(1),
            PageKey::Primary(2),
            PageKey::Primary(3),
        );
        c.insert(a, page(1));
        c.insert(b, page(2));
        // Touch `a` so its reference bit protects it for one sweep.
        assert!(c.get(a).is_some());
        c.insert(d, page(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(a).is_some(), "referenced entry survives the sweep");
        assert!(c.get(b).is_none(), "unreferenced entry was evicted");
        assert!(c.get(d).is_some());
    }

    #[test]
    fn capacity_zero_is_off_and_silent() {
        let c = PageCache::new(0);
        let k = PageKey::Primary(1);
        assert!(c.get(k).is_none());
        c.insert(k, page(1));
        assert!(c.get(k).is_none());
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn set_capacity_same_value_keeps_entries() {
        let c = PageCache::new(4);
        let k = PageKey::Primary(1);
        c.insert(k, page(1));
        c.set_capacity(4);
        assert!(c.get(k).is_some(), "unchanged capacity must not flush");
        c.set_capacity(8);
        assert!(c.get(k).is_none(), "resize flushes entries");
    }

    #[test]
    fn mirror_and_primary_lines_are_independent() {
        let c = PageCache::new(4);
        let (p, m) = (PageKey::Primary(5), PageKey::Mirror(5));
        c.insert(p, page(1));
        c.insert(m, page(2));
        c.invalidate_mirrors();
        assert!(c.get(p).is_some());
        assert!(c.get(m).is_none());
        assert_eq!(c.len(), 1);
    }
}

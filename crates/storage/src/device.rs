//! A simulated parallel device.
//!
//! Each device owns a bucket-addressed store (linear bucket index →
//! encoded record region) plus access counters. The store is guarded by a
//! per-device [`pmr_rt::sync::RwLock`], so the executor's per-device
//! workers and concurrent readers coexist without contending on a global
//! lock.

use crate::cache::{PageCache, PageKey};
use crate::encode::{self, DecodeError};
use pmr_mkh::Record;
use pmr_rt::fault::{FaultKind, FaultPlan};
use pmr_rt::obs;
use pmr_rt::sync::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A fault surfaced by a single bucket-read attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadFault {
    /// The device is fully down; further attempts on it cannot succeed.
    Outage,
    /// Transient I/O error — a retry may succeed.
    Io,
    /// The page failed to decode, either from injected transient
    /// corruption or from genuinely corrupt bytes at rest.
    Decode(DecodeError),
}

impl std::fmt::Display for ReadFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFault::Outage => write!(f, "device outage"),
            ReadFault::Io => write!(f, "transient read error"),
            ReadFault::Decode(e) => write!(f, "page decode failed: {e}"),
        }
    }
}

impl std::error::Error for ReadFault {}

/// A successful bucket read plus any injected latency to charge to the
/// simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketRead {
    /// The bucket's records (empty when the bucket holds no data),
    /// shared with the device's decoded-page cache: a cache hit is an
    /// `Arc` clone, never a re-decode.
    pub records: Arc<[Record]>,
    /// Simulated microseconds of injected latency spike (0 when none).
    pub injected_latency_us: u64,
}

/// A successful read that appended a validated page's stored bytes to
/// a caller's buffer ([`Device::copy_bucket_attempt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopiedRead {
    /// Records in the appended bytes (0 when the bucket holds no data).
    pub records: u64,
    /// Simulated microseconds of injected latency spike (0 when none).
    pub injected_latency_us: u64,
}

/// A successful raw (undecoded) page or parity-shard read plus any
/// injected latency to charge to the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRead {
    /// The bytes at rest, or `None` when nothing is resident there.
    pub bytes: Option<Vec<u8>>,
    /// Simulated microseconds of injected latency spike (0 when none).
    pub injected_latency_us: u64,
}

/// One simulated device: resident buckets plus access accounting.
#[derive(Debug)]
pub struct Device {
    id: u64,
    /// Bucket index → encoded records. Hashed: every read is a point
    /// lookup, and the listings that need address order
    /// ([`Device::resident_buckets`], [`Device::drain`]) sort on the way
    /// out. (An ordered map made the node's raw page read a tree walk
    /// that cost more than the decoded-page cache hit it replaced.)
    store: RwLock<HashMap<u64, Vec<u8>>>,
    /// Mirror pages this device holds *for its buddy* — kept apart from
    /// `store` so occupancy counts, persistence snapshots, and
    /// redistribution drains only ever see primary data.
    mirror_store: RwLock<HashMap<u64, Vec<u8>>>,
    /// Reed–Solomon parity shards this device holds for other devices'
    /// stripes, keyed by stripe id. Derived data like the mirror store:
    /// never persisted, dropped on clear/drain, rebuilt by re-encoding.
    parity_store: RwLock<HashMap<u64, Vec<u8>>>,
    /// Number of bucket reads served (lifetime).
    bucket_reads: AtomicU64,
    /// Number of records appended (lifetime).
    records_written: AtomicU64,
    /// Fast flag mirroring `fault_plan.is_some()` — the disabled-path
    /// cost of the fault hook is this one relaxed load plus a branch.
    faults_on: AtomicBool,
    /// The installed fault plan, if any.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Decoded bucket pages keyed by (store, bucket), kept coherent by
    /// the store locks. See [`crate::cache`].
    cache: PageCache,
}

impl Device {
    /// Creates an empty device.
    pub fn new(id: u64) -> Self {
        Device {
            id,
            store: RwLock::new(HashMap::new()),
            mirror_store: RwLock::new(HashMap::new()),
            parity_store: RwLock::new(HashMap::new()),
            bucket_reads: AtomicU64::new(0),
            records_written: AtomicU64::new(0),
            faults_on: AtomicBool::new(false),
            fault_plan: RwLock::new(None),
            cache: PageCache::new(crate::cache::DEFAULT_CAPACITY),
        }
    }

    /// The device id (its index in `Z_M`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Resizes the decoded-page cache (0 disables it). An unchanged
    /// capacity is a no-op that keeps the cache warm.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Current decoded-page cache capacity (0 = off).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Number of decoded pages resident in the cache.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }

    /// Appends a record to a resident bucket (creating the bucket page on
    /// first write).
    pub fn append(&self, bucket_index: u64, record: &Record) {
        let mut store = self.store.write();
        let region = store.entry(bucket_index).or_default();
        encode::encode_record(record, region);
        // Inside the write-lock critical section: a reader installs its
        // decode under the read lock, so no decode of the old bytes can
        // land after this drop.
        self.cache.invalidate(PageKey::Primary(bucket_index));
        self.records_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one bucket's records (empty when the bucket has no region —
    /// an empty bucket still counts as one access, matching the paper's
    /// bucket-access cost model). A cache hit skips the store lock and
    /// the decode entirely; a miss decodes the page borrowed under the
    /// read lock (one copy per payload, none for the page) and installs
    /// it before releasing that lock.
    pub fn read_bucket(&self, bucket_index: u64) -> Result<Arc<[Record]>, DecodeError> {
        self.bucket_reads.fetch_add(1, Ordering::Relaxed);
        self.decode_page(PageKey::Primary(bucket_index))
    }

    /// The decoded records of a primary or mirror page, through the
    /// cache. Counts no access — callers charge it.
    fn decode_page(&self, key: PageKey) -> Result<Arc<[Record]>, DecodeError> {
        if let Some(records) = self.cache.get(key) {
            return Ok(records);
        }
        let (store, bucket_index) = self.store_of(key);
        let store = store.read();
        let records: Arc<[Record]> = match store.get(&bucket_index) {
            None => Vec::new().into(),
            Some(region) => encode::decode_all_bytes(region)?.into(),
        };
        // Installed while the read lock still pins the bytes: a writer
        // waits for it, then drops the entry under its write lock.
        self.cache.insert(key, records.clone());
        Ok(records)
    }

    /// Appends a primary or mirror page's stored bytes to `out`, after a
    /// validation walk under the store read lock: the bytes shipped are
    /// the bytes checked, and a page corrupt at rest fails with the
    /// error a decode would raise, leaving `out` untouched. Returns the
    /// page's record count. Never touches the decoded-page cache.
    fn copy_page(&self, key: PageKey, out: &mut Vec<u8>) -> Result<u64, DecodeError> {
        let (store, bucket_index) = self.store_of(key);
        let store = store.read();
        let Some(page) = store.get(&bucket_index) else {
            return Ok(0);
        };
        let records = encode::validate_region(page)?;
        out.extend_from_slice(page);
        Ok(records)
    }

    fn store_of(&self, key: PageKey) -> (&RwLock<HashMap<u64, Vec<u8>>>, u64) {
        match key {
            PageKey::Primary(bucket_index) => (&self.store, bucket_index),
            PageKey::Mirror(bucket_index) => (&self.mirror_store, bucket_index),
        }
    }

    /// Installs (or removes, with `None`) the fault plan consulted by
    /// [`Device::read_bucket_attempt`]. A plan with no active rates is
    /// treated as absent, keeping the hot path on its fast branch.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let active = plan.as_ref().is_some_and(|p| p.is_active());
        *self.fault_plan.write() = if active { plan } else { None };
        self.faults_on.store(active, Ordering::Release);
    }

    /// The fault decision for one read attempt of `key` (a bucket index
    /// or stripe id), charged to the access counter like any issued
    /// read. An outage issues no read; a read error or a transient
    /// corruption fails the attempt; otherwise the read proceeds and the
    /// injected latency (0 when none) is returned. Disabled path: one
    /// relaxed load plus a branch.
    #[inline]
    fn admit(&self, key: u64, attempt: u32) -> Result<u64, ReadFault> {
        let decided = if self.faults_on.load(Ordering::Relaxed) {
            let guard = self.fault_plan.read();
            guard
                .as_ref()
                .and_then(|plan| plan.decide(self.id, key, attempt))
        } else {
            None
        };
        if decided.is_some() {
            obs::counter_add("fault.injected", 1);
        }
        let injected_latency_us = match decided {
            Some(FaultKind::Outage) => return Err(ReadFault::Outage),
            Some(FaultKind::LatencySpike(us)) => us,
            _ => 0,
        };
        // The access was issued, whether or not it returns clean data.
        self.bucket_reads.fetch_add(1, Ordering::Relaxed);
        match decided {
            Some(FaultKind::ReadError) => Err(ReadFault::Io),
            // Transient bus/DMA corruption: the page *read* garbage but
            // the bytes at rest are intact, so a retry re-rolls.
            Some(FaultKind::Corruption) => Err(ReadFault::Decode(DecodeError::Truncated)),
            _ => Ok(injected_latency_us),
        }
    }

    /// One fault-aware read attempt against the **primary** store.
    ///
    /// With no plan installed this is [`Device::read_bucket`] plus one
    /// relaxed atomic load. With a plan, the seeded per-(device, bucket,
    /// attempt) decision may surface as [`ReadFault::Io`] /
    /// [`ReadFault::Decode`] (both transient — a later attempt re-rolls),
    /// [`ReadFault::Outage`] (permanent for the run), or an extra
    /// simulated-µs latency charge on an otherwise clean read. Genuinely
    /// corrupt pages at rest surface as [`ReadFault::Decode`] regardless
    /// of the plan.
    pub fn read_bucket_attempt(
        &self,
        bucket_index: u64,
        attempt: u32,
    ) -> Result<BucketRead, ReadFault> {
        let injected_latency_us = self.admit(bucket_index, attempt)?;
        let records = self
            .decode_page(PageKey::Primary(bucket_index))
            .map_err(ReadFault::Decode)?;
        Ok(BucketRead {
            records,
            injected_latency_us,
        })
    }

    /// One fault-aware read attempt against the **mirror** store — the
    /// failover path, called on the buddy of a failed home device. The
    /// same fault plan applies (the buddy can be out too).
    pub fn read_mirror_attempt(
        &self,
        bucket_index: u64,
        attempt: u32,
    ) -> Result<BucketRead, ReadFault> {
        let injected_latency_us = self.admit(bucket_index, attempt)?;
        let records = self
            .decode_page(PageKey::Mirror(bucket_index))
            .map_err(ReadFault::Decode)?;
        Ok(BucketRead {
            records,
            injected_latency_us,
        })
    }

    /// [`Device::read_bucket_attempt`] without the decode: the same
    /// fault decision, then the primary page's stored bytes, validated,
    /// appended to `out`. Fails exactly when `read_bucket_attempt` does,
    /// with the same fault, and then appends nothing.
    pub fn copy_bucket_attempt(
        &self,
        bucket_index: u64,
        attempt: u32,
        out: &mut Vec<u8>,
    ) -> Result<CopiedRead, ReadFault> {
        let injected_latency_us = self.admit(bucket_index, attempt)?;
        let records = self
            .copy_page(PageKey::Primary(bucket_index), out)
            .map_err(ReadFault::Decode)?;
        Ok(CopiedRead {
            records,
            injected_latency_us,
        })
    }

    /// [`Device::read_mirror_attempt`] without the decode, as
    /// [`Device::copy_bucket_attempt`] is to the primary read.
    pub fn copy_mirror_attempt(
        &self,
        bucket_index: u64,
        attempt: u32,
        out: &mut Vec<u8>,
    ) -> Result<CopiedRead, ReadFault> {
        let injected_latency_us = self.admit(bucket_index, attempt)?;
        let records = self
            .copy_page(PageKey::Mirror(bucket_index), out)
            .map_err(ReadFault::Decode)?;
        Ok(CopiedRead {
            records,
            injected_latency_us,
        })
    }

    /// One fault-aware **raw** read of a primary bucket page: the bytes
    /// at rest, undecoded, for parity reconstruction (the stripe layer
    /// CRC-checks them against its member metadata instead). The same
    /// fault plan applies — a stripe-mate can be out or flaky too.
    /// `Ok(None)` means the bucket holds no page.
    pub fn read_raw_page_attempt(
        &self,
        bucket_index: u64,
        attempt: u32,
    ) -> Result<RawRead, ReadFault> {
        let injected_latency_us = self.admit(bucket_index, attempt)?;
        let bytes = self.store.read().get(&bucket_index).cloned();
        Ok(RawRead {
            bytes,
            injected_latency_us,
        })
    }

    /// One fault-aware read of a **parity** shard this device holds for
    /// stripe `stripe_id`. Fault decisions draw from the same seeded
    /// stream as bucket reads, keyed by the stripe id. `Ok(None)` means
    /// this device holds no shard for that stripe.
    pub fn read_parity_attempt(&self, stripe_id: u64, attempt: u32) -> Result<RawRead, ReadFault> {
        let injected_latency_us = self.admit(stripe_id, attempt)?;
        let bytes = self.parity_store.read().get(&stripe_id).cloned();
        Ok(RawRead {
            bytes,
            injected_latency_us,
        })
    }

    /// Installs (replacing) the parity shard this device holds for
    /// stripe `stripe_id`. Parity writes, like mirror writes, do not
    /// count toward `records_written`.
    pub fn install_parity_page(&self, stripe_id: u64, shard: &[u8]) {
        self.parity_store.write().insert(stripe_id, shard.to_vec());
    }

    /// Number of resident parity shards.
    pub fn parity_shard_count(&self) -> usize {
        self.parity_store.read().len()
    }

    /// Total bytes of resident parity shards (storage-overhead
    /// accounting).
    pub fn parity_bytes(&self) -> usize {
        self.parity_store.read().values().map(Vec::len).sum()
    }

    /// Drops all parity shards (primary data untouched).
    pub fn clear_parity(&self) {
        self.parity_store.write().clear();
    }

    /// Appends a record to a **mirror** bucket this device holds for its
    /// buddy. Mirror writes do not count toward `records_written` —
    /// occupancy accounting tracks primary placement only.
    pub fn append_mirror(&self, bucket_index: u64, record: &Record) {
        let mut store = self.mirror_store.write();
        let region = store.entry(bucket_index).or_default();
        encode::encode_record(record, region);
        self.cache.invalidate(PageKey::Mirror(bucket_index));
    }

    /// Installs a pre-encoded page into the mirror store (bulk
    /// re-mirroring path), replacing any previous mirror page.
    pub fn install_mirror_page(&self, bucket_index: u64, page: &[u8]) {
        let mut store = self.mirror_store.write();
        store.insert(bucket_index, page.to_vec());
        self.cache.invalidate(PageKey::Mirror(bucket_index));
    }

    /// Indices of the mirror buckets this device holds, in address order.
    pub fn mirror_buckets(&self) -> Vec<u64> {
        sorted_keys(&self.mirror_store.read())
    }

    /// Number of resident mirror pages.
    pub fn mirror_bucket_count(&self) -> usize {
        self.mirror_store.read().len()
    }

    /// Drops all mirror pages (primary data untouched).
    pub fn clear_mirror(&self) {
        let mut store = self.mirror_store.write();
        store.clear();
        self.cache.invalidate_mirrors();
    }

    /// Indices of the buckets with resident data, in address order.
    pub fn resident_buckets(&self) -> Vec<u64> {
        sorted_keys(&self.store.read())
    }

    /// Number of resident (non-empty) buckets.
    pub fn resident_bucket_count(&self) -> usize {
        self.store.read().len()
    }

    /// Lifetime bucket reads served.
    pub fn bucket_reads(&self) -> u64 {
        self.bucket_reads.load(Ordering::Relaxed)
    }

    /// Lifetime records written.
    pub fn records_written(&self) -> u64 {
        self.records_written.load(Ordering::Relaxed)
    }

    /// Raw page bytes of a resident bucket (for persistence snapshots);
    /// `None` when the bucket holds no data.
    pub fn raw_page(&self, bucket_index: u64) -> Option<Vec<u8>> {
        self.store.read().get(&bucket_index).cloned()
    }

    /// Installs a pre-encoded page (persistence load path). `records` is
    /// the number of records the page holds, for the write counter.
    pub fn install_page(&self, bucket_index: u64, page: &[u8], records: u64) {
        let mut store = self.store.write();
        store.insert(bucket_index, page.to_vec());
        self.cache.invalidate(PageKey::Primary(bucket_index));
        self.records_written.fetch_add(records, Ordering::Relaxed);
    }

    /// Fault injection: overwrite a bucket's page with arbitrary bytes.
    ///
    /// Simulated devices exist to let tests exercise failure paths that
    /// real hardware produces (torn writes, bit rot); readers must surface
    /// [`DecodeError`] rather than panic or silently drop records.
    pub fn inject_corruption(&self, bucket_index: u64, bytes: &[u8]) {
        let mut store = self.store.write();
        store.insert(bucket_index, bytes.to_vec());
        // At-rest corruption is a write like any other: invalidate so the
        // next read surfaces the DecodeError instead of a stale hit.
        self.cache.invalidate(PageKey::Primary(bucket_index));
    }

    /// Drops all resident data (primary and mirror) and resets counters
    /// (used when a file is redistributed after a directory expansion).
    pub fn clear(&self) {
        let mut store = self.store.write();
        store.clear();
        self.mirror_store.write().clear();
        self.parity_store.write().clear();
        self.cache.invalidate_all();
        self.bucket_reads.store(0, Ordering::Relaxed);
        self.records_written.store(0, Ordering::Relaxed);
    }

    /// Drains all resident (bucket, records) pairs in address order,
    /// leaving the device empty. Used for redistribution: mirror and
    /// parity pages are derived data, so they are dropped rather than
    /// returned (re-mirroring / re-encoding rebuilds them).
    pub fn drain(&self) -> Result<Vec<(u64, Vec<Record>)>, DecodeError> {
        self.mirror_store.write().clear();
        self.parity_store.write().clear();
        let mut store = self.store.write();
        let mut drained: Vec<(u64, Vec<u8>)> = std::mem::take(&mut *store).into_iter().collect();
        self.cache.invalidate_all();
        drained.sort_unstable_by_key(|&(idx, _)| idx);
        drained
            .into_iter()
            .map(|(idx, region)| Ok((idx, encode::decode_all_bytes(&region)?)))
            .collect()
    }
}

/// A page store's bucket indices in address order.
fn sorted_keys<V>(store: &HashMap<u64, V>) -> Vec<u64> {
    let mut keys: Vec<u64> = store.keys().copied().collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_mkh::Value;

    fn rec(i: i64) -> Record {
        Record::new(vec![Value::Int(i), format!("r{i}").into()])
    }

    #[test]
    fn append_and_read() {
        let d = Device::new(3);
        assert_eq!(d.id(), 3);
        d.append(10, &rec(1));
        d.append(10, &rec(2));
        d.append(11, &rec(3));
        assert_eq!(&*d.read_bucket(10).unwrap(), &[rec(1), rec(2)][..]);
        assert_eq!(&*d.read_bucket(11).unwrap(), &[rec(3)][..]);
        assert!(d.read_bucket(12).unwrap().is_empty());
        assert_eq!(d.resident_buckets(), vec![10, 11]);
        assert_eq!(d.resident_bucket_count(), 2);
        assert_eq!(d.bucket_reads(), 3);
        assert_eq!(d.records_written(), 3);
    }

    #[test]
    fn clear_resets() {
        let d = Device::new(0);
        d.append(1, &rec(1));
        d.read_bucket(1).unwrap();
        d.clear();
        assert_eq!(d.resident_bucket_count(), 0);
        assert_eq!(d.bucket_reads(), 0);
        assert_eq!(d.records_written(), 0);
    }

    #[test]
    fn drain_returns_everything() {
        let d = Device::new(0);
        d.append(5, &rec(1));
        d.append(7, &rec(2));
        d.append(5, &rec(3));
        let drained = d.drain().unwrap();
        assert_eq!(drained, vec![(5, vec![rec(1), rec(3)]), (7, vec![rec(2)])]);
        assert_eq!(d.resident_bucket_count(), 0);
    }

    #[test]
    fn corruption_surfaces_as_decode_error() {
        let d = Device::new(0);
        d.append(3, &rec(1));
        d.inject_corruption(3, &[0xde, 0xad, 0xbe]);
        assert!(d.read_bucket(3).is_err());
        // Other buckets are unaffected.
        d.append(4, &rec(2));
        assert_eq!(&*d.read_bucket(4).unwrap(), &[rec(2)][..]);
    }

    #[test]
    fn attempt_read_without_plan_matches_read_bucket() {
        let d = Device::new(2);
        d.append(9, &rec(7));
        let got = d.read_bucket_attempt(9, 0).unwrap();
        assert_eq!(&*got.records, &[rec(7)][..]);
        assert_eq!(got.injected_latency_us, 0);
        assert!(d.read_bucket_attempt(10, 0).unwrap().records.is_empty());
        // Decode failures surface as typed faults even with faults off.
        d.inject_corruption(9, &[0xff, 0x01]);
        assert!(matches!(
            d.read_bucket_attempt(9, 1),
            Err(ReadFault::Decode(_))
        ));
    }

    #[test]
    fn installed_plan_injects_and_inactive_plan_is_ignored() {
        let d = Device::new(0);
        d.append(1, &rec(1));
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(1).with_dead_device(0))));
        assert_eq!(d.read_bucket_attempt(1, 0), Err(ReadFault::Outage));
        assert_eq!(d.read_mirror_attempt(1, 0), Err(ReadFault::Outage));
        // Removing the plan restores clean reads.
        d.set_fault_plan(None);
        assert_eq!(
            &*d.read_bucket_attempt(1, 0).unwrap().records,
            &[rec(1)][..]
        );
        // An all-zero-rate plan is treated as absent.
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(1))));
        assert_eq!(
            &*d.read_bucket_attempt(1, 0).unwrap().records,
            &[rec(1)][..]
        );
    }

    #[test]
    fn latency_spikes_ride_on_successful_reads() {
        let d = Device::new(0);
        d.append(0, &rec(1));
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(11).with_latency(1.0, 40, 60))));
        let got = d.read_bucket_attempt(0, 0).unwrap();
        assert_eq!(&*got.records, &[rec(1)][..]);
        assert!((40..=60).contains(&got.injected_latency_us));
        // Deterministic: the same attempt spikes identically.
        assert_eq!(d.read_bucket_attempt(0, 0).unwrap(), got);
    }

    #[test]
    fn mirror_store_is_separate_from_primary() {
        let d = Device::new(1);
        d.append(4, &rec(1));
        d.append_mirror(5, &rec(2));
        d.append_mirror(5, &rec(3));
        assert_eq!(d.resident_buckets(), vec![4]);
        assert_eq!(d.mirror_buckets(), vec![5]);
        assert_eq!(d.mirror_bucket_count(), 1);
        // Mirror writes don't count toward primary occupancy.
        assert_eq!(d.records_written(), 1);
        assert_eq!(
            &*d.read_mirror_attempt(5, 0).unwrap().records,
            &[rec(2), rec(3)][..]
        );
        assert!(d.read_mirror_attempt(4, 0).unwrap().records.is_empty());
        // install_mirror_page replaces, append_mirror appends — and both
        // invalidate the mirror cache line just read above.
        let page = d.raw_page(4).unwrap();
        d.install_mirror_page(5, &page);
        assert_eq!(
            &*d.read_mirror_attempt(5, 0).unwrap().records,
            &[rec(1)][..]
        );
        d.clear_mirror();
        assert_eq!(d.mirror_bucket_count(), 0);
        assert_eq!(d.resident_buckets(), vec![4]);
    }

    #[test]
    fn drain_and_clear_drop_mirror_pages() {
        let d = Device::new(0);
        d.append(1, &rec(1));
        d.append_mirror(2, &rec(2));
        let drained = d.drain().unwrap();
        assert_eq!(drained, vec![(1, vec![rec(1)])]);
        assert_eq!(d.mirror_bucket_count(), 0);
        d.append(1, &rec(1));
        d.append_mirror(2, &rec(2));
        d.clear();
        assert_eq!(d.resident_bucket_count(), 0);
        assert_eq!(d.mirror_bucket_count(), 0);
    }

    #[test]
    fn hot_reads_share_one_decode() {
        let d = Device::new(0);
        d.append(6, &rec(1));
        let first = d.read_bucket(6).unwrap();
        let second = d.read_bucket(6).unwrap();
        // Hit path: the same decoded page, not a re-decode.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(d.bucket_reads(), 2, "hits still charge bucket accesses");
        assert_eq!(d.cached_pages(), 1);
        // Any append invalidates; the next read re-decodes fresh data.
        d.append(6, &rec(2));
        let third = d.read_bucket(6).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(&*third, &[rec(1), rec(2)][..]);
    }

    #[test]
    fn cache_off_reads_stay_correct() {
        let d = Device::new(0);
        d.set_cache_capacity(0);
        assert_eq!(d.cache_capacity(), 0);
        d.append(6, &rec(1));
        assert_eq!(&*d.read_bucket(6).unwrap(), &[rec(1)][..]);
        assert_eq!(d.cached_pages(), 0);
        d.append(6, &rec(2));
        assert_eq!(&*d.read_bucket(6).unwrap(), &[rec(1), rec(2)][..]);
        // Re-enabling starts cold but coherent.
        d.set_cache_capacity(64);
        assert_eq!(&*d.read_bucket(6).unwrap(), &[rec(1), rec(2)][..]);
        assert_eq!(d.cached_pages(), 1);
    }

    #[test]
    fn clear_and_drain_invalidate_cached_pages() {
        let d = Device::new(0);
        d.append(1, &rec(1));
        d.read_bucket(1).unwrap();
        assert_eq!(d.cached_pages(), 1);
        d.drain().unwrap();
        assert_eq!(d.cached_pages(), 0);
        assert!(d.read_bucket(1).unwrap().is_empty());
        d.append(1, &rec(2));
        d.read_bucket(1).unwrap();
        d.clear();
        assert_eq!(d.cached_pages(), 0);
        assert!(d.read_bucket(1).unwrap().is_empty());
    }

    #[test]
    fn injected_faults_never_touch_the_cache() {
        let d = Device::new(0);
        d.append(2, &rec(1));
        // Read-error faults at rate 1.0: every attempt errors before the
        // store (or cache) is consulted — nothing gets cached.
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(5).with_read_error(1.0))));
        assert_eq!(d.read_bucket_attempt(2, 0), Err(ReadFault::Io));
        assert_eq!(d.cached_pages(), 0);
        d.set_fault_plan(None);
        assert_eq!(
            &*d.read_bucket_attempt(2, 0).unwrap().records,
            &[rec(1)][..]
        );
        assert_eq!(d.cached_pages(), 1);
    }

    #[test]
    fn copied_reads_ship_the_stored_bytes_or_the_decode_fault() {
        let d = Device::new(0);
        d.set_cache_capacity(0);
        d.append(3, &rec(1));
        d.append(3, &rec(2));
        d.append_mirror(4, &rec(5));
        let mut out = vec![0xaa];
        let got = d.copy_bucket_attempt(3, 0, &mut out).unwrap();
        assert_eq!(got.records, 2);
        assert_eq!(out[1..], d.raw_page(3).unwrap()[..]);
        out.clear();
        assert_eq!(d.copy_mirror_attempt(4, 0, &mut out).unwrap().records, 1);
        assert_eq!(encode::decode_all_bytes(&out).unwrap(), vec![rec(5)]);
        assert_eq!(d.copy_bucket_attempt(9, 0, &mut out).unwrap().records, 0);
        assert_eq!(d.bucket_reads(), 3);
        // Corrupt at rest: the decode's own error, and nothing appended.
        d.inject_corruption(3, &[0x01, 0, 0, 0, 0x7f]);
        out.clear();
        assert_eq!(
            d.copy_bucket_attempt(3, 0, &mut out),
            Err(ReadFault::Decode(DecodeError::BadTag(0x7f)))
        );
        assert_eq!(
            d.read_bucket_attempt(3, 0).map(|r| r.records.len()),
            Err(ReadFault::Decode(DecodeError::BadTag(0x7f)))
        );
        assert!(out.is_empty());
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(1).with_dead_device(0))));
        assert_eq!(
            d.copy_bucket_attempt(4, 0, &mut out),
            Err(ReadFault::Outage)
        );
    }

    #[test]
    fn cached_reads_stay_coherent_with_a_concurrent_writer() {
        const APPENDS: u64 = 3_000;
        let d = Device::new(0);
        let finished = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..APPENDS {
                    d.append(0, &rec(i as i64));
                    finished.store(i + 1, Ordering::Release);
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    let mut seen = 0;
                    loop {
                        let before = finished.load(Ordering::Acquire);
                        let page = d.read_bucket(0).unwrap();
                        assert!(
                            page.len() as u64 >= before,
                            "stale read: {} records after {before} appends finished",
                            page.len()
                        );
                        assert!(
                            page.len() >= seen,
                            "read shrank from {seen} to {}",
                            page.len()
                        );
                        // Earlier records were checked by an earlier read.
                        for (i, r) in page.iter().enumerate().skip(seen) {
                            assert_eq!(*r, rec(i as i64), "not a prefix of the appends");
                        }
                        seen = page.len();
                        if before == APPENDS {
                            break;
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_appends_are_safe() {
        let d = std::sync::Arc::new(Device::new(0));
        std::thread::scope(|s| {
            for t in 0u64..4 {
                let d = d.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        d.append(t, &rec(i));
                    }
                });
            }
        });
        assert_eq!(d.records_written(), 400);
        let total: usize = (0..4).map(|b| d.read_bucket(b).unwrap().len()).sum();
        assert_eq!(total, 400);
    }
}

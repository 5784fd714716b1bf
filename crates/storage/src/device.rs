//! A simulated parallel device.
//!
//! Each device owns three page stores — primary bucket pages, the mirror
//! pages it holds for its buddy, and the parity shards it holds for other
//! devices' stripes — plus access counters. Each store is a map keyed by
//! packed code under the keyed `CodeHash` and guarded
//! by its own [`pmr_rt::sync::RwLock`], so the executor's device workers
//! and concurrent writers coexist without a global lock.
//!
//! # Reads
//!
//! Every page read goes through a [`ShareReader`]: one per (store,
//! device share of a query). It snapshots the fault plan once (an atomic
//! load, plus one `Arc` clone when a plan is installed), takes the
//! store's read guard lazily on the first admitted read that needs the
//! bytes (a dead device never locks), holds it for the rest of the
//! share, and adds its `bucket_reads` to the device once, on drop. A
//! read therefore costs the page's own hash probe, not a lock round
//! trip and two atomic read-modify-writes. Nothing is cached: a read
//! copies the validated stored bytes ([`ShareReader::copy_attempt`], the
//! executor's path) or decodes them ([`ShareReader::decode_attempt`]).
//!
//! A thread holds **at most one** reader guard at a time: a reader must
//! be dropped before its thread opens another (the executor drops the
//! share's reader before any failover step). std's `RwLock` queues new
//! readers behind a waiting writer, so a second read guard taken on a
//! store the thread already reads — or a cross-device cycle between two
//! threads — would deadlock against an appender.

use crate::code_hash::CodeMap;
use crate::encode::{self, DecodeError};
use pmr_mkh::Record;
use pmr_rt::fault::{FaultKind, FaultPlan};
use pmr_rt::obs;
use pmr_rt::sync::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard};

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
    /// The bucket's records (empty when the bucket holds no data).
    pub records: Vec<Record>,
    /// Simulated microseconds of injected latency spike (0 when none).
    pub injected_latency_us: u64,
}

/// A successful read that appended a validated page's stored bytes to
/// a caller's buffer ([`ShareReader::copy_attempt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopiedRead {
    /// Records in the appended bytes (0 when the bucket holds no data).
    pub records: u64,
    /// Simulated microseconds of injected latency spike (0 when none).
    pub injected_latency_us: u64,
}

/// Which of a device's page stores a [`ShareReader`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageStore {
    /// The device's own bucket pages, keyed by bucket index.
    Primary,
    /// Mirror pages the device holds for its buddy, keyed by bucket
    /// index.
    Mirror,
    /// Reed–Solomon parity shards the device holds for other devices'
    /// stripes, keyed by stripe id. Never decoded.
    Parity,
}

/// Pages keyed by code: a bucket index, or a stripe id for parity.
type Pages = CodeMap<Vec<u8>>;

/// One simulated device: resident buckets plus access accounting.
#[derive(Debug)]
pub struct Device {
    id: u64,
    /// Bucket index → encoded records. Hashed: every read is a point
    /// lookup, and the listings that need address order
    /// ([`Device::resident_buckets`], [`Device::drain`]) sort on the way
    /// out. (An ordered map made every page read a tree walk.)
    store: RwLock<Pages>,
    /// Mirror pages this device holds *for its buddy* — kept apart from
    /// `store` so occupancy counts, persistence snapshots, and
    /// redistribution drains only ever see primary data.
    mirror_store: RwLock<Pages>,
    /// Reed–Solomon parity shards this device holds for other devices'
    /// stripes, keyed by stripe id. Derived data like the mirror store:
    /// never persisted, dropped on clear/drain, rebuilt by re-encoding.
    parity_store: RwLock<Pages>,
    /// Number of bucket reads served (lifetime). Readers count locally
    /// and add their total here when dropped.
    bucket_reads: AtomicU64,
    /// Number of records appended (lifetime).
    records_written: AtomicU64,
    /// Fast flag mirroring `fault_plan.is_some()`: a reader opened with
    /// it clear snapshots no plan.
    faults_on: AtomicBool,
    /// The installed fault plan, if any.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
}

impl Device {
    /// Creates an empty device.
    pub fn new(id: u64) -> Self {
        Device {
            id,
            store: RwLock::new(Pages::default()),
            mirror_store: RwLock::new(Pages::default()),
            parity_store: RwLock::new(Pages::default()),
            bucket_reads: AtomicU64::new(0),
            records_written: AtomicU64::new(0),
            faults_on: AtomicBool::new(false),
            fault_plan: RwLock::new(None),
        }
    }

    /// The device id (its index in `Z_M`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Appends a record to a resident bucket (creating the bucket page on
    /// first write).
    pub fn append(&self, bucket_index: u64, record: &Record) {
        let mut store = self.store.write();
        let region = store.entry(bucket_index).or_default();
        encode::encode_record(record, region);
        self.records_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens a reader for one device share of a query against `store`:
    /// the fault plan installed now applies to every read through it.
    /// Drop it before opening another reader on this thread (see the
    /// module docs).
    pub fn reader(&self, store: PageStore) -> ShareReader<'_> {
        let plan = if self.faults_on.load(Ordering::Acquire) {
            self.fault_plan.read().clone()
        } else {
            None
        };
        ShareReader {
            device: self,
            store,
            pages: None,
            plan,
            reads: 0,
        }
    }

    fn pages_of(&self, store: PageStore) -> &RwLock<Pages> {
        match store {
            PageStore::Primary => &self.store,
            PageStore::Mirror => &self.mirror_store,
            PageStore::Parity => &self.parity_store,
        }
    }

    /// Reads one bucket's records (empty when the bucket has no region —
    /// an empty bucket still counts as one access, matching the paper's
    /// bucket-access cost model), ignoring any fault plan. The page is
    /// decoded borrowed under the read lock: one copy per payload, none
    /// for the page.
    pub fn read_bucket(&self, bucket_index: u64) -> Result<Vec<Record>, DecodeError> {
        ShareReader {
            device: self,
            store: PageStore::Primary,
            pages: None,
            plan: None,
            reads: 1,
        }
        .decode(bucket_index)
    }

    /// Installs (or removes, with `None`) the fault plan consulted by
    /// readers opened from now on. A plan with no active rates is
    /// treated as absent, keeping readers on their no-plan branch.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let active = plan.as_ref().is_some_and(|p| p.is_active());
        *self.fault_plan.write() = if active { plan } else { None };
        self.faults_on.store(active, Ordering::Release);
    }

    /// One fault-aware read attempt against the **primary** store: a
    /// one-read [`ShareReader::decode_attempt`].
    ///
    /// With a plan installed, the seeded per-(device, bucket, attempt)
    /// decision may surface as [`ReadFault::Io`] / [`ReadFault::Decode`]
    /// (both transient — a later attempt re-rolls), [`ReadFault::Outage`]
    /// (permanent for the run), or an extra simulated-µs latency charge
    /// on an otherwise clean read. Genuinely corrupt pages at rest
    /// surface as [`ReadFault::Decode`] regardless of the plan.
    pub fn read_bucket_attempt(
        &self,
        bucket_index: u64,
        attempt: u32,
    ) -> Result<BucketRead, ReadFault> {
        self.reader(PageStore::Primary)
            .decode_attempt(bucket_index, attempt)
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
    }

    /// Installs a pre-encoded page into the mirror store (bulk
    /// re-mirroring path), replacing any previous mirror page.
    pub fn install_mirror_page(&self, bucket_index: u64, page: &[u8]) {
        self.mirror_store
            .write()
            .insert(bucket_index, page.to_vec());
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
        self.mirror_store.write().clear();
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
        self.records_written.fetch_add(records, Ordering::Relaxed);
    }

    /// Fault injection: overwrite a bucket's page with arbitrary bytes.
    ///
    /// Simulated devices exist to let tests exercise failure paths that
    /// real hardware produces (torn writes, bit rot); readers must surface
    /// [`DecodeError`] rather than panic or silently drop records.
    pub fn inject_corruption(&self, bucket_index: u64, bytes: &[u8]) {
        self.store.write().insert(bucket_index, bytes.to_vec());
    }

    /// Drops all resident data (primary and mirror) and resets counters
    /// (used when a file is redistributed after a directory expansion).
    pub fn clear(&self) {
        let mut store = self.store.write();
        store.clear();
        self.mirror_store.write().clear();
        self.parity_store.write().clear();
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
        drained.sort_unstable_by_key(|&(idx, _)| idx);
        drained
            .into_iter()
            .map(|(idx, region)| Ok((idx, encode::decode_all_bytes(&region, 0)?)))
            .collect()
    }
}

/// A page store's bucket indices in address order.
fn sorted_keys(store: &Pages) -> Vec<u64> {
    let mut keys: Vec<u64> = store.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// One device share's reads from one page store ([`Device::reader`]).
///
/// Each read is first admitted against the fault plan snapshotted when
/// the reader opened: an outage issues no read; a read error or a
/// transient corruption fails the attempt after counting it; otherwise
/// the read proceeds and carries the injected latency (0 when none). An
/// admitted read that needs the stored bytes takes the store's read
/// guard if this reader does not hold it yet, and keeps it until the
/// reader drops. Reads are counted here and added to the device's
/// `bucket_reads` on drop.
pub struct ShareReader<'a> {
    device: &'a Device,
    store: PageStore,
    /// The store's read guard, once a read has needed it.
    pages: Option<RwLockReadGuard<'a, Pages>>,
    /// The fault plan in force when the reader opened.
    plan: Option<Arc<FaultPlan>>,
    /// Reads issued, not yet added to `device.bucket_reads`.
    reads: u64,
}

impl ShareReader<'_> {
    /// Admits one read attempt of `code` (a bucket index or stripe id),
    /// returning its injected latency.
    #[inline]
    fn admit(&mut self, code: u64, attempt: u32) -> Result<u64, ReadFault> {
        let decided = self
            .plan
            .as_ref()
            .and_then(|plan| plan.decide(self.device.id, code, attempt));
        if decided.is_some() {
            obs::FAULT_INJECTED.add(1);
        }
        let injected_latency_us = match decided {
            Some(FaultKind::Outage) => return Err(ReadFault::Outage),
            Some(FaultKind::LatencySpike(us)) => us,
            _ => 0,
        };
        // The access was issued, whether or not it returns clean data.
        self.reads += 1;
        match decided {
            Some(FaultKind::ReadError) => Err(ReadFault::Io),
            // Transient bus/DMA corruption: the page *read* garbage but
            // the bytes at rest are intact, so a retry re-rolls.
            Some(FaultKind::Corruption) => Err(ReadFault::Decode(DecodeError::Truncated)),
            _ => Ok(injected_latency_us),
        }
    }

    /// The store's pages, under the guard this reader holds from its
    /// first call on.
    fn pages(&mut self) -> &Pages {
        let (device, store) = (self.device, self.store);
        self.pages
            .get_or_insert_with(|| device.pages_of(store).read())
    }

    /// One read attempt that appends the page's stored bytes to `out`,
    /// after a validation walk under the guard: the bytes shipped are the
    /// bytes checked, and a page corrupt at rest fails with the error a
    /// decode would raise. Fails exactly when
    /// [`ShareReader::decode_attempt`] does, with the same fault, and
    /// then appends nothing.
    pub fn copy_attempt(
        &mut self,
        code: u64,
        attempt: u32,
        out: &mut Vec<u8>,
    ) -> Result<CopiedRead, ReadFault> {
        let injected_latency_us = self.admit(code, attempt)?;
        let records = match self.pages().get(&code) {
            None => 0,
            Some(page) => {
                let records = encode::validate_region(page).map_err(ReadFault::Decode)?;
                out.extend_from_slice(page);
                records
            }
        };
        Ok(CopiedRead {
            records,
            injected_latency_us,
        })
    }

    /// One read attempt that returns the page's decoded records.
    pub fn decode_attempt(&mut self, code: u64, attempt: u32) -> Result<BucketRead, ReadFault> {
        let injected_latency_us = self.admit(code, attempt)?;
        let records = self.decode(code).map_err(ReadFault::Decode)?;
        Ok(BucketRead {
            records,
            injected_latency_us,
        })
    }

    /// The page decoded from the bytes borrowed under the guard. Counts
    /// no read.
    fn decode(&mut self, code: u64) -> Result<Vec<Record>, DecodeError> {
        match self.pages().get(&code) {
            None => Ok(Vec::new()),
            Some(region) => encode::decode_all_bytes(region, 0),
        }
    }

    /// One read attempt that lends the stored bytes (`None` when nothing
    /// is resident under `code`) to `read`, returning its result and the
    /// injected latency. Parity reconstruction gathers stripe shards
    /// through this without copying a page out of the store.
    pub fn with_page<R>(
        &mut self,
        code: u64,
        attempt: u32,
        read: impl FnOnce(Option<&[u8]>) -> R,
    ) -> Result<(R, u64), ReadFault> {
        let injected_latency_us = self.admit(code, attempt)?;
        let page = self.pages().get(&code).map(Vec::as_slice);
        Ok((read(page), injected_latency_us))
    }
}

impl Drop for ShareReader<'_> {
    fn drop(&mut self) {
        if self.reads > 0 {
            self.device
                .bucket_reads
                .fetch_add(self.reads, Ordering::Relaxed);
        }
    }
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
        assert_eq!(
            d.reader(PageStore::Mirror).decode_attempt(1, 0),
            Err(ReadFault::Outage)
        );
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
        let mirror = |bucket| d.reader(PageStore::Mirror).decode_attempt(bucket, 0);
        assert_eq!(mirror(5).unwrap().records, [rec(2), rec(3)]);
        assert!(mirror(4).unwrap().records.is_empty());
        // install_mirror_page replaces, append_mirror appends.
        let page = d.raw_page(4).unwrap();
        d.install_mirror_page(5, &page);
        assert_eq!(mirror(5).unwrap().records, [rec(1)]);
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
    fn copied_reads_ship_the_stored_bytes_or_the_decode_fault() {
        let d = Device::new(0);
        d.append(3, &rec(1));
        d.append(3, &rec(2));
        d.append_mirror(4, &rec(5));
        let mut out = vec![0xaa];
        let mut primary = d.reader(PageStore::Primary);
        let got = primary.copy_attempt(3, 0, &mut out).unwrap();
        assert_eq!(got.records, 2);
        assert_eq!(out[1..], d.raw_page(3).unwrap()[..]);
        out.clear();
        assert_eq!(primary.copy_attempt(9, 0, &mut out).unwrap().records, 0);
        let mut mirror = d.reader(PageStore::Mirror);
        assert_eq!(mirror.copy_attempt(4, 0, &mut out).unwrap().records, 1);
        assert_eq!(encode::decode_all_bytes(&out, 0).unwrap(), vec![rec(5)]);
        drop(mirror);
        // Reads are counted on the reader and added when it drops.
        assert_eq!(d.bucket_reads(), 1);
        drop(primary);
        assert_eq!(d.bucket_reads(), 3);
        // Corrupt at rest: the decode's own error, and nothing appended.
        d.inject_corruption(3, &[0x01, 0, 0, 0, 0x7f]);
        out.clear();
        assert_eq!(
            d.reader(PageStore::Primary).copy_attempt(3, 0, &mut out),
            Err(ReadFault::Decode(DecodeError::BadTag(0x7f)))
        );
        assert_eq!(
            d.read_bucket_attempt(3, 0).map(|r| r.records.len()),
            Err(ReadFault::Decode(DecodeError::BadTag(0x7f)))
        );
        assert!(out.is_empty());
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(1).with_dead_device(0))));
        assert_eq!(
            d.reader(PageStore::Primary).copy_attempt(4, 0, &mut out),
            Err(ReadFault::Outage)
        );
    }

    #[test]
    fn readers_lend_pages_and_snapshot_the_fault_plan() {
        let d = Device::new(0);
        d.append(7, &rec(1));
        d.install_parity_page(2, b"shard");
        let mut parity = d.reader(PageStore::Parity);
        assert_eq!(
            parity.with_page(2, 0, |b| b.map(<[u8]>::to_vec)),
            Ok((Some(b"shard".to_vec()), 0))
        );
        assert_eq!(parity.with_page(3, 0, |b| b.is_none()), Ok((true, 0)));
        drop(parity);
        // A plan installed after a reader opened does not reach it; the
        // next reader sees it.
        let mut before = d.reader(PageStore::Primary);
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(1).with_dead_device(0))));
        assert_eq!(before.with_page(7, 0, |b| b.is_some()), Ok((true, 0)));
        drop(before);
        assert_eq!(
            d.reader(PageStore::Primary)
                .with_page(7, 0, |b| b.is_some()),
            Err(ReadFault::Outage)
        );
        // Outages issue no read; the three above did.
        assert_eq!(d.bucket_reads(), 3);
    }

    #[test]
    fn a_reader_on_a_dead_device_never_locks_its_store() {
        let d = Device::new(0);
        d.append(1, &rec(1));
        d.set_fault_plan(Some(Arc::new(FaultPlan::new(1).with_dead_device(0))));
        let mut reader = d.reader(PageStore::Primary);
        let mut out = Vec::new();
        assert_eq!(reader.copy_attempt(1, 0, &mut out), Err(ReadFault::Outage));
        assert_eq!(
            reader.decode_attempt(1, 0).map(|r| r.records),
            Err(ReadFault::Outage)
        );
        // The reader is still open, yet a writer gets through.
        d.append(1, &rec(2));
        drop(reader);
        d.set_fault_plan(None);
        assert_eq!(&*d.read_bucket(1).unwrap(), &[rec(1), rec(2)][..]);
    }

    /// A read decodes under the store's read guard, so it sees whole
    /// appends only: each read is a prefix of the appends, at least as
    /// long as the appends finished before it began.
    #[test]
    fn reads_see_a_growing_prefix_of_concurrent_appends() {
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

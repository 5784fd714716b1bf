//! Declustered files: schema + multi-key hash + distribution method +
//! devices.

use crate::device::Device;
use crate::encode::DecodeError;
use crate::mirror::Mirroring;
use crate::parity::ParityStore;
use pmr_core::method::DistributionMethod;
use pmr_core::{PartialMatchQuery, SystemConfig};
use pmr_mkh::{MkhError, MultiKeyHash, Record, Schema, Value};
use pmr_rt::fault::FaultPlan;
use std::sync::Arc;

/// Errors raised by file operations.
#[derive(Debug)]
pub enum FileError {
    /// The distribution method was built for a different system than the
    /// schema induces.
    SystemMismatch {
        /// System description from the schema.
        schema_system: String,
        /// System description from the method.
        method_system: String,
    },
    /// Hashing/validation failure from the mkh layer.
    Mkh(MkhError),
    /// A stored bucket page failed to decode (indicates corruption).
    Decode(DecodeError),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::SystemMismatch {
                schema_system,
                method_system,
            } => write!(
                f,
                "distribution method system ({method_system}) does not match schema \
                 system ({schema_system})"
            ),
            FileError::Mkh(e) => write!(f, "{e}"),
            FileError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FileError {}

impl From<MkhError> for FileError {
    fn from(e: MkhError) -> Self {
        FileError::Mkh(e)
    }
}

impl From<DecodeError> for FileError {
    fn from(e: DecodeError) -> Self {
        FileError::Decode(e)
    }
}

/// A multi-key-hashed file declustered over `M` simulated devices.
///
/// # Examples
///
/// ```
/// use pmr_core::FxDistribution;
/// use pmr_mkh::{FieldType, Record, Schema, Value};
/// use pmr_storage::DeclusteredFile;
///
/// let schema = Schema::builder()
///     .field("author", FieldType::Str, 8)
///     .field("year", FieldType::Int, 8)
///     .devices(4)
///     .build()
///     .unwrap();
/// let fx = FxDistribution::auto(schema.system().clone()).unwrap();
/// let mut file = DeclusteredFile::new(schema, fx, 42).unwrap();
/// file.insert(Record::new(vec!["Codd".into(), Value::Int(1970)])).unwrap();
/// assert_eq!(file.record_count(), 1);
/// ```
pub struct DeclusteredFile<D: DistributionMethod> {
    mkh: MultiKeyHash,
    method: D,
    devices: Vec<Arc<Device>>,
    record_count: u64,
    hash_seed: u64,
    /// Buddy-device mirroring, when enabled
    /// ([`DeclusteredFile::enable_mirroring`]).
    mirroring: Option<Mirroring>,
    /// Erasure-coded parity, when enabled
    /// ([`DeclusteredFile::enable_parity`]). Shared with executors by
    /// `Arc` — the store interior-mutates its stripe directory.
    parity: Option<Arc<ParityStore>>,
    /// The host's available parallelism, read once at construction: the
    /// probe costs tens of µs, too much to pay per insert batch.
    cores: usize,
}

impl<D: DistributionMethod> DeclusteredFile<D> {
    /// Creates an empty declustered file.
    ///
    /// # Errors
    ///
    /// [`FileError::SystemMismatch`] when `method.system()` differs from
    /// the schema's induced system.
    pub fn new(schema: Schema, method: D, hash_seed: u64) -> Result<Self, FileError> {
        if method.system() != schema.system() {
            return Err(FileError::SystemMismatch {
                schema_system: schema.system().to_string(),
                method_system: method.system().to_string(),
            });
        }
        let m = schema.system().devices();
        let devices = (0..m).map(|i| Arc::new(Device::new(i))).collect();
        Ok(DeclusteredFile {
            mkh: MultiKeyHash::new(schema, hash_seed),
            method,
            devices,
            record_count: 0,
            hash_seed,
            mirroring: None,
            parity: None,
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        })
    }

    /// Enables buddy-device mirroring: every resident page is copied to
    /// the buddy of its home device (`d ⊕ M/2`, see
    /// [`crate::mirror::Mirroring`]) and every future insert double-writes.
    /// Returns `false` (mirroring impossible) on a single-device system.
    /// Idempotent — re-enabling re-mirrors the resident data.
    pub fn enable_mirroring(&mut self) -> bool {
        match Mirroring::new(self.system().devices()) {
            None => false,
            Some(pairing) => {
                pairing.mirror_resident(&self.devices);
                self.mirroring = Some(pairing);
                true
            }
        }
    }

    /// The active buddy pairing, when mirroring is enabled.
    pub fn mirroring(&self) -> Option<&Mirroring> {
        self.mirroring.as_ref()
    }

    /// Enables erasure-coded parity: resident buckets are grouped into
    /// `k`-data + `r`-parity Reed–Solomon stripes over distinct devices
    /// (see [`crate::parity::ParityStore`]) and every future insert
    /// re-encodes its stripe. Returns `false` when the geometry does not
    /// fit (`k + r > M`). Idempotent — re-enabling with the same or a new
    /// geometry re-protects the resident data from scratch.
    pub fn enable_parity(&mut self, k: usize, r: usize) -> bool {
        match ParityStore::new(k, r, self.system().devices()) {
            None => false,
            Some(store) => {
                store.reprotect_resident(&self.devices);
                self.parity = Some(Arc::new(store));
                true
            }
        }
    }

    /// The active parity store, when erasure coding is enabled.
    pub fn parity(&self) -> Option<&Arc<ParityStore>> {
        self.parity.as_ref()
    }

    /// Installs (or removes, with `None`) a fault plan on every device.
    /// The executor's policy-driven path
    /// ([`crate::exec::execute_parallel_with`]) then sees the plan's
    /// injected faults on each read attempt.
    pub fn install_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        for device in &self.devices {
            device.set_fault_plan(plan.clone());
        }
    }

    /// Sets the decoded-page cache capacity (in pages, 0 disables) on
    /// every device. Purely a wall-clock knob: query results and
    /// simulated costs are identical at any setting.
    pub fn set_cache_capacity(&self, capacity: usize) {
        for device in &self.devices {
            device.set_cache_capacity(capacity);
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.mkh.schema()
    }

    /// The bucket space / device count.
    pub fn system(&self) -> &SystemConfig {
        self.mkh.schema().system()
    }

    /// The distribution method.
    pub fn method(&self) -> &D {
        &self.method
    }

    /// The multi-key hash.
    pub fn mkh(&self) -> &MultiKeyHash {
        &self.mkh
    }

    /// The simulated devices.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Total records inserted.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Inserts a record: multi-key hash → packed bucket code → device →
    /// append. Returns the `(bucket, device)` placement.
    pub fn insert(&mut self, record: Record) -> Result<(Vec<u64>, u64), FileError> {
        let code = self.mkh.bucket_code_of(&record)?;
        let device = self.method.device_of_packed(code);
        self.devices[device as usize].append(code, &record);
        if let Some(pairing) = &self.mirroring {
            pairing.mirror_record(&self.devices, device, code, &record);
        }
        if let Some(parity) = &self.parity {
            parity.note_append(&self.devices, code, device);
        }
        self.record_count += 1;
        Ok((self.system().packed_layout().unpack(code), device))
    }

    /// Bulk insert.
    pub fn insert_all<I: IntoIterator<Item = Record>>(
        &mut self,
        records: I,
    ) -> Result<u64, FileError> {
        let mut inserted = 0;
        for r in records {
            self.insert(r)?;
            inserted += 1;
        }
        Ok(inserted)
    }

    /// Parallel bulk insert: hashes and validates on the caller thread,
    /// then *streams* the records through a resident worker pool in
    /// chunks. Each chunk's codes are routed in bulk with
    /// [`DistributionMethod::device_of_batch`], counting-sorted into
    /// per-device append runs, and shipped to the workers — so routing of
    /// chunk `k+1` overlaps the appends of chunk `k`, and a worker
    /// receives one run per chunk instead of per-record jobs. Records are
    /// shared by `Arc`, so mirroring double-writes without cloning.
    ///
    /// The pool holds `min(M, available_parallelism)` workers and device
    /// `d` maps to worker `d % W` — spawning more threads than cores only
    /// adds startup cost. On a single-core host (`W == 1`) the runs are
    /// appended inline on the caller thread: the batched routing and
    /// run-grouped appends still apply, without any thread hand-off.
    ///
    /// Placement is identical to [`DeclusteredFile::insert_all`]; only the
    /// append work is parallelised. Per-device FIFO mailboxes plus stable
    /// counting sort keep every device's append order equal to the serial
    /// input order (all of device `d`'s runs land on worker `d % W` in
    /// chunk order). All-or-nothing on validation errors: nothing is
    /// appended unless every record hashes cleanly.
    pub fn insert_all_parallel(&mut self, records: Vec<Record>) -> Result<u64, FileError> {
        /// Records routed per `device_of_batch` call. Large enough to
        /// amortise job dispatch, small enough that codes + runs stay
        /// cache-resident while workers drain the previous chunk.
        const CHUNK: usize = 4096;
        let m = self.system().devices() as usize;
        // Phase 1 (serial): hash every record up front. Fails before any
        // mutation, preserving the all-or-nothing contract.
        let mut codes = Vec::with_capacity(records.len());
        for record in &records {
            codes.push(self.mkh.bucket_code_of(record)?);
        }
        let total = records.len() as u64;
        if total == 0 {
            self.record_count += total;
            return Ok(total);
        }
        // Phase 2 (streamed): route chunks in bulk on the caller thread,
        // ship per-device append runs to resident workers (worker `d`
        // owns device `d` and, under mirroring, writes the mirror run of
        // its buddy's records — no cross-device lock contention).
        let mirroring = self.mirroring;
        let records = Arc::new(records);
        let codes = Arc::new(codes);
        let workers = self.cores.min(m);
        let pool = (workers > 1).then(|| pmr_rt::pool::resident::ResidentPool::new(workers));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let mut jobs = 0usize;
        let mut devs = vec![0u64; CHUNK.min(records.len())];
        let mut start = 0usize;
        while start < records.len() {
            let end = (start + CHUNK).min(records.len());
            let n = end - start;
            self.method
                .device_of_batch(&codes[start..end], &mut devs[..n]);
            pmr_rt::obs::counter_add("insert.batched_records", n as u64);
            // Stable counting sort of the chunk's record indices into
            // per-device runs: run `d` is `order[offsets[d]..offsets[d+1]]`,
            // each run in input order.
            let mut offsets = vec![0usize; m + 1];
            for &d in &devs[..n] {
                offsets[d as usize + 1] += 1;
            }
            for d in 0..m {
                offsets[d + 1] += offsets[d];
            }
            let mut cursor = offsets.clone();
            let mut order = vec![0u32; n];
            for (i, &d) in devs[..n].iter().enumerate() {
                order[cursor[d as usize]] = (start + i) as u32;
                cursor[d as usize] += 1;
            }
            let runs = Arc::new((offsets, order));
            for (d, device) in self.devices.iter().enumerate() {
                let primary = runs.0[d + 1] > runs.0[d];
                let mirror = mirroring.is_some_and(|p| {
                    let b = p.buddy_of(d as u64) as usize;
                    runs.0[b + 1] > runs.0[b]
                });
                if !primary && !mirror {
                    continue;
                }
                let Some(pool) = &pool else {
                    // Single-core host: same run-grouped appends, inline.
                    let (offsets, order) = &*runs;
                    for &i in &order[offsets[d]..offsets[d + 1]] {
                        device.append(codes[i as usize], &records[i as usize]);
                    }
                    if let Some(pairing) = mirroring {
                        let b = pairing.buddy_of(d as u64) as usize;
                        for &i in &order[offsets[b]..offsets[b + 1]] {
                            device.append_mirror(codes[i as usize], &records[i as usize]);
                        }
                    }
                    continue;
                };
                let device = Arc::clone(device);
                let records = Arc::clone(&records);
                let codes = Arc::clone(&codes);
                let runs = Arc::clone(&runs);
                let tx = tx.clone();
                pool.submit(d % workers, move || {
                    let (offsets, order) = &*runs;
                    for &i in &order[offsets[d]..offsets[d + 1]] {
                        device.append(codes[i as usize], &records[i as usize]);
                    }
                    if let Some(pairing) = mirroring {
                        let b = pairing.buddy_of(d as u64) as usize;
                        for &i in &order[offsets[b]..offsets[b + 1]] {
                            device.append_mirror(codes[i as usize], &records[i as usize]);
                        }
                    }
                    let _ = tx.send(());
                });
                jobs += 1;
            }
            start = end;
        }
        drop(tx);
        let acked = rx.iter().count();
        if acked != jobs {
            // A worker died mid-stream; surface its panic like the scoped
            // executors would.
            if let Some(payload) = pool.as_ref().and_then(|p| p.take_panic()) {
                std::panic::resume_unwind(payload);
            }
            panic!("resident worker stopped without reporting a panic");
        }
        if let Some(parity) = &self.parity {
            // After the append barrier: every touched stripe re-encodes
            // exactly once, however many records it received.
            let mut homes = vec![0u64; codes.len()];
            self.method.device_of_batch(&codes, &mut homes);
            parity.note_appends(&self.devices, codes.iter().copied().zip(homes));
        }
        self.record_count += total;
        Ok(total)
    }

    /// Builds a [`PartialMatchQuery`] from named attribute specifications.
    pub fn query(&self, specs: &[(&str, Value)]) -> Result<PartialMatchQuery, FileError> {
        Ok(self.mkh.query(specs)?)
    }

    /// Per-device resident-bucket counts — the static balance of the file.
    pub fn bucket_occupancy(&self) -> Vec<usize> {
        self.devices
            .iter()
            .map(|d| d.resident_bucket_count())
            .collect()
    }

    /// Per-device record counts.
    pub fn record_occupancy(&self) -> Vec<u64> {
        self.devices.iter().map(|d| d.records_written()).collect()
    }

    /// Retrieves exactly the records whose *attribute values* equal every
    /// specification — i.e. [`DeclusteredFile::retrieve_serial`] followed
    /// by exact post-filtering. Multi-key hashing retrieves hash-class
    /// matches (possible false positives, never false negatives); this is
    /// the user-facing "give me the actual rows" call.
    pub fn retrieve_exact(&self, specs: &[(&str, Value)]) -> Result<Vec<Record>, FileError> {
        let query = self.query(specs)?;
        let schema = self.schema();
        let wanted: Vec<(usize, &Value)> = specs
            .iter()
            .map(|(name, value)| {
                let idx = schema
                    .field_index(name)
                    .expect("query() above validated every field name");
                (idx, value)
            })
            .collect();
        let mut out = self.retrieve_serial(&query)?;
        out.retain(|r| wanted.iter().all(|&(idx, value)| r.values()[idx] == *value));
        Ok(out)
    }

    /// Persistence support: sets the record counter after
    /// [`crate::persist::load`] installs pages directly on devices.
    pub(crate) fn set_record_count(&mut self, count: u64) {
        self.record_count = count;
    }

    /// Migrates the file to a new schema/method pair (e.g. after a
    /// [`pmr_mkh::DynamicDirectory`] expansion doubled a field): drains
    /// every device, re-hashes every resident record under the new
    /// schema, and re-appends under the new method.
    ///
    /// This is the storage half of dynamic growth; the paper's
    /// power-of-two assumption exists precisely so this operation is a
    /// per-bucket *split* rather than a global reshuffle (each old bucket
    /// maps onto exactly two new ones when one field doubles).
    ///
    /// # Errors
    ///
    /// * [`FileError::SystemMismatch`] when `method.system()` differs from
    ///   `new_schema.system()`.
    /// * [`FileError::Decode`] when a resident page fails to decode.
    /// * [`FileError::Mkh`] when a resident record no longer type-checks
    ///   against the new schema (only possible if the schema changed
    ///   types, which growth never does).
    pub fn redistribute(self, new_schema: Schema, method: D) -> Result<Self, FileError> {
        if method.system() != new_schema.system() {
            return Err(FileError::SystemMismatch {
                schema_system: new_schema.system().to_string(),
                method_system: method.system().to_string(),
            });
        }
        let mut records = Vec::new();
        for device in &self.devices {
            for (_, recs) in device.drain()? {
                records.extend(recs);
            }
        }
        let mut new_file = DeclusteredFile::new(new_schema, method, self.hash_seed)?;
        if self.mirroring.is_some() {
            new_file.enable_mirroring();
        }
        new_file.insert_all(records)?;
        if let Some(parity) = &self.parity {
            // Re-protect after the bulk re-insert so each stripe encodes
            // once, not once per record.
            new_file.enable_parity(parity.k(), parity.r());
        }
        Ok(new_file)
    }

    /// Serially retrieves every record matching `query` (reference
    /// implementation; the parallel path lives in [`crate::exec`]).
    /// Records whose *attribute values* don't match the original
    /// specification may appear — multi-key hashing retrieves hash-class
    /// matches, and exact post-filtering is the caller's concern (as in
    /// the paper's model, which counts bucket accesses).
    pub fn retrieve_serial(&self, query: &PartialMatchQuery) -> Result<Vec<Record>, FileError> {
        let sys = self.system();
        let mut out = Vec::new();
        let mut it = query.qualified_buckets(sys);
        while let Some(code) = it.next_code() {
            let device = self.method.device_of_packed(code);
            out.extend_from_slice(&self.devices[device as usize].read_bucket(code)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::FxDistribution;
    use pmr_mkh::FieldType;

    fn schema() -> Schema {
        Schema::builder()
            .field("author", FieldType::Str, 8)
            .field("year", FieldType::Int, 8)
            .devices(4)
            .build()
            .unwrap()
    }

    fn sample_records(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(vec![
                    format!("author{}", i % 10).into(),
                    Value::Int(1960 + (i % 40)),
                ])
            })
            .collect()
    }

    #[test]
    fn insert_places_on_method_device() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 7).unwrap();
        let r = Record::new(vec!["Codd".into(), Value::Int(1970)]);
        let (bucket, device) = file.insert(r.clone()).unwrap();
        assert_eq!(device, file.method().device_of(&bucket));
        let occupancy = file.record_occupancy();
        assert_eq!(occupancy.iter().sum::<u64>(), 1);
        assert_eq!(occupancy[device as usize], 1);
    }

    #[test]
    fn system_mismatch_rejected() {
        let schema = schema();
        let other_sys = SystemConfig::new(&[8, 8], 8).unwrap();
        let fx = FxDistribution::auto(other_sys).unwrap();
        assert!(matches!(
            DeclusteredFile::new(schema, fx, 7),
            Err(FileError::SystemMismatch { .. })
        ));
    }

    #[test]
    fn serial_retrieval_finds_matching_records() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 7).unwrap();
        file.insert_all(sample_records(400)).unwrap();
        assert_eq!(file.record_count(), 400);

        let q = file.query(&[("author", "author3".into())]).unwrap();
        let got = file.retrieve_serial(&q).unwrap();
        // Every record with author3 must be present (hash-class matching
        // may include extra same-class authors, never fewer).
        let expected = sample_records(400)
            .into_iter()
            .filter(|r| r.values()[0] == Value::from("author3"))
            .count();
        let with_author3 = got
            .iter()
            .filter(|r| r.values()[0] == Value::from("author3"))
            .count();
        assert_eq!(with_author3, expected);
    }

    #[test]
    fn redistribute_after_growth_preserves_records() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema.clone(), fx, 7).unwrap();
        file.insert_all(sample_records(300)).unwrap();

        // Double the first field (8 -> 16) and redistribute.
        let grown = schema.with_field_size(0, 16).unwrap();
        let fx2 = FxDistribution::auto(grown.system().clone()).unwrap();
        let file = file.redistribute(grown, fx2).unwrap();
        assert_eq!(file.record_count(), 300);
        assert_eq!(file.record_occupancy().iter().sum::<u64>(), 300);

        // Every original record is still retrievable by exact attribute
        // specification.
        for r in sample_records(300).iter().step_by(37) {
            let q = file
                .query(&[
                    ("author", r.values()[0].clone()),
                    ("year", r.values()[1].clone()),
                ])
                .unwrap();
            assert!(file.retrieve_serial(&q).unwrap().contains(r));
        }
    }

    #[test]
    fn redistribute_rejects_mismatched_method() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema.clone(), fx, 7).unwrap();
        file.insert_all(sample_records(10)).unwrap();
        let grown = schema.with_field_size(0, 16).unwrap();
        let wrong = FxDistribution::auto(schema.system().clone()).unwrap();
        assert!(matches!(
            file.redistribute(grown, wrong),
            Err(FileError::SystemMismatch { .. })
        ));
    }

    #[test]
    fn retrieve_exact_filters_hash_collisions() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 7).unwrap();
        file.insert_all(sample_records(400)).unwrap();
        let got = file
            .retrieve_exact(&[("author", "author3".into())])
            .unwrap();
        let expected: Vec<Record> = sample_records(400)
            .into_iter()
            .filter(|r| r.values()[0] == Value::from("author3"))
            .collect();
        assert_eq!(got.len(), expected.len());
        assert!(got.iter().all(|r| r.values()[0] == Value::from("author3")));
    }

    #[test]
    fn parallel_insert_matches_serial() {
        let schema = schema();
        let records = sample_records(1000);
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut serial = DeclusteredFile::new(schema.clone(), fx.clone(), 7).unwrap();
        serial.insert_all(records.clone()).unwrap();
        let mut parallel = DeclusteredFile::new(schema, fx, 7).unwrap();
        assert_eq!(parallel.insert_all_parallel(records).unwrap(), 1000);
        assert_eq!(parallel.record_count(), 1000);
        assert_eq!(serial.record_occupancy(), parallel.record_occupancy());
        assert_eq!(serial.bucket_occupancy(), parallel.bucket_occupancy());
        // Same answers to the same query.
        let q = serial.query(&[("author", "author1".into())]).unwrap();
        let mut a = serial.retrieve_serial(&q).unwrap();
        let mut b = parallel.retrieve_serial(&q).unwrap();
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
    }

    #[test]
    fn mirroring_double_writes_without_touching_occupancy() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 7).unwrap();
        // Enable on a file that already holds data: resident pages get
        // re-mirrored, later inserts double-write.
        file.insert_all(sample_records(100)).unwrap();
        assert!(file.mirroring().is_none());
        assert!(file.enable_mirroring());
        file.insert_all(sample_records(50)).unwrap();
        let pairing = *file.mirroring().unwrap();
        // Every primary page has an identical mirror page on the buddy.
        for device in file.devices() {
            let buddy = &file.devices()[pairing.buddy_of(device.id()) as usize];
            for bucket in device.resident_buckets() {
                assert_eq!(
                    &*device.read_bucket(bucket).unwrap(),
                    &*buddy.read_mirror_attempt(bucket, 0).unwrap().records,
                    "mirror mismatch on bucket {bucket}"
                );
            }
        }
        // Occupancy accounting only sees primaries.
        assert_eq!(file.record_occupancy().iter().sum::<u64>(), 150);
    }

    #[test]
    fn parallel_insert_mirrors_identically_to_serial() {
        let schema = schema();
        let records = sample_records(400);
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut serial = DeclusteredFile::new(schema.clone(), fx.clone(), 7).unwrap();
        serial.enable_mirroring();
        serial.insert_all(records.clone()).unwrap();
        let mut parallel = DeclusteredFile::new(schema, fx, 7).unwrap();
        parallel.enable_mirroring();
        parallel.insert_all_parallel(records).unwrap();
        for (a, b) in serial.devices().iter().zip(parallel.devices()) {
            assert_eq!(a.mirror_buckets(), b.mirror_buckets());
            for bucket in a.mirror_buckets() {
                assert_eq!(
                    a.read_mirror_attempt(bucket, 0).unwrap().records,
                    b.read_mirror_attempt(bucket, 0).unwrap().records
                );
            }
        }
    }

    #[test]
    fn redistribute_preserves_mirroring() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema.clone(), fx, 7).unwrap();
        file.enable_mirroring();
        file.insert_all(sample_records(60)).unwrap();
        let grown = schema.with_field_size(0, 16).unwrap();
        let fx2 = FxDistribution::auto(grown.system().clone()).unwrap();
        let file = file.redistribute(grown, fx2).unwrap();
        assert!(file.mirroring().is_some());
        let mirrored: usize = file.devices().iter().map(|d| d.mirror_bucket_count()).sum();
        let primary: usize = file.bucket_occupancy().iter().sum();
        assert_eq!(mirrored, primary);
    }

    #[test]
    fn single_device_cannot_mirror() {
        let schema = Schema::builder()
            .field("k", FieldType::Int, 8)
            .devices(1)
            .build()
            .unwrap();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 7).unwrap();
        assert!(!file.enable_mirroring());
        assert!(file.mirroring().is_none());
    }

    #[test]
    fn occupancy_sums_to_total() {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, 11).unwrap();
        file.insert_all(sample_records(256)).unwrap();
        assert_eq!(file.record_occupancy().iter().sum::<u64>(), 256);
        assert!(file.bucket_occupancy().iter().sum::<usize>() <= 64);
    }
}

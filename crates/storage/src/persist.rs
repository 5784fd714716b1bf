//! Persistence: snapshot a declustered file to disk and load it back.
//!
//! Layout: one file per simulated device (`device-<id>.pmr`) containing a
//! sequence of `(bucket index: u64 LE, page length: u32 LE, page bytes)`
//! frames, plus a `manifest.pmr` header recording the schema shape and
//! record count. The record pages are the same wire format as the
//! in-memory bucket regions ([`crate::encode`]), so persistence adds no
//! second serialization path to keep consistent.
//!
//! Scope: snapshots, not a WAL. The simulator's purpose is experiments;
//! a snapshot makes long-running setups (large synthetic files)
//! restartable. Schema and distribution method are *checked*, not stored
//! — the caller re-supplies them and the manifest verifies shape
//! compatibility, which keeps methods (arbitrary Rust values) out of the
//! on-disk format.
//!
//! Redundancy tiers are **derived data** and never persisted: only
//! primary pages reach disk. Mirror copies and parity stripes are
//! rebuilt from primaries by calling
//! [`DeclusteredFile::enable_mirroring`] /
//! [`DeclusteredFile::enable_parity`] on the loaded file, exactly as on
//! a freshly built one — so a snapshot taken with protection on and a
//! snapshot taken without are byte-identical.

use crate::device::Device;
use crate::file::{DeclusteredFile, FileError};
use pmr_core::method::DistributionMethod;
use pmr_mkh::Schema;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes and version of the manifest format.
const MAGIC: &[u8; 8] = b"PMRSNAP1";

/// Sanity cap on a single bucket page. A corrupted length field must not
/// be allowed to demand a multi-gigabyte allocation before the short read
/// is even noticed — any claimed length beyond this is a [`PersistError::BadFrame`].
const MAX_PAGE_BYTES: u32 = 1 << 28; // 256 MiB

/// Errors raised by snapshot save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The manifest is missing, corrupt, or a different version.
    BadManifest(String),
    /// The on-disk snapshot was taken for a different schema shape.
    SchemaMismatch {
        /// What the manifest recorded.
        on_disk: String,
        /// What the caller supplied.
        supplied: String,
    },
    /// A device frame was truncated or malformed.
    BadFrame(String),
    /// Wrapped file-layer error during reconstruction.
    File(FileError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            PersistError::SchemaMismatch { on_disk, supplied } => {
                write!(
                    f,
                    "snapshot taken for {on_disk}, supplied schema is {supplied}"
                )
            }
            PersistError::BadFrame(m) => write!(f, "bad device frame: {m}"),
            PersistError::File(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<FileError> for PersistError {
    fn from(e: FileError) -> Self {
        PersistError::File(e)
    }
}

/// A compact shape fingerprint of a schema: field sizes + device count.
fn shape_of(schema: &Schema) -> Vec<u64> {
    let mut shape = schema.system().field_sizes().to_vec();
    shape.push(schema.system().devices());
    shape
}

/// Saves a snapshot of `file` under `dir` (created if absent).
pub fn save<D: DistributionMethod>(
    file: &DeclusteredFile<D>,
    dir: &Path,
) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    // Manifest: magic, shape length, shape values, record count.
    let mut manifest = BufWriter::new(File::create(dir.join("manifest.pmr"))?);
    manifest.write_all(MAGIC)?;
    let shape = shape_of(file.schema());
    manifest.write_all(&(shape.len() as u32).to_le_bytes())?;
    for v in &shape {
        manifest.write_all(&v.to_le_bytes())?;
    }
    manifest.write_all(&file.record_count().to_le_bytes())?;
    manifest.flush()?;

    for device in file.devices() {
        save_device(device, &dir.join(format!("device-{}.pmr", device.id())))?;
    }
    Ok(())
}

fn save_device(device: &Device, path: &Path) -> Result<(), PersistError> {
    let mut out = BufWriter::new(File::create(path)?);
    for bucket in device.resident_buckets() {
        let page = device.raw_page(bucket).expect("resident bucket has a page");
        out.write_all(&bucket.to_le_bytes())?;
        out.write_all(&(page.len() as u32).to_le_bytes())?;
        out.write_all(&page)?;
    }
    out.flush()?;
    Ok(())
}

/// Loads a snapshot from `dir` into a fresh [`DeclusteredFile`] using the
/// supplied schema/method/seed (which must match the snapshot's shape —
/// the manifest is verified, and the caller is responsible for supplying
/// the same hash seed that built the snapshot, exactly as with any
/// hash-partitioned store).
pub fn load<D: DistributionMethod>(
    dir: &Path,
    schema: Schema,
    method: D,
    hash_seed: u64,
) -> Result<DeclusteredFile<D>, PersistError> {
    // Manifest.
    let mut manifest = BufReader::new(File::open(dir.join("manifest.pmr"))?);
    let mut magic = [0u8; 8];
    manifest.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadManifest("wrong magic/version".into()));
    }
    let shape_len = read_u32(&mut manifest)? as usize;
    if shape_len > 64 {
        return Err(PersistError::BadManifest(format!(
            "absurd shape length {shape_len}"
        )));
    }
    let mut shape = Vec::with_capacity(shape_len);
    for _ in 0..shape_len {
        shape.push(read_u64(&mut manifest)?);
    }
    let record_count = read_u64(&mut manifest)?;
    let expected_shape = shape_of(&schema);
    if shape != expected_shape {
        return Err(PersistError::SchemaMismatch {
            on_disk: format!("{shape:?}"),
            supplied: format!("{expected_shape:?}"),
        });
    }

    let mut file = DeclusteredFile::new(schema, method, hash_seed)?;
    let mut loaded_records = 0u64;
    for device in file.devices() {
        let path = dir.join(format!("device-{}.pmr", device.id()));
        if !path.exists() {
            continue; // empty device saved nothing
        }
        let mut input = BufReader::new(File::open(path)?);
        loop {
            let mut bucket_bytes = [0u8; 8];
            match input.read_exact(&mut bucket_bytes) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let bucket = u64::from_le_bytes(bucket_bytes);
            let len = read_u32(&mut input).map_err(|e| {
                PersistError::BadFrame(format!("bucket {bucket}: truncated length field ({e})"))
            })?;
            if len > MAX_PAGE_BYTES {
                return Err(PersistError::BadFrame(format!(
                    "bucket {bucket}: claimed page length {len} exceeds the \
                     {MAX_PAGE_BYTES}-byte cap (corrupted frame?)"
                )));
            }
            let len = len as usize;
            let mut page = vec![0u8; len];
            input.read_exact(&mut page).map_err(|e| {
                PersistError::BadFrame(format!("bucket {bucket}: short page ({e})"))
            })?;
            // Validate the page decodes before installing it.
            let records = crate::encode::validate_region(&page)
                .map_err(|e| PersistError::BadFrame(format!("bucket {bucket}: {e}")))?;
            loaded_records += records;
            device.install_page(bucket, &page, records);
        }
    }
    if loaded_records != record_count {
        return Err(PersistError::BadManifest(format!(
            "manifest claims {record_count} records, devices held {loaded_records}"
        )));
    }
    file.set_record_count(loaded_records);
    Ok(file)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_core::FxDistribution;
    use pmr_mkh::{FieldType, Record, Value};

    fn schema() -> Schema {
        Schema::builder()
            .field("k", FieldType::Int, 8)
            .field("t", FieldType::Str, 4)
            .devices(4)
            .build()
            .unwrap()
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pmr-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn build(records: i64, seed: u64) -> DeclusteredFile<FxDistribution> {
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, seed).unwrap();
        for i in 0..records {
            file.insert(Record::new(vec![
                Value::Int(i),
                format!("t{}", i % 7).into(),
            ]))
            .unwrap();
        }
        file
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let original = build(500, 9);
        save(&original, &dir).unwrap();

        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let loaded = load(&dir, schema, fx, 9).unwrap();
        assert_eq!(loaded.record_count(), 500);
        assert_eq!(loaded.record_occupancy(), original.record_occupancy());

        // Same query, same answers.
        let q = original.query(&[("t", "t3".into())]).unwrap();
        let mut a = original.retrieve_serial(&q).unwrap();
        let mut b = loaded.retrieve_serial(&q).unwrap();
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Parity is derived, not persisted: a snapshot of a parity-protected
    /// file carries no parity bytes, and `enable_parity` on the loaded
    /// file rebuilds the identical protection (same stripe shard bytes).
    #[test]
    fn parity_rebuilds_after_load() {
        let dir = temp_dir("parityrebuild");
        let mut original = build(200, 11);
        assert!(original.enable_parity(2, 1), "k + r = 3 <= 4 devices");
        save(&original, &dir).unwrap();

        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut loaded = load(&dir, schema, fx, 11).unwrap();
        assert!(
            loaded.devices().iter().all(|d| d.parity_shard_count() == 0),
            "snapshots must not carry parity shards"
        );
        assert!(loaded.enable_parity(2, 1));
        for (a, b) in original.devices().iter().zip(loaded.devices()) {
            assert_eq!(a.parity_shard_count(), b.parity_shard_count());
            assert_eq!(a.parity_bytes(), b.parity_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_round_trips() {
        let dir = temp_dir("empty");
        let original = build(0, 1);
        save(&original, &dir).unwrap();
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let loaded = load(&dir, schema, fx, 1).unwrap();
        assert_eq!(loaded.record_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_mismatch_rejected() {
        let dir = temp_dir("mismatch");
        save(&build(10, 2), &dir).unwrap();
        let other = Schema::builder()
            .field("k", FieldType::Int, 16)
            .field("t", FieldType::Str, 4)
            .devices(4)
            .build()
            .unwrap();
        let fx = FxDistribution::auto(other.system().clone()).unwrap();
        assert!(matches!(
            load(&dir, other, fx, 2),
            Err(PersistError::SchemaMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_manifest_rejected() {
        let dir = temp_dir("badmanifest");
        save(&build(10, 3), &dir).unwrap();
        fs::write(dir.join("manifest.pmr"), b"garbage!").unwrap();
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        assert!(matches!(
            load(&dir, schema, fx, 3),
            Err(PersistError::BadManifest(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Byte-level truncation at EVERY offset of the manifest — covering
    /// each section boundary (mid-magic, after magic, inside the shape
    /// length, inside each shape value, inside the record count) — must
    /// surface a [`PersistError`], never a panic.
    #[test]
    fn manifest_truncated_at_every_byte_errors() {
        let dir = temp_dir("truncmanifest");
        save(&build(30, 5), &dir).unwrap();
        let manifest_path = dir.join("manifest.pmr");
        let full = fs::read(&manifest_path).unwrap();
        // Manifest layout: magic(8) + shape_len(4) + shape(3×8) + count(8).
        assert_eq!(full.len(), 8 + 4 + 3 * 8 + 8);
        for keep in 0..full.len() {
            fs::write(&manifest_path, &full[..keep]).unwrap();
            let schema = schema();
            let fx = FxDistribution::auto(schema.system().clone()).unwrap();
            let err = load(&dir, schema, fx, 5)
                .err()
                .unwrap_or_else(|| panic!("truncation to {keep} bytes must fail"));
            assert!(
                matches!(err, PersistError::Io(_) | PersistError::BadManifest(_)),
                "truncation to {keep} bytes gave unexpected error: {err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Byte-level truncation at EVERY offset of a device file — covering
    /// each frame boundary (mid-bucket-index, mid-length, mid-page, and
    /// exactly between frames) — must surface a [`PersistError`], never a
    /// panic. Between-frame truncations look structurally valid, so they
    /// are caught by the manifest record-count cross-check instead.
    #[test]
    fn device_file_truncated_at_every_byte_errors() {
        let dir = temp_dir("truncdevice");
        save(&build(40, 6), &dir).unwrap();
        let victim = (0..4)
            .map(|i| dir.join(format!("device-{i}.pmr")))
            .find(|p| p.exists() && fs::metadata(p).unwrap().len() > 24)
            .expect("some device holds data");
        let full = fs::read(&victim).unwrap();
        for keep in 0..full.len() {
            fs::write(&victim, &full[..keep]).unwrap();
            let schema = schema();
            let fx = FxDistribution::auto(schema.system().clone()).unwrap();
            assert!(
                load(&dir, schema, fx, 6).is_err(),
                "device file truncated to {keep}/{} bytes must fail to load",
                full.len()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A corrupted length field claiming a multi-gigabyte page is
    /// rejected as a bad frame without attempting the allocation.
    #[test]
    fn absurd_page_length_rejected() {
        let dir = temp_dir("hugelen");
        save(&build(20, 7), &dir).unwrap();
        let victim = (0..4)
            .map(|i| dir.join(format!("device-{i}.pmr")))
            .find(|p| p.exists() && fs::metadata(p).unwrap().len() > 12)
            .expect("some device holds data");
        let mut bytes = fs::read(&victim).unwrap();
        // Overwrite the first frame's length field (bytes 8..12) with
        // u32::MAX.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&victim, &bytes).unwrap();
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        assert!(matches!(
            load(&dir, schema, fx, 7),
            Err(PersistError::BadFrame(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_page_rejected() {
        let dir = temp_dir("badpage");
        let file = build(50, 4);
        save(&file, &dir).unwrap();
        // Truncate one device file mid-frame.
        let victim = (0..4)
            .map(|i| dir.join(format!("device-{i}.pmr")))
            .find(|p| p.exists() && fs::metadata(p).unwrap().len() > 16)
            .expect("some device holds data");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        let schema = schema();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        assert!(load(&dir, schema, fx, 4).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}

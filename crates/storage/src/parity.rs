//! Erasure-coded redundancy: `k + r` Reed–Solomon parity stripes over
//! bucket pages, placed so any `r` simultaneous device outages remain
//! fully reconstructable at `~r/k` storage overhead (where buddy
//! mirroring pays `1x` to survive a single outage).
//!
//! # Stripe layout
//!
//! A *stripe* groups `k` primary bucket pages (its **members**) with `r`
//! derived parity shards. Member slot `j` of a stripe anchored at device
//! `a` holds a bucket homed on device `a ⊕ j`, and parity shard `i`
//! lives on device `a ⊕ (k + i)` — the Lemma 1.1 XOR structure: the
//! offsets `{0, 1, …, k+r−1}` are distinct constants, XOR by a constant
//! permutes `Z_M`, so all `k + r` devices of a stripe are **pairwise
//! distinct** (and, when `k + r` is a power of two, the stripe's device
//! set is exactly the coset `a ⊕ {0..k+r}`). One device therefore holds
//! at most one shard of any stripe, so `r` dead devices cost a stripe at
//! most `r` shards — and any `k` of `k + r` reconstruct
//! ([`pmr_rt::ec`]).
//!
//! # Consistency
//!
//! The store keeps an explicit directory — stripe membership plus each
//! member's page length and CRC-32 at encode time — as control-plane
//! metadata that survives device outages by construction (like the
//! fault plan itself, it lives with the file, not on a device). Parity
//! is re-encoded **eagerly** on every insert (the bulk-insert path
//! batches one re-encode per touched stripe), so the degraded read path
//! can always treat the directory as ground truth: shards that are
//! unreadable *or fail their recorded CRC* are erasures, absent members
//! are known-zero payloads, and a reconstructed page is CRC-verified
//! before it is decoded into records.
//!
//! Like mirror pages, parity shards are derived data: they are never
//! persisted, are dropped by clear/drain, and are rebuilt wholesale by
//! [`ParityStore::reprotect_resident`].

use crate::device::Device;
use crate::encode::{self, DecodeError};
use pmr_mkh::Record;
use pmr_rt::ec::{crc32, ReedSolomon};
use pmr_rt::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One stripe member: a primary bucket page enrolled in the stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Member {
    /// The bucket's packed address code (its page key on the device).
    code: u64,
    /// Page length in bytes at last encode (0 = no page yet).
    len: u32,
    /// CRC-32 of the page bytes at last encode.
    crc: u32,
}

/// One parity group: `k` member slots plus its encoded-parity metadata.
#[derive(Debug, Clone)]
struct Stripe {
    /// Anchor device: member slot `j` lives on `anchor ^ j`, parity
    /// shard `i` on `anchor ^ (k + i)`.
    anchor: u64,
    /// Member slots (`None` = open). Slot `j`'s bucket is homed on
    /// `anchor ^ j`, so a stripe holds at most one bucket per device.
    members: Vec<Option<Member>>,
    /// Shard payload length at last encode: the longest member page,
    /// shorter members zero-padded.
    shard_len: usize,
    /// CRC-32 of each parity shard at last encode.
    parity_crcs: Vec<u32>,
}

/// The mutable stripe directory behind the store's lock.
#[derive(Debug, Default)]
struct Directory {
    stripes: Vec<Stripe>,
    /// Bucket code → (stripe index, member slot).
    by_code: HashMap<u64, (usize, usize)>,
    /// Home device → open (stripe index, slot) pairs that accept a
    /// bucket homed there (stripe `s` slot `j` accepts home
    /// `stripes[s].anchor ^ j`).
    free_slots: HashMap<u64, Vec<(usize, usize)>>,
}

/// Why a parity reconstruction could not produce the page.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconstructError {
    /// Fewer than `k` of the stripe's `k + r` shards were readable and
    /// CRC-clean — more simultaneous faults than the code tolerates.
    TooFewShards {
        /// Usable shards gathered.
        have: usize,
        /// The `k` needed.
        needed: usize,
    },
    /// The reconstructed page failed its recorded CRC (should be
    /// unreachable when `TooFewShards` is honest; kept as defense).
    PageCrc,
    /// The reconstructed page's bytes did not decode into records.
    Decode(DecodeError),
}

impl std::fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstructError::TooFewShards { have, needed } => {
                write!(f, "only {have} usable shards, need {needed}")
            }
            ReconstructError::PageCrc => write!(f, "reconstructed page failed its CRC"),
            ReconstructError::Decode(e) => write!(f, "reconstructed page decode: {e}"),
        }
    }
}

impl std::error::Error for ReconstructError {}

/// A page served from parity instead of its home device.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructedPage {
    /// The bucket's records, bit-equal to the last-encoded page.
    pub records: Vec<Record>,
    /// Stripe-mate and parity reads issued (cost-model accounting).
    pub shard_reads: u32,
    /// Injected latency accumulated across shard reads, simulated µs.
    pub injected_latency_us: u64,
}

/// A page's stored bytes rebuilt from parity, CRC-verified against the
/// directory but not decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuiltPage {
    /// The bucket's page bytes, bit-equal to the last-encoded page.
    pub bytes: Vec<u8>,
    /// Stripe-mate and parity reads issued (cost-model accounting).
    pub shard_reads: u32,
    /// Injected latency accumulated across shard reads, simulated µs.
    pub injected_latency_us: u64,
}

/// The erasure-coded redundancy tier for one device array.
///
/// Construction picks the geometry; [`ParityStore::note_append`] (or
/// [`ParityStore::note_appends`] for bulk) keeps parity consistent as
/// records land; [`ParityStore::reconstruct`] (or [`ParityStore::rebuild`]
/// for the undecoded bytes) serves the degraded read path.
#[derive(Debug)]
pub struct ParityStore {
    k: usize,
    r: usize,
    rs: ReedSolomon,
    dir: RwLock<Directory>,
}

impl ParityStore {
    /// A store for `devices` devices with `k` data + `r` parity shards
    /// per stripe, or `None` when the geometry does not fit: needs
    /// `k >= 1`, `r >= 1`, and `k + r <= devices` so a stripe's shards
    /// land on `k + r` *distinct* devices (`devices` is a power of two
    /// upstream, so the XOR offsets stay in range).
    pub fn new(k: usize, r: usize, devices: u64) -> Option<ParityStore> {
        if (k + r) as u64 > devices {
            return None;
        }
        let rs = ReedSolomon::new(k, r).ok()?;
        Some(ParityStore {
            k,
            r,
            rs,
            dir: RwLock::new(Directory::default()),
        })
    }

    /// Data shards per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity shards per stripe.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of stripes in the directory.
    pub fn stripes(&self) -> usize {
        self.dir.read().stripes.len()
    }

    /// The devices holding shards of `code`'s stripe (members then
    /// parity), or `None` when the code is not enrolled. Exposed for
    /// tests asserting the distinct-device placement invariant.
    pub fn stripe_devices_of(&self, code: u64) -> Option<Vec<u64>> {
        let dir = self.dir.read();
        let &(s, _) = dir.by_code.get(&code)?;
        let stripe = &dir.stripes[s];
        Some(
            (0..self.k + self.r)
                .map(|j| stripe.anchor ^ j as u64)
                .collect(),
        )
    }

    /// Records that `code` (homed on device `home`) was appended to and
    /// re-encodes its stripe's parity eagerly. Enrolls the code in a
    /// stripe on first sight.
    pub fn note_append(&self, devices: &[Arc<Device>], code: u64, home: u64) {
        let mut dir = self.dir.write();
        let (s, _) = self.enroll(&mut dir, code, home);
        self.encode_stripe(&mut dir, devices, s);
    }

    /// Bulk form of [`ParityStore::note_append`]: enrolls every
    /// `(code, home)` pair, then re-encodes each touched stripe once —
    /// the `insert_all_parallel` streaming path calls this after its
    /// append barrier.
    pub fn note_appends(
        &self,
        devices: &[Arc<Device>],
        codes: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let mut dir = self.dir.write();
        let mut touched: Vec<usize> = codes
            .into_iter()
            .map(|(code, home)| self.enroll(&mut dir, code, home).0)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for s in touched {
            self.encode_stripe(&mut dir, devices, s);
        }
    }

    /// Drops the whole directory and every device's parity shards, then
    /// re-enrolls and re-encodes every resident primary bucket. Used
    /// when parity is enabled on a populated file, after a
    /// redistribution drain, and after a persistence load (parity is
    /// derived data and is not persisted).
    pub fn reprotect_resident(&self, devices: &[Arc<Device>]) {
        let mut dir = self.dir.write();
        *dir = Directory::default();
        for device in devices {
            device.clear_parity();
        }
        let mut touched = Vec::new();
        for device in devices {
            let home = device.id();
            for code in device.resident_buckets() {
                touched.push(self.enroll(&mut dir, code, home).0);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for s in touched {
            self.encode_stripe(&mut dir, devices, s);
        }
    }

    /// Serves bucket `code` from its stripe when the home device cannot:
    /// [`ParityStore::rebuild`], then the rebuilt page decoded into
    /// records.
    ///
    /// # Errors
    ///
    /// [`ReconstructError`] when more than `r` shards are unusable, the
    /// rebuilt page fails verification, or it does not decode.
    pub fn reconstruct(
        &self,
        devices: &[Arc<Device>],
        code: u64,
        attempt: u32,
    ) -> Result<ReconstructedPage, ReconstructError> {
        let page = self.rebuild(devices, code, attempt)?;
        let records = encode::decode_all_bytes(&page.bytes).map_err(ReconstructError::Decode)?;
        Ok(ReconstructedPage {
            records,
            shard_reads: page.shard_reads,
            injected_latency_us: page.injected_latency_us,
        })
    }

    /// Rebuilds bucket `code`'s stored bytes from its stripe: gathers
    /// the stripe's other shards (faulted or CRC-dirty shards count as
    /// erasures, absent members as known zeros), interpolates the
    /// missing page, and CRC-verifies it against the directory. The
    /// bytes are not decoded.
    ///
    /// A code with **no stripe** rebuilds trivially: the directory
    /// enrolls every inserted bucket, so an unenrolled code never held
    /// records and yields the empty page.
    ///
    /// # Errors
    ///
    /// [`ReconstructError`] when more than `r` shards are unusable or
    /// the rebuilt page fails verification.
    pub fn rebuild(
        &self,
        devices: &[Arc<Device>],
        code: u64,
        attempt: u32,
    ) -> Result<RebuiltPage, ReconstructError> {
        let dir = self.dir.read();
        let Some(&(s, slot)) = dir.by_code.get(&code) else {
            return Ok(RebuiltPage {
                bytes: Vec::new(),
                shard_reads: 0,
                injected_latency_us: 0,
            });
        };
        let stripe = &dir.stripes[s];
        let target = stripe.members[slot].expect("enrolled code has a member entry");
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.k + self.r];
        let mut shard_reads = 0u32;
        let mut injected_latency_us = 0u64;
        for (j, member) in stripe.members.iter().enumerate() {
            let Some(m) = member else {
                // An open slot never held a page: a known-zero payload,
                // not an erasure.
                shards[j] = Some(vec![0u8; stripe.shard_len]);
                continue;
            };
            let device = &devices[(stripe.anchor ^ j as u64) as usize];
            shard_reads += 1;
            let Ok(read) = device.read_raw_page_attempt(m.code, attempt) else {
                continue; // erasure
            };
            injected_latency_us += read.injected_latency_us;
            let bytes = match read.bytes {
                Some(b) => b,
                None if m.len == 0 => Vec::new(),
                None => continue, // directory says a page existed: erasure
            };
            // Reject bytes that drifted from the encoded state (at-rest
            // corruption of a stripe-mate) before they poison decode.
            if bytes.len() != m.len as usize || crc32(&bytes) != m.crc {
                continue;
            }
            let mut payload = bytes;
            payload.resize(stripe.shard_len, 0);
            shards[j] = Some(payload);
        }
        for i in 0..self.r {
            let device = &devices[(stripe.anchor ^ (self.k + i) as u64) as usize];
            shard_reads += 1;
            let Ok(read) = device.read_parity_attempt(s as u64, attempt) else {
                continue;
            };
            injected_latency_us += read.injected_latency_us;
            let Some(bytes) = read.bytes else { continue };
            if bytes.len() != stripe.shard_len || crc32(&bytes) != stripe.parity_crcs[i] {
                continue;
            }
            shards[self.k + i] = Some(bytes);
        }
        let have = shards.iter().flatten().count();
        // The target's own shard may have survived (e.g. the home read
        // failed transiently but the raw bytes are clean) — either way,
        // interpolation needs k usable shards total.
        if have < self.k {
            return Err(ReconstructError::TooFewShards {
                have,
                needed: self.k,
            });
        }
        shards[slot] = None; // rebuild the target from the others' span
        self.rs
            .reconstruct(&mut shards)
            .map_err(|_| ReconstructError::TooFewShards {
                have,
                needed: self.k,
            })?;
        let mut page = shards[slot].take().expect("reconstruct fills every slot");
        page.truncate(target.len as usize);
        if crc32(&page) != target.crc {
            return Err(ReconstructError::PageCrc);
        }
        Ok(RebuiltPage {
            bytes: page,
            shard_reads,
            injected_latency_us,
        })
    }

    /// Finds or creates the (stripe, slot) for `code` homed on `home`.
    fn enroll(&self, dir: &mut Directory, code: u64, home: u64) -> (usize, usize) {
        if let Some(&at) = dir.by_code.get(&code) {
            return at;
        }
        let (s, slot) = match dir.free_slots.get_mut(&home).and_then(Vec::pop) {
            Some(open) => open,
            None => {
                // A fresh stripe anchored at `home`: slot 0 serves this
                // code; the other slots go up for adoption by buckets
                // homed on the XOR-offset devices.
                let s = dir.stripes.len();
                dir.stripes.push(Stripe {
                    anchor: home,
                    members: vec![None; self.k],
                    shard_len: 0,
                    parity_crcs: vec![0; self.r],
                });
                for j in 1..self.k {
                    dir.free_slots
                        .entry(home ^ j as u64)
                        .or_default()
                        .push((s, j));
                }
                (s, 0)
            }
        };
        dir.stripes[s].members[slot] = Some(Member {
            code,
            len: 0,
            crc: 0,
        });
        dir.by_code.insert(code, (s, slot));
        (s, slot)
    }

    /// Re-reads stripe `s`'s member pages, refreshes their metadata, and
    /// installs freshly encoded parity shards on the parity devices.
    fn encode_stripe(&self, dir: &mut Directory, devices: &[Arc<Device>], s: usize) {
        let stripe = &mut dir.stripes[s];
        let pages: Vec<Option<Vec<u8>>> = stripe
            .members
            .iter()
            .enumerate()
            .map(|(j, member)| {
                member.and_then(|m| devices[(stripe.anchor ^ j as u64) as usize].raw_page(m.code))
            })
            .collect();
        let shard_len = pages.iter().flatten().map(Vec::len).max().unwrap_or(0);
        let payloads: Vec<Vec<u8>> = pages
            .iter()
            .map(|page| {
                let mut p = page.clone().unwrap_or_default();
                p.resize(shard_len, 0);
                p
            })
            .collect();
        for (member, page) in stripe.members.iter_mut().zip(&pages) {
            if let Some(m) = member {
                let bytes = page.as_deref().unwrap_or(&[]);
                m.len = bytes.len() as u32;
                m.crc = crc32(bytes);
            }
        }
        let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let parity = self.rs.parity_of(&views).expect("payloads match geometry");
        stripe.shard_len = shard_len;
        for (i, shard) in parity.iter().enumerate() {
            stripe.parity_crcs[i] = crc32(shard);
            devices[(stripe.anchor ^ (self.k + i) as u64) as usize]
                .install_parity_page(s as u64, shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_mkh::Value;
    use pmr_rt::fault::FaultPlan;

    fn rec(i: i64) -> Record {
        Record::new(vec![Value::Int(i)])
    }

    fn array(m: u64) -> Vec<Arc<Device>> {
        (0..m).map(|i| Arc::new(Device::new(i))).collect()
    }

    /// Insert helper: appends to the home device and notifies parity.
    fn put(store: &ParityStore, devices: &[Arc<Device>], home: u64, code: u64, r: &Record) {
        devices[home as usize].append(code, r);
        store.note_append(devices, code, home);
    }

    #[test]
    fn geometry_requires_k_plus_r_devices() {
        assert!(ParityStore::new(4, 2, 8).is_some());
        assert!(ParityStore::new(4, 2, 4).is_none());
        assert!(ParityStore::new(0, 2, 8).is_none());
        assert!(ParityStore::new(4, 0, 8).is_none());
        assert!(ParityStore::new(8, 8, 16).is_some());
    }

    #[test]
    fn stripe_devices_are_pairwise_distinct() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        for home in 0..8u64 {
            put(&store, &devices, home, 100 + home, &rec(home as i64));
            let mut ds = store.stripe_devices_of(100 + home).unwrap();
            assert_eq!(ds.len(), 6);
            ds.sort_unstable();
            ds.dedup();
            assert_eq!(ds.len(), 6, "stripe devices collide for home {home}");
            assert!(ds.iter().all(|&d| d < 8));
        }
    }

    #[test]
    fn codes_share_stripes_across_homes_but_not_devices() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        // Buckets homed on 0, 1, 2, 3 can share the stripe anchored at 0.
        for home in 0..4u64 {
            put(&store, &devices, home, 10 + home, &rec(home as i64));
        }
        assert_eq!(store.stripes(), 1);
        // A second bucket on device 0 opens a second stripe.
        put(&store, &devices, 0, 99, &rec(9));
        assert_eq!(store.stripes(), 2);
    }

    #[test]
    fn reconstructs_under_r_simultaneous_outages() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        for home in 0..8u64 {
            for n in 0..3 {
                put(&store, &devices, home, home, &rec((home * 10 + n) as i64));
            }
        }
        // Kill two devices; every bucket on them must reconstruct.
        for (a, b) in [(0u64, 1u64), (2, 5), (6, 7), (3, 4)] {
            let plan = FaultPlan::new(1).with_dead_device(a).with_dead_device(b);
            let plan = Arc::new(plan);
            for d in &devices {
                d.set_fault_plan(Some(Arc::clone(&plan)));
            }
            for dead in [a, b] {
                let expect: Vec<Record> = (0..3).map(|n| rec((dead * 10 + n) as i64)).collect();
                let got = store.reconstruct(&devices, dead, 0).unwrap();
                assert_eq!(got.records, expect, "device {dead} with {a},{b} dead");
                assert!(got.shard_reads > 0);
            }
            for d in &devices {
                d.set_fault_plan(None);
            }
        }
    }

    #[test]
    fn more_than_r_outages_is_a_typed_loss() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        for home in 0..4u64 {
            put(&store, &devices, home, home, &rec(home as i64));
        }
        let members = store.stripe_devices_of(0).unwrap();
        let plan = members[..3]
            .iter()
            .fold(FaultPlan::new(1), |p, &d| p.with_dead_device(d));
        let plan = Arc::new(plan);
        for d in &devices {
            d.set_fault_plan(Some(Arc::clone(&plan)));
        }
        assert!(matches!(
            store.reconstruct(&devices, 0, 0),
            Err(ReconstructError::TooFewShards { .. })
        ));
    }

    #[test]
    fn corrupt_stripe_mate_is_an_erasure_not_poison() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        for home in 0..4u64 {
            put(&store, &devices, home, home, &rec(home as i64));
        }
        let ds = store.stripe_devices_of(0).unwrap();
        // Corrupt the member on the second stripe device at rest, then
        // kill the first: reconstruction of bucket 0 must treat the
        // corrupt sibling as an erasure and still succeed.
        devices[ds[1] as usize].inject_corruption(ds[1], b"\x00bitrot");
        let plan = Arc::new(FaultPlan::new(1).with_dead_device(ds[0]));
        for d in &devices {
            d.set_fault_plan(Some(Arc::clone(&plan)));
        }
        let got = store.reconstruct(&devices, 0, 0).unwrap();
        assert_eq!(got.records, vec![rec(0)]);
        // The corrupt page itself also reconstructs to its last-encoded
        // bytes (the store's CRC metadata detects the drift).
        for d in &devices {
            d.set_fault_plan(None);
        }
        let healed = store.reconstruct(&devices, ds[1], 0).unwrap();
        assert_eq!(healed.records, vec![rec(ds[1] as i64)]);
    }

    #[test]
    fn unenrolled_code_reconstructs_to_empty() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        let got = store.reconstruct(&devices, 123, 0).unwrap();
        assert_eq!(got.records, vec![]);
        assert_eq!(got.shard_reads, 0);
    }

    #[test]
    fn partial_stripes_reconstruct_with_open_slots() {
        let devices = array(8);
        let store = ParityStore::new(4, 2, 8).unwrap();
        // Only one member ever lands in the stripe.
        put(&store, &devices, 3, 42, &rec(7));
        let plan = Arc::new(FaultPlan::new(1).with_dead_device(3));
        for d in &devices {
            d.set_fault_plan(Some(Arc::clone(&plan)));
        }
        let got = store.reconstruct(&devices, 42, 0).unwrap();
        assert_eq!(got.records, vec![rec(7)]);
    }

    #[test]
    fn reprotect_rebuilds_after_clear() {
        let devices = array(8);
        let store = ParityStore::new(2, 2, 8).unwrap();
        for home in 0..8u64 {
            put(&store, &devices, home, home, &rec(home as i64));
        }
        let parity_shards: usize = devices.iter().map(|d| d.parity_shard_count()).sum();
        assert!(parity_shards > 0);
        // Blow away all parity, then rebuild from resident pages.
        for d in &devices {
            d.clear_parity();
        }
        store.reprotect_resident(&devices);
        let plan = Arc::new(FaultPlan::new(1).with_dead_device(5));
        for d in &devices {
            d.set_fault_plan(Some(Arc::clone(&plan)));
        }
        assert_eq!(
            store.reconstruct(&devices, 5, 0).unwrap().records,
            vec![rec(5)]
        );
    }

    /// k = 1 stripes are r plain copies: any member reconstructs with
    /// every other stripe device dead but one.
    #[test]
    fn k1_stripes_survive_r_outages() {
        let devices = array(4);
        let store = ParityStore::new(1, 2, 4).unwrap();
        put(&store, &devices, 2, 9, &rec(1));
        let ds = store.stripe_devices_of(9).unwrap();
        let plan = Arc::new(
            FaultPlan::new(1)
                .with_dead_device(ds[0])
                .with_dead_device(ds[1]),
        );
        for d in &devices {
            d.set_fault_plan(Some(Arc::clone(&plan)));
        }
        assert_eq!(
            store.reconstruct(&devices, 9, 0).unwrap().records,
            vec![rec(1)]
        );
    }
}

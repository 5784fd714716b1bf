//! Buddy-device mirroring: each bucket's page is copied to the buddy of
//! its home device, `buddy(d) = d ⊕ M/2`.
//!
//! Because FX assigns buckets by `T_M(J_1 ⊕ … ⊕ J_n)` and XOR by a fixed
//! constant permutes `Z_M` (Lemma 1.1), XOR-ing every device id with the
//! single top bit tiles the devices into disjoint pairs whose *primary*
//! bucket sets never overlap — so a mirror page always lives on a device
//! that will never serve the same bucket as a primary. Mirror pages are
//! kept in a store separate from primary data
//! ([`Device::append_mirror`]), which keeps occupancy accounting,
//! persistence snapshots, and redistribution drains oblivious to them.

use crate::device::Device;
use pmr_mkh::Record;
use std::sync::Arc;

/// The buddy-pairing for a device array: a thin wrapper over the XOR
/// mask `M/2`.
///
/// # Examples
///
/// ```
/// use pmr_storage::mirror::Mirroring;
///
/// let m = Mirroring::new(32).unwrap(); // Table 7: M = 32
/// assert_eq!(m.mask(), 16);
/// assert_eq!(m.buddy_of(3), 19);
/// assert_eq!(m.buddy_of(19), 3);
/// assert!(Mirroring::new(1).is_none()); // a lone device has no buddy
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mirroring {
    mask: u64,
}

impl Mirroring {
    /// The pairing for `devices` devices, or `None` when `devices < 2`
    /// (or not a power of two — the system validation upstream already
    /// guarantees it is).
    pub fn new(devices: u64) -> Option<Self> {
        pmr_core::bits::buddy_mask(devices).map(|mask| Mirroring { mask })
    }

    /// The XOR mask (`M/2`).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The buddy of `device`.
    pub fn buddy_of(&self, device: u64) -> u64 {
        device ^ self.mask
    }

    /// Mirrors a freshly inserted record: appends it to the mirror store
    /// of the home device's buddy.
    pub fn mirror_record(
        &self,
        devices: &[Arc<Device>],
        home_device: u64,
        bucket_code: u64,
        record: &Record,
    ) {
        devices[self.buddy_of(home_device) as usize].append_mirror(bucket_code, record);
    }

    /// Bulk (re-)mirroring: copies every resident primary page to its
    /// buddy's mirror store, replacing stale mirror pages. Used when
    /// mirroring is enabled on a file that already holds data.
    pub fn mirror_resident(&self, devices: &[Arc<Device>]) {
        for device in devices {
            let buddy = &devices[self.buddy_of(device.id()) as usize];
            for bucket in device.resident_buckets() {
                if let Some(page) = device.raw_page(bucket) {
                    buddy.install_mirror_page(bucket, &page);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_mkh::{Record, Value};

    fn rec(i: i64) -> Record {
        Record::new(vec![Value::Int(i)])
    }

    fn mirror_page(device: &Device, bucket: u64) -> Vec<Record> {
        device
            .reader(crate::device::PageStore::Mirror)
            .decode_attempt(bucket, 0)
            .unwrap()
            .records
    }

    #[test]
    fn pairing_is_an_involution_without_fixed_points() {
        for m in [2u64, 4, 8, 32] {
            let pairing = Mirroring::new(m).unwrap();
            for d in 0..m {
                let b = pairing.buddy_of(d);
                assert!(b < m);
                assert_ne!(b, d);
                assert_eq!(pairing.buddy_of(b), d);
            }
        }
        assert!(Mirroring::new(1).is_none());
    }

    #[test]
    fn mirror_resident_copies_pages_to_buddies() {
        let devices: Vec<Arc<Device>> = (0..4).map(|i| Arc::new(Device::new(i))).collect();
        devices[0].append(10, &rec(1));
        devices[0].append(10, &rec(2));
        devices[3].append(7, &rec(3));
        let pairing = Mirroring::new(4).unwrap();
        pairing.mirror_resident(&devices);
        // Buddy of 0 is 2, buddy of 3 is 1.
        assert_eq!(mirror_page(&devices[2], 10), [rec(1), rec(2)]);
        assert_eq!(mirror_page(&devices[1], 7), [rec(3)]);
        // Primary stores untouched; no phantom occupancy on buddies.
        assert_eq!(devices[2].resident_bucket_count(), 0);
        assert_eq!(devices[1].records_written(), 0);
    }

    #[test]
    fn mirror_record_tracks_incremental_inserts() {
        let devices: Vec<Arc<Device>> = (0..2).map(|i| Arc::new(Device::new(i))).collect();
        let pairing = Mirroring::new(2).unwrap();
        devices[0].append(5, &rec(9));
        pairing.mirror_record(&devices, 0, 5, &rec(9));
        assert_eq!(mirror_page(&devices[1], 5), [rec(9)]);
        assert_eq!(
            devices[0].read_bucket(5).unwrap(),
            mirror_page(&devices[1], 5)
        );
    }
}

//! Little-endian append vocabulary for byte formats.
//!
//! [`BufMut`] is implemented for `Vec<u8>`, the one buffer type the
//! bucket-page and wire formats use; readers walk plain `&[u8]` slices.

/// Write-side vocabulary: appending little-endian integers and byte runs.
///
/// # Examples
///
/// ```
/// use pmr_rt::buf::BufMut;
///
/// let mut buf = Vec::new();
/// buf.put_u32_le(7);
/// buf.put_u8(0xab);
/// assert_eq!(buf, [7, 0, 0, 0, 0xab]);
/// ```
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a byte run.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        let mut buf = Vec::with_capacity(32);
        buf.put_u8(0x01);
        buf.put_u32_le(0xdead_beef);
        buf.put_i64_le(-42);
        buf.put_u64_le(u64::MAX);
        buf.put_slice(b"tail");
        assert_eq!(buf.len(), 1 + 4 + 8 + 8 + 4);
        assert_eq!(buf[0], 0x01);
        assert_eq!(
            u32::from_le_bytes(buf[1..5].try_into().unwrap()),
            0xdead_beef
        );
        assert_eq!(i64::from_le_bytes(buf[5..13].try_into().unwrap()), -42);
        assert_eq!(
            u64::from_le_bytes(buf[13..21].try_into().unwrap()),
            u64::MAX
        );
        assert_eq!(&buf[21..], b"tail");
    }

    #[test]
    fn vec_bufmut_impl() {
        let mut v: Vec<u8> = Vec::new();
        v.put_u32_le(7);
        assert_eq!(v, vec![7, 0, 0, 0]);
    }
}

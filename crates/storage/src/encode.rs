//! Record encoding for bucket pages.
//!
//! Records are stored inside buckets as length-delimited, type-tagged
//! byte strings. The format is deliberately simple — one byte of type tag,
//! a little-endian `u32` length for variable-width variants, then the
//! payload — so a bucket page is a flat `Vec<u8>` a device can hand back
//! without touching per-record allocations until decode time.

use pmr_mkh::{Record, Value};
use pmr_rt::buf::BufMut;
use std::fmt;

/// Errors raised while decoding a record region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Region ended in the middle of a record.
    Truncated,
    /// Unknown type tag byte.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record region truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown value tag 0x{t:02x}"),
            DecodeError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_INT: u8 = 0x01;
const TAG_STR: u8 = 0x02;
const TAG_BYTES: u8 = 0x03;

/// Appends one record to `buf`: a `u32` value count, then each value.
pub fn encode_record(record: &Record, buf: &mut Vec<u8>) {
    buf.put_u32_le(record.arity() as u32);
    for v in record.values() {
        match v {
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*i);
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                buf.put_u8(TAG_BYTES);
                buf.put_u32_le(b.len() as u32);
                buf.put_slice(b);
            }
        }
    }
}

/// Encodes one record into a standalone buffer.
pub fn encode_one(record: &Record) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(record));
    encode_record(record, &mut buf);
    buf
}

/// Decodes every record from a region produced by repeated
/// [`encode_record`] calls. Callers holding a lock over the page bytes
/// decode in place, paying exactly one copy per `Str`/`Bytes` payload
/// (into the owned `Value`) and none for the page itself.
///
/// `expected` is the record count the caller already knows (a report's
/// or a frame header's; 0 when unknown): the output is allocated once at
/// that size instead of grown from empty. It only sizes the allocation,
/// clamped to the most records the region can hold (4 bytes each), so a
/// wrong or hostile count cannot over-allocate or change the result.
pub fn decode_all_bytes(region: &[u8], expected: usize) -> Result<Vec<Record>, DecodeError> {
    let mut cursor = region;
    let mut out = Vec::with_capacity(expected.min(region.len() / 4));
    // One loop over records and their values: a per-record helper
    // returning `Result<Record, _>` measured ~25% slower on Int pages.
    while !cursor.is_empty() {
        let arity = take_u32(&mut cursor)? as usize;
        // Never trust the region for preallocation: a corrupted arity
        // must fail with `Truncated` below, not abort on a giant
        // allocation. Every value costs at least 5 encoded bytes (tag +
        // u32 length), bounding the plausible arity by what remains.
        let mut values = Vec::with_capacity(arity.min(cursor.len() / 5 + 1));
        for _ in 0..arity {
            values.push(match next_value(&mut cursor)? {
                ValueRef::Int(i) => Value::Int(i),
                ValueRef::Str(s) => Value::Str(s.to_owned()),
                ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
            });
        }
        out.push(Record::new(values));
    }
    Ok(out)
}

/// Checks a region produced by repeated [`encode_record`] calls without
/// decoding it: the walk allocates nothing and returns the record count,
/// or exactly the error [`decode_all_bytes`] would return on the same
/// bytes. [`RecordRegion::extend_validated`] runs the same walk and
/// indexes the records as it goes.
pub fn validate_region(region: &[u8]) -> Result<u64, DecodeError> {
    let mut cursor = region;
    let mut records = 0u64;
    while !cursor.is_empty() {
        skip_record(&mut cursor)?;
        records += 1;
    }
    Ok(records)
}

/// The validate-and-index walk: checks `bytes` as [`validate_region`]
/// does and appends each record's end offset, shifted by `base`, to
/// `ends`. On an error, the offsets of the records before it stay
/// pushed.
///
/// # Panics
///
/// When `base + bytes.len()` passes 4 GiB.
fn index(bytes: &[u8], base: usize, ends: &mut Vec<u32>) -> Result<(), DecodeError> {
    let total = u32::try_from(base + bytes.len()).expect("record region past 4 GiB");
    let mut cursor = bytes;
    while !cursor.is_empty() {
        skip_record(&mut cursor)?;
        ends.push(total - cursor.len() as u32);
    }
    Ok(())
}

/// Checks one record at the front of `cursor` and moves past it.
fn skip_record(cursor: &mut &[u8]) -> Result<(), DecodeError> {
    let arity = take_u32(cursor)? as usize;
    // An all-`Int` record is `arity` 9-byte values, each opening with
    // its tag: one length check and a strided tag scan accept it, about
    // twice as fast as the value walk on such pages. Any other record
    // takes the value-by-value walk, which also finds the error of a
    // malformed one.
    if let Some(values) = arity.checked_mul(9).and_then(|n| cursor.get(..n)) {
        if values.chunks_exact(9).all(|v| v[0] == TAG_INT) {
            *cursor = &cursor[values.len()..];
            return Ok(());
        }
    }
    for _ in 0..arity {
        next_value(cursor)?;
    }
    Ok(())
}

/// Records held as their encoded bytes: one region of concatenated
/// [`encode_record`] outputs plus each record's end offset, validated
/// and indexed once, when the bytes come in, and read in place after
/// that.
///
/// The encoding is canonical — a validated record re-encodes to exactly
/// its bytes — so two regions are equal exactly when their decoded
/// records are. Callers read records through borrowed [`RecordRef`]
/// views and decode to [`Record`] only on request
/// ([`RecordRegion::to_records`], [`RecordRef::to_record`]). A record
/// costs its encoded bytes plus a 4-byte offset; a region holds at most
/// 4 GiB.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordRegion {
    bytes: Vec<u8>,
    /// End offset of each record in `bytes`; record `i` starts where
    /// record `i - 1` ends.
    ends: Vec<u32>,
}

impl RecordRegion {
    /// An empty region.
    pub fn new() -> RecordRegion {
        RecordRegion::default()
    }

    /// Takes `bytes` as a region after one validate-and-index walk (see
    /// [`RecordRegion::extend_validated`]), without copying them.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<RecordRegion, DecodeError> {
        let mut ends = Vec::new();
        index(&bytes, 0, &mut ends)?;
        Ok(RecordRegion { bytes, ends })
    }

    /// Grows the region's room to `bytes` bytes and `records` records in
    /// all.
    pub fn reserve(&mut self, bytes: usize, records: usize) {
        self.bytes.reserve(bytes.saturating_sub(self.bytes.len()));
        self.ends.reserve(records.saturating_sub(self.ends.len()));
    }

    /// Validates `bytes` — a region of repeated [`encode_record`]
    /// outputs — indexing each record as the walk passes it, and appends
    /// them. The walk allocates nothing but the offsets it records and
    /// returns the record count, or exactly the error
    /// [`decode_all_bytes`] would return on the same bytes; on an error
    /// nothing is appended.
    ///
    /// # Panics
    ///
    /// When the region would grow past 4 GiB.
    pub fn extend_validated(&mut self, bytes: &[u8]) -> Result<u64, DecodeError> {
        let before = self.ends.len();
        if let Err(e) = index(bytes, self.bytes.len(), &mut self.ends) {
            self.ends.truncate(before);
            return Err(e);
        }
        self.bytes.extend_from_slice(bytes);
        Ok((self.ends.len() - before) as u64)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the region holds no record.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The encoded bytes of every record, in order: what a response
    /// frame carries.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Record `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<RecordRef<'_>> {
        let end = *self.ends.get(index)? as usize;
        let start = match index {
            0 => 0,
            i => self.ends[i - 1] as usize,
        };
        Some(RecordRef {
            bytes: &self.bytes[start..end],
        })
    }

    /// Every record, in order, as a borrowed view.
    pub fn iter(&self) -> Records<'_> {
        Records {
            bytes: &self.bytes,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Every record, decoded.
    pub fn to_records(&self) -> Vec<Record> {
        decode_all_bytes(&self.bytes, self.len()).expect("a validated region decodes")
    }
}

impl<'a> IntoIterator for &'a RecordRegion {
    type Item = RecordRef<'a>;
    type IntoIter = Records<'a>;

    fn into_iter(self) -> Records<'a> {
        self.iter()
    }
}

/// The records of a [`RecordRegion`], in order ([`RecordRegion::iter`]).
#[derive(Debug, Clone)]
pub struct Records<'a> {
    bytes: &'a [u8],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let end = *self.ends.next()? as usize;
        let bytes = &self.bytes[self.start..end];
        self.start = end;
        Some(RecordRef { bytes })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Records<'_> {}

/// One record of a [`RecordRegion`]: its validated encoded bytes,
/// borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    bytes: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// The record's encoded bytes ([`encode_record`]'s output for it).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The record, decoded.
    pub fn to_record(&self) -> Record {
        let mut records = decode_all_bytes(self.bytes, 1).expect("a validated record decodes");
        records.pop().expect("a record view holds one record")
    }
}

impl fmt::Display for RecordRef<'_> {
    /// The decoded record's rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_record().fmt(f)
    }
}

/// Bytes [`encode_record`] appends for `record`.
pub fn encoded_len(record: &Record) -> usize {
    4 + record
        .values()
        .iter()
        .map(|v| match v {
            Value::Int(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
        })
        .sum::<usize>()
}

fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if cursor.len() < n {
        return Err(DecodeError::Truncated);
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

fn take_u32(cursor: &mut &[u8]) -> Result<u32, DecodeError> {
    let bytes = take(cursor, 4)?;
    Ok(u32::from_le_bytes(
        bytes.try_into().expect("take yields 4 bytes"),
    ))
}

/// One value as it lies in the region, checked but not copied.
enum ValueRef<'a> {
    Int(i64),
    Str(&'a str),
    Bytes(&'a [u8]),
}

/// Reads one tagged value from the front of `cursor`: the one grammar
/// both [`decode_all_bytes`] and [`validate_region`] walk, so their
/// errors agree byte for byte.
fn next_value<'a>(cursor: &mut &'a [u8]) -> Result<ValueRef<'a>, DecodeError> {
    match take(cursor, 1)?[0] {
        TAG_INT => {
            let bytes = take(cursor, 8)?;
            Ok(ValueRef::Int(i64::from_le_bytes(
                bytes.try_into().expect("take yields 8 bytes"),
            )))
        }
        tag @ (TAG_STR | TAG_BYTES) => {
            let len = take_u32(cursor)? as usize;
            let payload = take(cursor, len)?;
            if tag == TAG_STR {
                std::str::from_utf8(payload)
                    .map(ValueRef::Str)
                    .map_err(|_| DecodeError::BadUtf8)
            } else {
                Ok(ValueRef::Bytes(payload))
            }
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::new(vec![
            Value::Int(-42),
            "hello".into(),
            Value::Bytes(vec![0, 255, 7]),
        ])
    }

    #[test]
    fn round_trip_single() {
        let r = sample();
        let bytes = encode_one(&r);
        assert_eq!(decode_all_bytes(&bytes, 1).unwrap(), vec![r]);
    }

    #[test]
    fn round_trip_region() {
        let records: Vec<Record> = (0..20)
            .map(|i| Record::new(vec![Value::Int(i), format!("s{i}").into()]))
            .collect();
        let mut buf = Vec::new();
        for r in &records {
            encode_record(r, &mut buf);
        }
        let back = decode_all_bytes(&buf, 0).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_one(&sample());
        for cut in 1..bytes.len() {
            assert!(
                decode_all_bytes(&bytes[..cut], 0).is_err(),
                "cut at {cut} should not decode cleanly"
            );
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        buf.put_u8(0x7f);
        assert_eq!(decode_all_bytes(&buf, 0), Err(DecodeError::BadTag(0x7f)));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(decode_all_bytes(&buf, 0), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn empty_region_is_empty() {
        assert_eq!(decode_all_bytes(&[], 0).unwrap(), vec![]);
        assert_eq!(validate_region(&[]), Ok(0));
    }

    #[test]
    fn regions_index_records_and_extend_all_or_nothing() {
        let records = vec![
            sample(),
            Record::new(vec![]),
            Record::new(vec![Value::Int(1)]),
        ];
        let mut bytes = Vec::new();
        for r in &records {
            encode_record(r, &mut bytes);
        }
        let region = RecordRegion::from_bytes(bytes.clone()).unwrap();
        assert_eq!(region.bytes(), &bytes[..]);
        assert_eq!(region.len(), 3);
        assert_eq!(region.iter().len(), 3);
        for (i, (view, record)) in region.iter().zip(&records).enumerate() {
            assert_eq!(region.get(i), Some(view));
            assert_eq!(view.bytes(), &encode_one(record)[..]);
            assert_eq!(view.to_record(), *record);
            assert_eq!(view.to_string(), record.to_string());
        }
        assert_eq!(region.get(3), None);
        assert_eq!(region.to_records(), records);

        let empty = encode_one(&Record::new(vec![]));
        let mut grown = RecordRegion::new();
        assert!(grown.is_empty());
        assert_eq!(grown.extend_validated(&empty), Ok(1));
        let cut = &bytes[..bytes.len() - 1];
        assert_eq!(grown.extend_validated(cut), Err(DecodeError::Truncated));
        assert_eq!(grown.bytes(), &empty[..], "a failed extend appends nothing");
        assert_eq!(grown.len(), 1);
        assert_eq!(
            RecordRegion::from_bytes(cut.to_vec()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn validator_counts_and_encoded_len_matches() {
        let records = [
            sample(),
            Record::new(vec![]),
            Record::new(vec![Value::Int(1)]),
        ];
        let mut buf = Vec::new();
        for r in &records {
            let before = buf.len();
            encode_record(r, &mut buf);
            assert_eq!(buf.len() - before, encoded_len(r));
        }
        assert_eq!(validate_region(&buf), Ok(3));
        for cut in 0..buf.len() {
            assert_eq!(
                validate_region(&buf[..cut]),
                decode_all_bytes(&buf[..cut], 0).map(|r| r.len() as u64),
                "cut at {cut}"
            );
        }
    }
}

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
pub fn decode_all_bytes(region: &[u8]) -> Result<Vec<Record>, DecodeError> {
    let mut cursor = region;
    let mut out = Vec::new();
    while !cursor.is_empty() {
        out.push(decode_record_from(&mut cursor)?);
    }
    Ok(out)
}

/// Checks a region produced by repeated [`encode_record`] calls without
/// decoding it: the walk allocates nothing and returns the record count,
/// or exactly the error [`decode_all_bytes`] would return on the same
/// bytes. A node uses it to ship a stored page verbatim while still
/// failing a page that is corrupt at rest the way a decode would.
pub fn validate_region(region: &[u8]) -> Result<u64, DecodeError> {
    let mut cursor = region;
    let mut records = 0u64;
    while !cursor.is_empty() {
        let arity = take_u32(&mut cursor)?;
        for _ in 0..arity {
            next_value(&mut cursor)?;
        }
        records += 1;
    }
    Ok(records)
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
/// both [`decode_record_from`] and [`validate_region`] walk, so their
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

/// Decodes a single record from the front of a borrowed cursor,
/// advancing it past the consumed bytes. Each `Str`/`Bytes` payload is
/// copied exactly once, straight from the region into its `Value`.
pub fn decode_record_from(cursor: &mut &[u8]) -> Result<Record, DecodeError> {
    let arity = take_u32(cursor)? as usize;
    // Never trust the wire for preallocation: a corrupted arity must fail
    // with `Truncated` below, not abort on a giant allocation. Every value
    // costs at least 5 encoded bytes (tag + u32 length), bounding the
    // plausible arity by the remaining region.
    let mut values = Vec::with_capacity(arity.min(cursor.len() / 5 + 1));
    for _ in 0..arity {
        values.push(match next_value(cursor)? {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
        });
    }
    Ok(Record::new(values))
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
        let mut cursor = &bytes[..];
        let back = decode_record_from(&mut cursor).unwrap();
        assert_eq!(back, r);
        assert!(cursor.is_empty());
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
        let back = decode_all_bytes(&buf).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_one(&sample());
        for cut in 1..bytes.len() {
            assert!(
                decode_all_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should not decode cleanly"
            );
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        buf.put_u8(0x7f);
        assert_eq!(decode_all_bytes(&buf), Err(DecodeError::BadTag(0x7f)));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(decode_all_bytes(&buf), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn empty_region_is_empty() {
        assert_eq!(decode_all_bytes(&[]).unwrap(), vec![]);
        assert_eq!(validate_region(&[]), Ok(0));
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
                decode_all_bytes(&buf[..cut]).map(|r| r.len() as u64),
                "cut at {cut}"
            );
        }
    }
}

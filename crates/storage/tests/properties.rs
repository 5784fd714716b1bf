//! Property-based tests for the storage layer, running under the
//! [`pmr_rt::check`] harness.

use pmr_core::FxDistribution;
use pmr_mkh::{FieldType, Record, Schema, Value};
use pmr_rt::check::Source;
use pmr_rt::rt_proptest;
use pmr_storage::encode;
use pmr_storage::exec::{
    execute_parallel, merge_raw_yields, plan_query, ExecPolicy, Executor, PlannedQuery, Redundancy,
};
use pmr_storage::{CostModel, DeclusteredFile};

fn gen_record(src: &mut Source) -> Record {
    let values = src.vec_of(0..=5, |s| match s.arm(3) {
        0 => Value::Int(s.any_i64()),
        1 => Value::Str(s.string_of(' '..='~', 0..=20)),
        _ => Value::Bytes(s.vec_of(0..=23, |s| s.any_u8())),
    });
    Record::new(values)
}

/// A heavyweight generator: arities up to 8 mixing ints, empty strings,
/// empty byte payloads, and multi-KiB strings and blobs — the shapes a
/// page decode has to copy exactly once each.
fn gen_bulky_record(src: &mut Source) -> Record {
    let values = src.vec_of(0..=8, |s| match s.arm(5) {
        0 => Value::Int(s.any_i64()),
        1 => Value::Str(String::new()),
        2 => Value::Str(s.string_of(' '..='~', 1024..=4096)),
        3 => Value::Bytes(Vec::new()),
        _ => Value::Bytes(s.vec_of(1024..=6000, |s| s.any_u8())),
    });
    Record::new(values)
}

rt_proptest! {
    /// Record encoding round-trips arbitrary values, including empty
    /// records and empty payloads. The expected-count hint only sizes the
    /// allocation: exact, arbitrary or far too large, the result is the same.
    fn encode_round_trip(src) {
        let records = src.vec_of(0..=19, gen_record);
        let mut buf = Vec::new();
        for r in &records {
            encode::encode_record(r, &mut buf);
        }
        let decoded = encode::decode_all_bytes(&buf, 0).unwrap();
        assert_eq!(decoded, records);
        for expected in [records.len(), src.usize_in(0..=64)] {
            let hinted = encode::decode_all_bytes(&buf, expected).unwrap();
            assert_eq!(hinted, records, "expected = {expected}");
        }
        // A count no region could hold is clamped to 4 bytes per record.
        let hinted = encode::decode_all_bytes(&buf, 1 << 24).unwrap();
        assert_eq!(hinted, records);
        assert!(hinted.capacity() <= (buf.len() / 4).max(records.len()));
    }

    /// Round trip survives bulky shapes — random arity, empty strings
    /// and blobs, multi-KiB payloads — through the region decode.
    fn encode_round_trip_bulky_payloads(src) {
        let records = src.vec_of(0..=6, gen_bulky_record);
        let mut buf = Vec::new();
        for r in &records {
            encode::encode_record(r, &mut buf);
        }
        assert_eq!(encode::decode_all_bytes(&buf, 0).unwrap(), records);
        assert_eq!(encode::decode_all_bytes(&buf, records.len()).unwrap(), records);
    }

    /// Decode is lossless for the encoder: re-encoding the decoded
    /// records reproduces the original region byte-for-byte, so a page
    /// can round-trip through the decoded cache and back without drift.
    fn re_encode_after_decode_is_byte_stable(src) {
        let records = if src.weighted(0.5) {
            src.vec_of(0..=11, gen_record)
        } else {
            src.vec_of(0..=4, gen_bulky_record)
        };
        let mut buf = Vec::new();
        for r in &records {
            encode::encode_record(r, &mut buf);
        }
        let decoded = encode::decode_all_bytes(&buf, 0).unwrap();
        let mut again = Vec::new();
        for r in &decoded {
            encode::encode_record(r, &mut again);
        }
        assert_eq!(again, buf);
    }

    /// Any strict prefix of an encoded non-empty region fails to decode
    /// (no silent truncation).
    fn encode_prefixes_fail(src) {
        let record = gen_record(src);
        let bytes = encode::encode_one(&record);
        for cut in 0..bytes.len() {
            if cut == 0 {
                // Zero bytes decode to zero records — allowed.
                continue;
            }
            assert!(encode::decode_all_bytes(&bytes[..cut], 0).is_err(), "cut {cut}");
        }
    }

    /// Decoding arbitrary bytes never panics: it returns records or an
    /// error (fuzz-shaped robustness for the page format).
    fn decode_never_panics(src) {
        let bytes = src.vec_of(0..=255, |s| s.any_u8());
        let _ = encode::decode_all_bytes(&bytes, 0);
    }

    /// The validation walk a node runs before shipping a stored page
    /// agrees with a full decode on every input: the record count on a
    /// clean page, and the same `DecodeError` variant on a page mutated
    /// by bit flips, splices, arity and length-field edits, tag edits or
    /// invalid UTF-8.
    fn validator_agrees_with_decode_on_mutated_pages(src) {
        let records = src.vec_of(0..=8, gen_record);
        let mut page = Vec::new();
        // Offsets of every arity field, tag byte, length field and
        // string payload, for targeted edits.
        let (mut arities, mut tags, mut lens, mut strs) = (vec![], vec![], vec![], vec![]);
        for r in &records {
            let mut buf = Vec::new();
            encode::encode_record(r, &mut buf);
            assert_eq!(buf.len(), encode::encoded_len(r));
            arities.push(page.len());
            let mut at = page.len() + 4;
            for v in r.values() {
                tags.push(at);
                at += match v {
                    Value::Int(_) => 9,
                    Value::Str(s) => {
                        lens.push(at + 1);
                        if !s.is_empty() {
                            strs.push((at + 5, s.len()));
                        }
                        5 + s.len()
                    }
                    Value::Bytes(b) => {
                        lens.push(at + 1);
                        5 + b.len()
                    }
                };
            }
            page.extend_from_slice(&buf);
        }
        let check = |bytes: &[u8]| {
            let decoded = encode::decode_all_bytes(bytes, 0);
            assert_eq!(
                encode::validate_region(bytes),
                decoded.as_ref().map(|r| r.len() as u64).map_err(|e| e.clone()),
                "validator and decode disagree on {bytes:02x?}"
            );
            // The validate-and-index walk agrees too, its views
            // re-encode the decoded records byte for byte, and extending
            // a region appends exactly those records or nothing.
            let region = encode::RecordRegion::from_bytes(bytes.to_vec());
            assert_eq!(region.as_ref().map(|r| r.to_records()), decoded.as_ref().cloned());
            let first = Record::new(vec![Value::Int(7)]);
            let mut grown = encode::RecordRegion::from_bytes(encode::encode_one(&first)).unwrap();
            let extended = grown.extend_validated(bytes);
            match (region, decoded) {
                (Ok(region), Ok(records)) => {
                    assert_eq!(region.bytes(), bytes);
                    assert_eq!(region.len(), records.len());
                    for (i, (view, record)) in region.iter().zip(&records).enumerate() {
                        assert_eq!(view.bytes(), encode::encode_one(record));
                        assert_eq!(view.to_record(), *record);
                        assert_eq!(region.get(i), Some(view));
                    }
                    assert_eq!(extended, Ok(records.len() as u64));
                    assert_eq!(grown.to_records(), [vec![first], records].concat());
                }
                (Err(_), Err(e)) => {
                    assert_eq!(extended, Err(e));
                    assert_eq!(grown.to_records(), vec![first]);
                    assert_eq!(grown.len(), 1);
                }
                _ => unreachable!("compared above"),
            }
        };
        check(&page);
        assert_eq!(encode::validate_region(&page), Ok(records.len() as u64));
        for _ in 0..src.int_in(1, 6) {
            let mut bytes = page.clone();
            let pick = |s: &mut Source, xs: &[usize]| xs[s.usize_in(0..=xs.len() - 1)];
            match src.arm(7) {
                0 if !bytes.is_empty() => {
                    for _ in 0..src.int_in(1, 3) {
                        let at = src.usize_in(0..=bytes.len() - 1);
                        bytes[at] ^= 1 << src.int_in(0, 7);
                    }
                }
                1 if !bytes.is_empty() => {
                    // Splice: cut a range, or insert random bytes.
                    let from = src.usize_in(0..=bytes.len() - 1);
                    let to = src.usize_in(from..=bytes.len());
                    let inserted = src.vec_of(0..=8, |s| s.any_u8());
                    bytes.splice(from..to, inserted);
                }
                2 if !arities.is_empty() => {
                    let at = pick(src, &arities);
                    let arity = match src.arm(3) {
                        0 => u32::MAX,
                        1 => src.u32_in(0..=12),
                        _ => u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
                            .wrapping_add(1),
                    };
                    bytes[at..at + 4].copy_from_slice(&arity.to_le_bytes());
                }
                3 if !lens.is_empty() => {
                    let at = pick(src, &lens);
                    let len = if src.weighted(0.5) { src.u32_in(0..=64) } else { u32::MAX };
                    bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
                4 if !tags.is_empty() => {
                    let at = pick(src, &tags);
                    bytes[at] = src.any_u8();
                }
                5 if !strs.is_empty() => {
                    let (at, len) = strs[src.usize_in(0..=strs.len() - 1)];
                    bytes[at + src.usize_in(0..=len - 1)] = 0xff;
                }
                _ => bytes.truncate(src.usize_in(0..=bytes.len())),
            }
            check(&bytes);
        }
    }

    /// End-to-end conservation: N inserted records are split across
    /// devices summing to N, and a full-scan query retrieves all of them,
    /// identically under the generic and FX-specialised executors.
    fn file_conserves_records(src) {
        let keys = src.vec_of(1..=79, |s| (s.any_i64(), s.any_i64()));
        let seed = src.any_u64();
        let schema = Schema::builder()
            .field("a", FieldType::Int, 8)
            .field("b", FieldType::Int, 4)
            .devices(8)
            .build()
            .unwrap();
        let fx = FxDistribution::auto(schema.system().clone()).unwrap();
        let mut file = DeclusteredFile::new(schema, fx, seed).unwrap();
        for &(a, b) in &keys {
            file.insert(Record::new(vec![Value::Int(a), Value::Int(b)])).unwrap();
        }
        assert_eq!(file.record_count(), keys.len() as u64);
        assert_eq!(file.record_occupancy().iter().sum::<u64>(), keys.len() as u64);

        let q = file.query(&[]).unwrap();
        let generic = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
        let fast = PlannedQuery {
            fast_path: true,
            ..plan_query(file.system(), file.method(), &q)
        };
        let fx_exec = Executor::new(&file, CostModel::main_memory())
            .execute_planned_raw(&[fast], &ExecPolicy::default())
            .remove(0);
        let fx_exec = merge_raw_yields(fx_exec, Redundancy::Mirror);
        assert_eq!(generic.records.len(), keys.len());
        assert_eq!(fx_exec.records.len(), keys.len());
        assert_eq!(generic.histogram(), fx_exec.histogram());
    }

    /// Golden-bytes cross-check: a buffer filled through the
    /// [`pmr_rt::buf::BufMut`] API byte-for-byte matches the storage
    /// encoder's output for the same record.
    fn buffer_matches_encoder_golden_bytes(src) {
        use pmr_rt::buf::BufMut;
        let i = src.any_i64();
        let s = src.string_of('a'..='z', 0..=12);
        let record = Record::new(vec![Value::Int(i), Value::Str(s.clone())]);
        let encoded = encode::encode_one(&record);

        // Hand-rolled frame: u32 arity, tagged int, tagged string.
        let mut expected = Vec::new();
        expected.put_u32_le(2);
        expected.put_u8(0x01);
        expected.put_i64_le(i);
        expected.put_u8(0x02);
        expected.put_u32_le(s.len() as u32);
        expected.put_slice(s.as_bytes());
        assert_eq!(encoded, expected);
    }
}

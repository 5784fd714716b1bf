//! Wire-protocol hardening: decoding is total.
//!
//! Same discipline as `pmr-storage::persist` — truncation at EVERY byte
//! offset of every message kind must yield a typed [`WireError`], never
//! a panic and never a silent partial decode; hostile length prefixes
//! are refused before any allocation; stray bytes after a message are an
//! error.

use pmr_mkh::{Record, Value};
use pmr_net::wire::{
    self, decode_message, encode_message, GatherResponse, Message, ScatterRequest, Telemetry,
    TraceContext, WireError, WirePolicy, WireQuery, MAGIC, MAX_FRAME_BYTES, MAX_QUERIES,
    MAX_TELEMETRY_COUNTERS, VERSION,
};
use pmr_rt::obs::snapshot::MetricsSnapshot;
use pmr_storage::exec::{DeviceOutcome, DeviceReport, DeviceYield, Redundancy};

fn sample_request() -> Message {
    Message::Request(ScatterRequest {
        request_id: 0xDEAD_BEEF,
        policy: WirePolicy {
            max_attempts: 3,
            base_us: 100,
            cap_us: 10_000,
            budget_us: 1_000_000,
            failover: true,
            redundancy: Redundancy::Parity { k: 4, r: 2 },
            seed: 42,
        },
        queries: vec![
            WireQuery {
                values: vec![Some(3), None, Some(7), None, Some(0), Some(5)],
                fast_path: true,
                free_combos: 2,
                total_qualified: 64,
            },
            WireQuery {
                values: vec![Some(1); 6],
                fast_path: false,
                free_combos: 1,
                total_qualified: 1,
            },
        ],
        trace: None,
    })
}

/// `sample_request` plus a v1.1 trace-context section.
fn sample_request_traced() -> Message {
    let Message::Request(mut req) = sample_request() else {
        unreachable!()
    };
    req.trace = Some(TraceContext {
        trace_id: 0x1234_5678_9ABC_DEF0,
        parent_span: 77,
    });
    Message::Request(req)
}

fn sample_yield(device: u64) -> DeviceYield {
    DeviceYield {
        report: DeviceReport {
            device,
            qualified_buckets: 4,
            records: 2,
            addresses_computed: 6,
            simulated_us: 123.456,
            reconstructions: 0,
            outcome: DeviceOutcome::Retried(2),
        },
        records: vec![
            Record::new(vec![Value::Int(1), Value::Int(2)]),
            Record::new(vec![Value::Str("x".into()), Value::Int(-9)]),
        ],
        lost: vec![17, 99],
    }
}

fn sample_response() -> Message {
    Message::Response(GatherResponse {
        request_id: 7,
        node: 2,
        busy_us: 1234,
        queries: vec![
            vec![sample_yield(0), sample_yield(5)],
            vec![],
            vec![
                DeviceYield {
                    report: DeviceReport {
                        device: 31,
                        qualified_buckets: 1,
                        records: 0,
                        addresses_computed: 1,
                        simulated_us: 0.0,
                        reconstructions: 0,
                        outcome: DeviceOutcome::Lost,
                    },
                    records: vec![],
                    lost: vec![3],
                },
                // v2: a parity-served device, exercising the
                // `reconstructed` discriminant and nonzero count.
                DeviceYield {
                    report: DeviceReport {
                        device: 12,
                        qualified_buckets: 3,
                        records: 1,
                        addresses_computed: 3,
                        simulated_us: 9.25,
                        reconstructions: 2,
                        outcome: DeviceOutcome::Reconstructed,
                    },
                    records: vec![Record::new(vec![Value::Int(5), Value::Int(6)])],
                    lost: vec![],
                },
            ],
        ],
        telemetry: None,
    })
}

/// `sample_response` plus a v1.1 telemetry block (counters + one hist).
fn sample_response_with_telemetry() -> Message {
    let Message::Response(mut resp) = sample_response() else {
        unreachable!()
    };
    let mut m = MetricsSnapshot::default();
    m.add_counter("requests", 1);
    m.add_counter("queries", 3);
    m.observe_us("busy_us", 1234.0);
    resp.telemetry = Some(Telemetry {
        span_id: 42,
        metrics: m,
    });
    Message::Response(resp)
}

#[test]
fn request_roundtrips() {
    let msg = sample_request();
    assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
}

#[test]
fn response_roundtrips_bit_exact() {
    let msg = sample_response();
    let back = decode_message(&encode_message(&msg)).unwrap();
    assert_eq!(back, msg);
    // f64 travels as to_bits: NaN and negative zero survive too.
    let mut y = sample_yield(1);
    y.report.simulated_us = f64::from_bits(0x7ff8_0000_0000_0001);
    let msg = Message::Response(GatherResponse {
        request_id: 1,
        node: 0,
        busy_us: 0,
        queries: vec![vec![y]],
        telemetry: None,
    });
    match decode_message(&encode_message(&msg)).unwrap() {
        Message::Response(r) => assert_eq!(
            r.queries[0][0].report.simulated_us.to_bits(),
            0x7ff8_0000_0000_0001
        ),
        other => panic!("decoded wrong kind: {other:?}"),
    }
}

/// The compact trivial-yield form (zero qualified buckets, no records,
/// no losses) roundtrips bit-exact — including a nonzero simulated time
/// and address charge, which the trivial form still carries.
#[test]
fn trivial_yield_roundtrips_compactly() {
    let trivial = DeviceYield {
        report: DeviceReport {
            device: 9,
            qualified_buckets: 0,
            records: 0,
            addresses_computed: 96,
            simulated_us: 1.5,
            reconstructions: 0,
            outcome: DeviceOutcome::Ok,
        },
        records: vec![],
        lost: vec![],
    };
    let msg = Message::Response(GatherResponse {
        request_id: 3,
        node: 1,
        busy_us: 10,
        queries: vec![vec![trivial.clone()]],
        telemetry: None,
    });
    let frame = encode_message(&msg);
    // header(6) + resp head(20) + nqueries(4) + nyields(4) + trivial(25)
    assert_eq!(
        frame.len(),
        6 + 20 + 4 + 4 + 25,
        "trivial yields must use the compact form"
    );
    match decode_message(&frame).unwrap() {
        Message::Response(r) => assert_eq!(r.queries[0][0], trivial),
        other => panic!("decoded wrong kind: {other:?}"),
    }
}

#[test]
fn bad_yield_shape_is_typed() {
    let msg = Message::Response(GatherResponse {
        request_id: 1,
        node: 0,
        busy_us: 0,
        queries: vec![vec![sample_yield(0)]],
        telemetry: None,
    });
    let mut frame = encode_message(&msg);
    // The shape byte is the first yield byte.
    let offset = 6 + 20 + 4 + 4;
    frame[offset] = 7;
    assert_eq!(decode_message(&frame), Err(WireError::BadShape(7)));
}

#[test]
fn shutdown_roundtrips() {
    assert_eq!(
        decode_message(&encode_message(&Message::Shutdown)).unwrap(),
        Message::Shutdown
    );
}

/// The core hardening property: EVERY strict prefix of a valid payload
/// fails with a typed error — no panic, no bogus success.
///
/// One carve-out for v1.1 frames: the trace/telemetry sections are
/// *trailing optionals*, so truncating a traced frame at exactly its v1
/// base length yields the valid stripped message — that boundary is the
/// whole compatibility story, and it is pinned as the ONLY Ok prefix.
#[test]
fn truncation_at_every_byte_errors() {
    for msg in [
        sample_request(),
        sample_response(),
        Message::Shutdown,
        sample_request_traced(),
        sample_response_with_telemetry(),
    ] {
        let full = encode_message(&msg);
        let base_len = encode_message(&strip_optional_sections(&msg)).len();
        for keep in 0..full.len() {
            if keep == base_len && keep < full.len() {
                let stripped = decode_message(&full[..keep])
                    .expect("the v1 base-length prefix of a traced frame must decode");
                assert_eq!(stripped, strip_optional_sections(&msg));
                continue;
            }
            let err = decode_message(&full[..keep])
                .err()
                .unwrap_or_else(|| panic!("truncation to {keep} bytes must fail"));
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. }
                        | WireError::BadMagic(_)
                        | WireError::Record(_)
                        | WireError::RecordCount { .. }
                ),
                "truncation to {keep}/{} bytes gave unexpected error: {err}",
                full.len()
            );
        }
    }
}

/// The same message with its v1.1 trailing sections removed.
fn strip_optional_sections(msg: &Message) -> Message {
    match msg.clone() {
        Message::Request(mut req) => {
            req.trace = None;
            Message::Request(req)
        }
        Message::Response(mut resp) => {
            resp.telemetry = None;
            Message::Response(resp)
        }
        Message::Shutdown => Message::Shutdown,
    }
}

/// Corrupting any single byte never panics: it either fails typed or
/// decodes to *some* well-formed message. (A flip can decode back to
/// the original — e.g. the `retries` u32 is ignored for non-`Retried`
/// outcomes — so the property pinned here is totality, not detection.)
#[test]
fn single_byte_corruption_never_panics() {
    for msg in [
        sample_request(),
        sample_response(),
        sample_request_traced(),
        sample_response_with_telemetry(),
    ] {
        let full = encode_message(&msg);
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0xFF;
            let _ = decode_message(&bad);
        }
    }
}

#[test]
fn header_errors_are_typed() {
    let full = encode_message(&Message::Shutdown);

    let mut bad = full.clone();
    bad[0] ^= 1;
    assert!(matches!(decode_message(&bad), Err(WireError::BadMagic(_))));

    let mut bad = full.clone();
    bad[4] = VERSION + 1;
    assert_eq!(
        decode_message(&bad),
        Err(WireError::BadVersion(VERSION + 1))
    );

    let mut bad = full.clone();
    bad[5] = 99;
    assert_eq!(decode_message(&bad), Err(WireError::BadKind(99)));
}

#[test]
fn trailing_bytes_are_rejected() {
    // A stray byte after a v1 request/response body is read as a v1.1
    // section tag — 0 is not a valid tag, so it fails typed (BadTag,
    // not a silent accept). Shutdown has no optional sections, so there
    // it is still a plain trailing-bytes error.
    for msg in [sample_request(), sample_response()] {
        let mut full = encode_message(&msg);
        full.push(0);
        assert_eq!(decode_message(&full), Err(WireError::BadTag(0)));
    }
    let mut full = encode_message(&Message::Shutdown);
    full.push(0);
    assert_eq!(decode_message(&full), Err(WireError::TrailingBytes(1)));
    // Bytes after a COMPLETE v1.1 section are trailing garbage again.
    for msg in [sample_request_traced(), sample_response_with_telemetry()] {
        let mut full = encode_message(&msg);
        full.push(0);
        assert_eq!(decode_message(&full), Err(WireError::TrailingBytes(1)));
    }
}

#[test]
fn bad_outcome_discriminant_is_typed() {
    let full = encode_message(&sample_response());
    // The first yield's outcome byte sits after the header (6), the
    // response head + query count (8+4+8+4), the yield-count u32, the
    // shape byte, and the yield's five u64 fields.
    let offset = 6 + 24 + 4 + 1 + 40;
    let mut bad = full.clone();
    bad[offset] = 42;
    assert_eq!(decode_message(&bad), Err(WireError::BadOutcome(42)));
}

/// A hostile query count fails the cap check before any allocation.
#[test]
fn query_count_over_cap_is_refused() {
    let full = encode_message(&sample_request());
    // Query count is the u32 right after header (6) and the request_id +
    // v2 policy block (8 + 4+8+8+8+1+3+8 = 48).
    let offset = 6 + 48;
    let mut bad = full.clone();
    bad[offset..offset + 4].copy_from_slice(&(MAX_QUERIES + 1).to_le_bytes());
    assert_eq!(
        decode_message(&bad),
        Err(WireError::CapExceeded {
            field: "queries",
            got: (MAX_QUERIES + 1) as u64,
            cap: MAX_QUERIES as u64
        })
    );
}

/// A length that passes the cap but exceeds the remaining payload is
/// caught by the bytes-remaining cross-check — still before allocation.
#[test]
fn query_count_beyond_payload_is_truncation() {
    let full = encode_message(&sample_request());
    let offset = 6 + 48;
    let mut bad = full.clone();
    bad[offset..offset + 4].copy_from_slice(&10_000u32.to_le_bytes());
    assert_eq!(
        decode_message(&bad),
        Err(WireError::Truncated { field: "queries" })
    );
}

/// Record-region count mismatch is detected, not silently accepted.
#[test]
fn record_count_mismatch_is_typed() {
    let y = sample_yield(0);
    let msg = Message::Response(GatherResponse {
        request_id: 1,
        node: 0,
        busy_us: 0,
        queries: vec![vec![y]],
        telemetry: None,
    });
    let full = encode_message(&msg);
    // nrecords u32 lives after header(6) + resp head(20) + query count(4)
    // + yield count(4) + shape(1) + fixed yield section (40 + outcome 1
    // + retries 4 + reconstructions 4).
    let offset = 6 + 20 + 4 + 4 + 1 + 49;
    let mut bad = full.clone();
    bad[offset..offset + 4].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        decode_message(&bad),
        Err(WireError::RecordCount { want: 1, got: 2 })
    );
    // The report's own record count (u64, after shape + device +
    // qualified_buckets) must agree with the region too.
    let offset = 6 + 20 + 4 + 4 + 1 + 16;
    let mut bad = full.clone();
    bad[offset..offset + 8].copy_from_slice(&5u64.to_le_bytes());
    assert_eq!(
        decode_message(&bad),
        Err(WireError::RecordCount { want: 5, got: 2 })
    );
}

// -----------------------------------------------------------------
// v1.1 trailing sections: trace context and telemetry
// -----------------------------------------------------------------

#[test]
fn traced_request_roundtrips() {
    let msg = sample_request_traced();
    assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
}

#[test]
fn telemetry_response_roundtrips() {
    let msg = sample_response_with_telemetry();
    let back = decode_message(&encode_message(&msg)).unwrap();
    assert_eq!(back, msg);
    let Message::Response(r) = back else {
        unreachable!()
    };
    let t = r.telemetry.expect("telemetry survives the roundtrip");
    assert_eq!(t.span_id, 42);
    assert_eq!(t.metrics.counter("requests"), 1);
    assert_eq!(t.metrics.counter("queries"), 3);
    let hist = t.metrics.hist("busy_us").expect("hist survives");
    assert_eq!(hist.iter().sum::<u64>(), 1);
}

/// An untraced sender emits frames byte-identical to protocol v1 — the
/// optional sections cost ZERO bytes when absent, so a v1 peer (which
/// never sends them) interops in both directions.
#[test]
fn absent_sections_cost_zero_bytes_and_v1_frames_decode() {
    let traced = encode_message(&sample_request_traced());
    let plain = encode_message(&sample_request());
    // The traced frame is the plain frame plus a trailing section...
    assert_eq!(&traced[..plain.len()], &plain[..]);
    assert_eq!(
        traced.len(),
        plain.len() + 1 + 8 + 8,
        "tag + trace_id + parent_span"
    );
    // ...and the plain frame (what a v1 peer sends) decodes with no trace.
    match decode_message(&plain).unwrap() {
        Message::Request(req) => assert_eq!(req.trace, None),
        other => panic!("decoded wrong kind: {other:?}"),
    }
    let with_tel = encode_message(&sample_response_with_telemetry());
    let plain = encode_message(&sample_response());
    assert_eq!(&with_tel[..plain.len()], &plain[..]);
    match decode_message(&plain).unwrap() {
        Message::Response(resp) => assert_eq!(resp.telemetry, None),
        other => panic!("decoded wrong kind: {other:?}"),
    }
}

#[test]
fn unknown_section_tag_is_typed() {
    for msg in [sample_request(), sample_response()] {
        let mut full = encode_message(&msg);
        full.push(9);
        assert_eq!(decode_message(&full), Err(WireError::BadTag(9)));
    }
    // A request must not accept a telemetry section and vice versa.
    let mut req = encode_message(&sample_request());
    req.push(2); // TAG_TELEMETRY on a request
    assert_eq!(decode_message(&req), Err(WireError::BadTag(2)));
    let mut resp = encode_message(&sample_response());
    resp.push(1); // TAG_TRACE on a response
    assert_eq!(decode_message(&resp), Err(WireError::BadTag(1)));
}

/// A hostile telemetry counter count fails the cap check before any
/// allocation, like every other length field in the protocol.
#[test]
fn telemetry_counter_count_over_cap_is_refused() {
    let msg = sample_response_with_telemetry();
    let base_len = encode_message(&strip_optional_sections(&msg)).len();
    let mut bad = encode_message(&msg);
    // ncounters u32 sits after the tag byte and the span_id u64.
    let offset = base_len + 1 + 8;
    let hostile = MAX_TELEMETRY_COUNTERS + 1;
    bad[offset..offset + 4].copy_from_slice(&hostile.to_le_bytes());
    assert_eq!(
        decode_message(&bad),
        Err(WireError::CapExceeded {
            field: "telemetry.counters",
            got: hostile as u64,
            cap: MAX_TELEMETRY_COUNTERS as u64
        })
    );
}

#[test]
fn telemetry_name_errors_are_typed() {
    let msg = sample_response_with_telemetry();
    let base_len = encode_message(&strip_optional_sections(&msg)).len();
    let full = encode_message(&msg);
    // First counter entry: name_len u8 then the name bytes.
    let len_offset = base_len + 1 + 8 + 4;

    let mut bad = full.clone();
    bad[len_offset] = 200; // over MAX_TELEMETRY_NAME
    assert!(matches!(
        decode_message(&bad),
        Err(WireError::CapExceeded {
            field: "telemetry.name_len",
            ..
        })
    ));

    let mut bad = full.clone();
    bad[len_offset + 1] = 0xFF; // not UTF-8
    assert_eq!(decode_message(&bad), Err(WireError::BadName));
}

// -----------------------------------------------------------------
// Framing
// -----------------------------------------------------------------

#[test]
fn frames_roundtrip_over_a_byte_stream() {
    let mut stream = Vec::new();
    let a = encode_message(&sample_request());
    let b = encode_message(&Message::Shutdown);
    wire::write_frame(&mut stream, &a).unwrap();
    wire::write_frame(&mut stream, &b).unwrap();
    let mut cursor = &stream[..];
    assert_eq!(
        wire::read_frame(&mut cursor).unwrap().as_deref(),
        Some(&a[..])
    );
    assert_eq!(
        wire::read_frame(&mut cursor).unwrap().as_deref(),
        Some(&b[..])
    );
    assert_eq!(
        wire::read_frame(&mut cursor).unwrap(),
        None,
        "clean EOF is None"
    );
}

#[test]
fn frame_truncated_at_every_byte_errors() {
    let mut stream = Vec::new();
    wire::write_frame(&mut stream, &encode_message(&sample_request())).unwrap();
    for keep in 1..stream.len() {
        let mut cursor = &stream[..keep];
        let err = wire::read_frame(&mut cursor)
            .err()
            .unwrap_or_else(|| panic!("frame truncated to {keep} bytes must fail"));
        assert!(
            matches!(err, WireError::Truncated { .. }),
            "frame truncated to {keep} bytes gave {err}"
        );
    }
}

/// The length prefix is validated BEFORE the payload buffer exists — a
/// 4 GiB claim cannot OOM the receiver.
#[test]
fn hostile_frame_length_is_refused_before_allocation() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.extend_from_slice(&[0; 16]);
    let mut cursor = &stream[..];
    assert_eq!(
        wire::read_frame(&mut cursor),
        Err(WireError::CapExceeded {
            field: "frame.len",
            got: u32::MAX as u64,
            cap: MAX_FRAME_BYTES as u64
        })
    );
}

#[test]
fn oversized_payload_is_refused_at_the_sender() {
    struct NullSink;
    impl std::io::Write for NullSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // Don't materialise 256 MiB: a zeroed slice over the cap is enough.
    let oversized = vec![0u8; MAX_FRAME_BYTES as usize + 1];
    let err = wire::write_frame(&mut NullSink, &oversized).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn magic_spells_pmrn() {
    assert_eq!(&MAGIC.to_le_bytes(), b"PMRN");
}

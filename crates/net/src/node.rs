//! A node: one device subrange behind a wire-served resident executor.
//!
//! Each node owns a contiguous device range (see [`crate::partition`])
//! and wraps a [`pmr_storage::exec::Executor`] whose resident workers
//! cover exactly that range. Its serve loop is request-at-a-time: decode
//! a [`ScatterRequest`](crate::wire::ScatterRequest), rebuild the
//! frontend's plans against the local system, execute, and ship the
//! per-device yields back. A node never decodes a page: each served
//! page's stored bytes pass a validation walk and are copied into the
//! response frame as they lie
//! ([`Executor::execute_planned_raw`](pmr_storage::exec::Executor::execute_planned_raw)),
//! so the frontend's decode is the only one. A node never merges —
//! merging is the frontend's job, which is what keeps gathered reports
//! bit-equal to a single-process execution.
//!
//! Failure modes are silent by design: a killed node keeps draining its
//! mailbox without answering (exactly what a crashed process looks like
//! to the frontend), and a [`NetFaultPlan`] drop swallows one response.
//! Both surface at the frontend as a gather deadline, never an error.

use crate::chaos::NetFaultPlan;
use crate::transport::Duplex;
use crate::wire::{self, Message, Telemetry, TraceContext};
use pmr_core::method::DistributionMethod;
use pmr_core::SystemConfig;
use pmr_rt::obs;
use pmr_rt::obs::snapshot::MetricsSnapshot;
use pmr_storage::exec::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Runs one node's serve loop until the peer closes or a `Shutdown`
/// frame arrives. Blocking — see [`spawn`] for the threaded form.
pub fn serve<D: DistributionMethod + Clone + Send + Sync + 'static>(
    id: u32,
    sys: SystemConfig,
    exec: Executor<D>,
    duplex: Duplex,
    kill: Arc<AtomicBool>,
    faults: Option<NetFaultPlan>,
) {
    let Duplex { mut tx, mut rx } = duplex;
    while let Ok(frame) = rx.recv_frame() {
        let req = match wire::decode_message(&frame) {
            Ok(Message::Request(req)) => req,
            Ok(Message::Shutdown) => break,
            // A response frame here is a protocol violation; count and
            // drop it like any undecodable frame.
            Ok(Message::Response(_)) | Err(_) => {
                obs::NET_NODE_DECODE_ERRORS.add(1);
                continue;
            }
        };
        // A killed node is a crashed process: it consumes its mailbox
        // (the transport still delivers) but never answers.
        if kill.load(Ordering::Relaxed) {
            continue;
        }
        if faults.is_some_and(|f| f.drops(id, req.request_id)) {
            obs::NET_NODE_DROPPED.add(1);
            continue;
        }
        let started = Instant::now();
        // The propagated trace context rides on the span as attributes
        // (0 = none), linking this node span to the frontend's scatter
        // span across the process boundary.
        let trace = req.trace.unwrap_or(TraceContext {
            trace_id: 0,
            parent_span: 0,
        });
        let span = pmr_rt::span!(
            obs::NET_NODE_REQUEST,
            node = id as u64,
            queries = req.queries.len() as u64,
            trace = trace.trace_id,
            parent_span = trace.parent_span
        );
        let planned: Result<Vec<_>, _> = req.queries.iter().map(|q| q.to_planned(&sys)).collect();
        let planned = match planned {
            Ok(planned) => planned,
            Err(_) => {
                obs::NET_NODE_DECODE_ERRORS.add(1);
                continue;
            }
        };
        let policy = req.policy.to_policy();
        // Raw yields: the validated stored bytes of every served page,
        // never decoded here — the frontend's decode is the only one.
        let queries = exec.execute_planned_raw(&planned, &policy);
        let busy_us = started.elapsed().as_micros() as u64;
        obs::NET_NODE_BUSY_US.observe_us(busy_us as f64);
        // v1.1 telemetry: accumulated **node-locally** per request, not
        // via metric-table deltas — in-process clusters share one global
        // table, so deltas would cross-contaminate between concurrent
        // nodes. With tracing off this whole block is skipped and the
        // frame stays byte-identical to v1.
        let telemetry = obs::enabled().then(|| {
            let mut m = MetricsSnapshot::default();
            m.add_counter("requests", 1);
            m.add_counter("queries", queries.len() as u64);
            let records: u64 = queries.iter().flatten().map(|y| y.report.records).sum();
            let lost: u64 = queries.iter().flatten().map(|y| y.lost.len() as u64).sum();
            m.add_counter("records", records);
            m.add_counter("lost", lost);
            // Same value, same bounds as the frontend's `net.node_rt_us`
            // observation of this response — that is what makes the
            // merged `node{N}.busy_us` histograms reconcile with it.
            m.observe_us("busy_us", busy_us as f64);
            Telemetry {
                span_id: span.id().unwrap_or(0),
                metrics: m,
            }
        });
        // Byte-identical to `encode_message` over the decoded yields.
        let frame =
            wire::encode_response(req.request_id, id, busy_us, &queries, telemetry.as_ref());
        if tx.send_frame(&frame).is_err() {
            break;
        }
    }
}

/// Spawns [`serve`] on a named thread.
pub fn spawn<D: DistributionMethod + Clone + Send + Sync + 'static>(
    id: u32,
    sys: SystemConfig,
    exec: Executor<D>,
    duplex: Duplex,
    kill: Arc<AtomicBool>,
    faults: Option<NetFaultPlan>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pmr-net-node-{id}"))
        .spawn(move || serve(id, sys, exec, duplex, kill, faults))
        .expect("spawn node thread")
}

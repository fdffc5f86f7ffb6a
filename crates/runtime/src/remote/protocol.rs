//! The parent half of the worker protocol, transport-agnostic.
//!
//! Request framing (manifest dispatch, graceful shutdown) and the response
//! drain — the loop that turns a worker's `R`/`E`/`D` frame stream back
//! into ordered slot results — live here once, shared by
//! [`crate::exec::ShardedBackend`] (pipes) and
//! [`crate::remote::RemoteBackend`] (TCP). Before this module both
//! endpoints inlined their own copy of the frame loop.

use crate::exec::{frame, ExecError, TaskManifest, WIRE_VERSION};
use crate::grid::{Progress, ProgressFn, Segment};
use crate::remote::transport::FrameTransport;
use crate::wire::{self, Reader, WireError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Encode a manifest-dispatch request: tag, protocol version, worker
/// thread count, trace ID (`0` = no job trace context), then the manifest
/// itself.
pub(crate) fn encode_manifest_request(
    threads: usize,
    manifest: &TaskManifest,
    trace: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    wire::put_u8(&mut body, frame::MANIFEST);
    wire::put_u8(&mut body, WIRE_VERSION);
    wire::put_u32(&mut body, threads as u32);
    wire::put_u64(&mut body, trace);
    manifest.encode_into(&mut body);
    body
}

/// A decoded manifest-dispatch request: the worker's view of
/// [`encode_manifest_request`].
#[derive(Debug)]
pub(crate) struct ManifestRequest {
    /// Worker threads to run the manifest on (at least 1).
    pub threads: usize,
    /// The parent's trace ID (`0` = untraced).
    pub trace: u64,
    /// The validated manifest to execute.
    pub manifest: TaskManifest,
}

/// Decode a manifest-dispatch request from a reader positioned just past
/// its tag byte. Every malformed body — wrong version, truncation,
/// trailing bytes, a manifest that fails [`TaskManifest::validate`] — is a
/// [`WireError`].
pub(crate) fn decode_manifest_request(mut r: Reader<'_>) -> Result<ManifestRequest, WireError> {
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::new(format!(
            "protocol version {version} (worker speaks {WIRE_VERSION})"
        )));
    }
    let threads = (r.get_u32()? as usize).max(1);
    let trace = r.get_u64()?;
    let manifest = TaskManifest::decode(&mut r)?;
    r.finish()?;
    Ok(ManifestRequest {
        threads,
        trace,
        manifest,
    })
}

/// Encode a graceful-shutdown request (no payload).
pub(crate) fn encode_shutdown_request() -> Vec<u8> {
    vec![frame::SHUTDOWN]
}

/// How one chunk's response stream ended.
#[derive(Debug)]
pub(crate) enum Drained {
    /// `D` received and every slot of the chunk was delivered; the
    /// transport is clean and reusable.
    Complete,
    /// The worker reported a task error in-band (`E`): the chunk's
    /// lowest-flat-index failure. The transport is clean and reusable —
    /// the error is deterministic, so re-dispatching would fail again.
    TaskError(ExecError),
    /// The stream broke: EOF mid-chunk, I/O failure, or a protocol
    /// violation. The transport is unusable; `sink.delivered` records which
    /// slots were salvaged before the break (re-dispatch material for
    /// backends that retry).
    Broken(String),
}

/// Where one chunk's results land while its response stream drains.
///
/// Results go straight into the **global** flat-index table (`results`,
/// sized for the whole manifest) so gathers need no per-chunk reshuffle;
/// `delivered` is the chunk-local bitmap retry logic consumes.
pub(crate) struct ChunkSink<'a> {
    /// `(point, replication, seed)` of each chunk-local slot.
    pub slots: &'a [(usize, u64, u64)],
    /// Chunk-local slot index → global flat index.
    pub global_flat: &'a [usize],
    /// The whole manifest's result table, indexed by global flat index.
    pub results: &'a [OnceLock<Vec<u8>>],
    /// Chunk-local delivery bitmap (same length as `slots`).
    pub delivered: &'a mut [bool],
    /// Grand-total completion counter shared across all chunks.
    pub completed: &'a AtomicUsize,
    /// Total slots in the whole manifest (for progress ticks).
    pub grand_total: usize,
    /// Progress callback, if any.
    pub progress: Option<&'a ProgressFn>,
}

/// Drain one chunk's response frames from `transport` into `sink`.
///
/// Reads until `D` (complete), `E` (in-band task error) or a stream
/// failure. Never returns early on a decode problem without classifying the
/// transport as broken — a worker that emits garbage cannot be trusted with
/// further chunks.
pub(crate) fn drain_chunk(transport: &mut dyn FrameTransport, sink: ChunkSink<'_>) -> Drained {
    debug_assert_eq!(sink.slots.len(), sink.global_flat.len());
    debug_assert_eq!(sink.slots.len(), sink.delivered.len());
    loop {
        let body = match transport.recv() {
            Ok(Some(b)) => b,
            Ok(None) => return Drained::Broken("EOF before chunk completed".into()),
            Err(e) => return Drained::Broken(format!("frame read failed: {e}")),
        };
        let mut r = Reader::new(&body);
        let step = (|| -> Result<Option<Drained>, WireError> {
            match r.get_u8()? {
                frame::RESULT => {
                    let local = r.get_u64()? as usize;
                    let bytes = r.get_bytes()?.to_vec();
                    r.finish()?;
                    if local >= sink.slots.len() {
                        return Err(WireError::new(format!(
                            "result slot {local} out of range ({} slots)",
                            sink.slots.len()
                        )));
                    }
                    if sink.delivered[local]
                        || sink.results[sink.global_flat[local]].set(bytes).is_err()
                    {
                        return Err(WireError::new(format!("slot {local} delivered twice")));
                    }
                    sink.delivered[local] = true;
                    let done_now = sink.completed.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(cb) = sink.progress {
                        let (point, rep, _seed) = sink.slots[local];
                        cb(Progress {
                            point,
                            replication: rep,
                            completed: done_now,
                            total: sink.grand_total,
                        });
                    }
                    Ok(None)
                }
                frame::ERROR => {
                    let local = r.get_u64()? as usize;
                    let message = r.get_str()?.to_string();
                    r.finish()?;
                    // Same trust boundary as the RESULT arm: an
                    // out-of-range slot is a protocol violation, not an
                    // error report — a worker that garbles indices gets
                    // its transport abandoned, never a fabricated Task
                    // error that could win lowest-index selection.
                    let &(point, rep, _seed) = sink.slots.get(local).ok_or_else(|| {
                        WireError::new(format!(
                            "error slot {local} out of range ({} slots)",
                            sink.slots.len()
                        ))
                    })?;
                    Ok(Some(Drained::TaskError(ExecError::Task {
                        flat_index: sink.global_flat[local],
                        point,
                        replication: rep,
                        message,
                    })))
                }
                frame::HEARTBEAT => {
                    // Liveness tick from an executing worker: resets the
                    // transport's read timeout simply by having arrived.
                    r.finish()?;
                    Ok(None)
                }
                frame::PROGRESS => {
                    // Progress tick (wire version 4): liveness plus the
                    // worker's delivered/total counts. The counts are
                    // advisory — completion accounting derives solely from
                    // `R` frames (which this drain already turns into
                    // progress callbacks), so a reordered or dropped `P`
                    // frame can never skew the gather or double-tick the
                    // completed counter.
                    let _delivered = r.get_u64()?;
                    let _total = r.get_u64()?;
                    r.finish()?;
                    Ok(None)
                }
                frame::SPANS => {
                    // Span batch (wire version 5): the worker's trace
                    // spans for this chunk. Advisory like `P` — spans
                    // fold into the parent's collector for rendering,
                    // but results derive solely from `R` frames, so a
                    // lost batch costs observability only. Slot spans
                    // arrive with *chunk-local* flat indices; remap them
                    // through the sink's flat table so remainder
                    // re-dispatches stay correctly attributed.
                    let spans = crate::trace::decode_spans(&mut r)?;
                    r.finish()?;
                    let tr = crate::trace::tracer();
                    for mut span in spans {
                        if span.name == crate::trace::name::SLOT {
                            let local = span.flat as usize;
                            if let Some(&global) = sink.global_flat.get(local) {
                                span.flat = global as u64;
                            }
                        }
                        tr.record_span(span);
                    }
                    Ok(None)
                }
                frame::DONE => {
                    let claimed = r.get_u64()? as usize;
                    r.finish()?;
                    let have = sink.delivered.iter().filter(|d| **d).count();
                    if claimed != have {
                        return Err(WireError::new(format!(
                            "worker claims {claimed} result(s), received {have}"
                        )));
                    }
                    if have != sink.slots.len() {
                        return Err(WireError::new(format!(
                            "worker completed with {have} of {} slot(s) delivered",
                            sink.slots.len()
                        )));
                    }
                    Ok(Some(Drained::Complete))
                }
                tag => Err(WireError::new(format!("unknown frame tag {tag:#x}"))),
            }
        })();
        match step {
            Ok(None) => continue,
            Ok(Some(outcome)) => return outcome,
            Err(e) => return Drained::Broken(format!("protocol violation: {e}")),
        }
    }
}

/// The undelivered remainder of a partially-drained chunk: every slot
/// whose `delivered` bit is unset, re-packed into merged contiguous
/// segments plus the matching global-flat-index map. `None` when every
/// slot landed. This is the re-dispatch unit shared by the remote
/// backend's peer-death recovery and the supervised shard path — retried
/// slots are seeded pure functions, so a remainder re-run is
/// byte-identical by construction.
pub(crate) fn undelivered_remainder(
    manifest: &TaskManifest,
    global_flat: &[usize],
    delivered: &[bool],
) -> Option<(TaskManifest, Vec<usize>)> {
    let slots = manifest.slots();
    let mut segments: Vec<Segment> = Vec::new();
    let mut seeds = Vec::new();
    let mut flat = Vec::new();
    for (local, &(point, rep, seed)) in slots.iter().enumerate() {
        if delivered[local] {
            continue;
        }
        match segments.last_mut() {
            Some(seg) if seg.point == point && seg.base_rep + seg.count as u64 == rep => {
                seg.count += 1;
            }
            _ => segments.push(Segment {
                point,
                base_rep: rep,
                count: 1,
            }),
        }
        seeds.push(seed);
        flat.push(global_flat[local]);
    }
    if seeds.is_empty() {
        return None;
    }
    Some((
        TaskManifest {
            kind: manifest.kind.clone(),
            payload: manifest.payload.clone(),
            segments,
            seeds,
        },
        flat,
    ))
}

/// First undelivered slot's global flat index, if any — the attribution
/// point for a worker that died owing part of its chunk.
pub(crate) fn first_undelivered(global_flat: &[usize], delivered: &[bool]) -> Option<usize> {
    delivered
        .iter()
        .zip(global_flat)
        .filter(|(d, _)| !**d)
        .map(|(_, &g)| g)
        .min()
}

/// Keep whichever error has the lower attributed flat index — the
/// deterministic cross-chunk selection both multi-worker backends share
/// (matching `Runner::try_grid`).
pub(crate) fn keep_lowest_error(slot: &mut Option<ExecError>, e: ExecError) {
    match slot {
        Some(cur) if cur.flat_index() <= e.flat_index() => {}
        _ => *slot = Some(e),
    }
}

/// Collapse a completed gather table into flat-order result bytes. A
/// missing slot is impossible after every chunk drained clean; it is
/// reported as a worker error rather than a panic because the table was
/// filled by untrusted peers.
pub(crate) fn collect_results(results: Vec<OnceLock<Vec<u8>>>) -> Result<Vec<Vec<u8>>, ExecError> {
    results
        .into_iter()
        .enumerate()
        .map(|(flat, slot)| {
            slot.into_inner().ok_or(ExecError::Worker {
                flat_index: flat,
                message: "gather finished without delivering this slot".into(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use crate::exec::JobRegistry;
    use crate::remote::transport::MemTransport;
    use proptest::prelude::*;

    /// Offset and width of every length or count field in the request
    /// body `encode_manifest_request` builds for `m`.
    fn count_fields(m: &TaskManifest) -> Vec<(usize, usize)> {
        // tag u8, version u8, threads u32, trace u64.
        let mut at = 14;
        let mut fields = vec![(at, 4)]; // kind length
        at += 4 + m.kind.len();
        fields.push((at, 4)); // payload length
        at += 4 + m.payload.len();
        fields.push((at, 4)); // segment count
        at += 4;
        for _ in &m.segments {
            fields.push((at + 8, 8)); // first replication
            fields.push((at + 16, 8)); // slot count
            at += 24;
        }
        fields.push((at, 4)); // seed count
        fields
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mangled manifest requests — truncated, bit-flipped, with an
        /// inflated length or count field, or under an unknown tag — decode
        /// to a typed error or to a manifest whose slot count matches its
        /// seed table, through both `TaskManifest::decode` and the worker's
        /// request parse, and never panic the worker's serve loop.
        #[test]
        fn mangled_manifest_requests_fail_typed(
            reps in proptest::collection::vec(0u64..4, 0..4),
            mutation in 0u8..4,
            pos in 0usize..4096,
            bit in 0u32..8,
            big in 0usize..4,
        ) {
            let segments = reps
                .iter()
                .enumerate()
                .map(|(point, &n)| Segment { point, base_rep: 0, count: n as usize })
                .collect();
            let job = MulJob { factor: 3 };
            let m = TaskManifest::for_job(&job, segments, &|p, r| 100 * p as u64 + r);
            let mut body = encode_manifest_request(2, &m, 9);
            let at = pos % body.len();
            match mutation {
                0 => body.truncate(at),
                1 => body[at] ^= 1 << bit,
                2 => {
                    let fields = count_fields(&m);
                    let (at, width) = fields[pos % fields.len()];
                    let v = match width {
                        4 => [u32::MAX, 1 << 31, 1 << 24, 0xFFFF_FF00][big] as u64,
                        _ => [u64::MAX, 1 << 63, (1 << 63) + 1, 1 << 32][big],
                    };
                    body[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                }
                _ => body[0] = [0x00, 0x4E, 0x7F, 0xFF][big],
            }

            let mut r = Reader::new(&body);
            if r.get_u8().ok() == Some(frame::MANIFEST) {
                if let Ok(req) = decode_manifest_request(r) {
                    prop_assert_eq!(req.manifest.total_slots(), req.manifest.seeds.len());
                }
            }
            if let Some(bytes) = body.get(14..) {
                if let Ok(m) = TaskManifest::decode(&mut Reader::new(bytes)) {
                    prop_assert_eq!(m.total_slots(), m.seeds.len());
                }
            }

            let mut framed = Vec::new();
            wire::write_frame(&mut framed, &body).unwrap();
            let mut reg = JobRegistry::new();
            reg.register("test-mul", decode_mul);
            let served = crate::worker::serve(&reg, &mut MemTransport::new(framed));
            if mutation == 3 {
                prop_assert!(served.is_err(), "unknown tag {:#x} accepted", body[0]);
            }
        }
    }
}

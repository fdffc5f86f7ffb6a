//! The remote TCP execution subsystem: multi-host backends on the
//! [`ExecBackend`](crate::exec::ExecBackend) seam.
//!
//! The frame protocol and per-slot seed manifests of [`crate::exec`]
//! already carry everything a worker needs; this module adds the
//! transports that carry them **off the machine**:
//!
//! * [`transport::FrameTransport`] — the one framed-channel trait behind
//!   the worker serve loop and both parent-side drains (stdio pipes and
//!   TCP), deduplicating the frame read/write code the endpoints used to
//!   inline;
//! * [`serve_listener`] — the TCP worker mode (`<exe> --worker --listen
//!   <addr>`): accept connections, serve manifest requests per connection,
//!   exit on an explicit shutdown frame;
//! * [`RemoteBackend`] — `ExecBackend` over N TCP peers: contiguous
//!   manifest chunks, one drain thread per peer, byte-identical
//!   flat-index gather, and re-dispatch of a dead peer's undelivered
//!   slots to the survivors (slots are seeded and pure, so retry cannot
//!   change an output byte);
//! * [`AsyncBackend`] / [`probe_live`] — std-only I/O overlap (no tokio in
//!   the offline vendor tree) and nonblocking-`peek` liveness probes,
//!   used for the remote backend's concurrent connects and its
//!   pre-dispatch peer heartbeat.

pub mod async_backend;
pub(crate) mod protocol;
pub mod transport;

mod backend;

pub use async_backend::{probe_live, AsyncBackend};
pub use backend::RemoteBackend;
pub use transport::{FrameTransport, PipeTransport, StdioTransport, TcpTransport};

use crate::exec::JobRegistry;
use crate::wire::WireError;
use crate::worker::{serve, ServeOutcome};
use std::net::TcpListener;

/// Send the graceful-shutdown frame on `transport`: the receiving worker
/// finishes its serve loop (and, in listen mode, exits the process)
/// instead of being killed or left to infer EOF. Harnesses like
/// `bench::remote::LocalCluster` use this for clean teardown.
pub fn send_shutdown(transport: &mut dyn FrameTransport) -> std::io::Result<()> {
    transport.send(&protocol::encode_shutdown_request())?;
    transport.flush()
}

/// Serve the TCP worker mode: bind `addr`, announce the bound address on
/// stdout (`listening <addr>` — the only stdout line; with port 0 this is
/// how a harness learns the ephemeral port), then accept connections and
/// serve each **on its own thread** until the peer hangs up. Returns after
/// any connection sends an explicit shutdown frame.
///
/// A protocol failure on one connection is logged to stderr and does not
/// take the worker down, and a connection whose parent silently vanished
/// (power loss, partition — no FIN/RST, so its read blocks forever)
/// wedges only its own detached thread: the accept loop keeps serving
/// fresh dispatches, so one dead parent can never make the host unusable,
/// and wedged threads die with the process rather than delaying shutdown.
/// Workers therefore survive any number of backend dispatches, adaptive
/// rounds, and sibling crashes; only the shutdown frame (or a signal)
/// ends the process.
pub fn serve_listener(registry: std::sync::Arc<JobRegistry>, addr: &str) -> Result<(), WireError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let listener =
        TcpListener::bind(addr).map_err(|e| WireError::new(format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| WireError::new(format!("local_addr: {e}")))?;
    println!("listening {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let shutdown = Arc::new(AtomicBool::new(false));
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // become a 100%-CPU hot loop; back off.
                eprintln!("[worker {local}] accept failed: {e}");
                std::thread::sleep(std::time::Duration::from_millis(100));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let registry = registry.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            let mut transport = TcpTransport::new(stream);
            match serve(&registry, &mut transport) {
                Ok(ServeOutcome::Shutdown) => {
                    shutdown.store(true, Ordering::SeqCst);
                    // Self-connect to unblock the accept loop so it
                    // observes the flag and returns.
                    let _ = std::net::TcpStream::connect(local);
                }
                Ok(ServeOutcome::Eof) => {}
                Err(e) => eprintln!("[worker {local}] connection {peer}: {e}"),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use crate::exec::{ExecBackend, ExecError, InProcessBackend, PortableJob, TaskManifest};
    use crate::grid::Segment;
    use crate::wire;
    use std::net::TcpStream;
    use std::time::Duration;

    fn registry() -> JobRegistry {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        reg
    }

    /// Spawn an in-process TCP worker on an ephemeral loopback port;
    /// returns its address. Mirrors `serve_listener`: each connection is
    /// served on its own thread (the backend's warm pool keeps
    /// connections open across dispatches, so a sequential accept loop
    /// would never see the shutdown connection), and the accept loop
    /// returns once any connection delivers the shutdown frame.
    fn spawn_worker() -> (String, std::thread::JoinHandle<()>) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
        let addr = local.to_string();
        let handle = std::thread::spawn(move || {
            let shutdown = Arc::new(AtomicBool::new(false));
            loop {
                let (stream, _) = listener.accept().unwrap();
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let shutdown = shutdown.clone();
                std::thread::spawn(move || {
                    let mut t = TcpTransport::new(stream);
                    if let Ok(ServeOutcome::Shutdown) = serve(&registry(), &mut t) {
                        shutdown.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it observes the flag.
                        let _ = TcpStream::connect(local);
                    }
                });
            }
        });
        (addr, handle)
    }

    fn shutdown_peer(addr: &str) {
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
        t.send(&protocol::encode_shutdown_request()).unwrap();
        t.flush().unwrap();
    }

    fn mul_manifest(reps: &[u64]) -> TaskManifest {
        let job = MulJob { factor: 3 };
        let segments = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        TaskManifest::for_job(&job, segments, &|p, r| (p as u64) << 32 | r)
    }

    #[test]
    fn remote_backend_matches_in_process_bytes_at_any_host_count() {
        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[3, 1, 5, 2]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        for peers in [1usize, 2, 4] {
            let workers: Vec<_> = (0..peers).map(|_| spawn_worker()).collect();
            let hosts: Vec<String> = workers.iter().map(|(a, _)| a.clone()).collect();
            let backend = RemoteBackend::new(hosts.clone(), 2);
            let out = backend.run_segments(&job, &m, None).unwrap();
            assert_eq!(baseline, out, "peers={peers}");
            assert!(backend.label().contains("remote"));
            for (addr, handle) in workers {
                shutdown_peer(&addr);
                handle.join().unwrap();
            }
        }
    }

    #[test]
    fn remote_backend_serves_multiple_dispatches_per_worker() {
        // Adaptive rounds dispatch several manifests; the worker must
        // survive reconnects.
        let (addr, handle) = spawn_worker();
        // Factor must match `mul_manifest`'s payload: the remote side
        // re-decodes the job from the manifest, the local side uses ours.
        let job = MulJob { factor: 3 };
        let backend = RemoteBackend::new(vec![addr.clone()], 1);
        for reps in [[2u64, 1], [1, 3]] {
            let m = mul_manifest(&reps);
            let expect = InProcessBackend::new(1)
                .run_segments(&job, &m, None)
                .unwrap();
            assert_eq!(backend.run_segments(&job, &m, None).unwrap(), expect);
        }
        shutdown_peer(&addr);
        handle.join().unwrap();
    }

    #[test]
    fn dead_peer_chunk_redispatches_to_survivor_bit_identically() {
        // Peer 0 is a saboteur: it reads the request, streams the first
        // R frame, then drops the connection. Peer 1 is a real worker.
        // The gather must re-dispatch the undelivered remainder and still
        // produce the exact in-process bytes.
        let saboteur = TcpListener::bind("127.0.0.1:0").unwrap();
        let sab_addr = saboteur.local_addr().unwrap().to_string();
        let sab = std::thread::spawn(move || {
            let (stream, _) = saboteur.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let req = t.recv().unwrap().unwrap();
            // Decode the manifest to answer slot 0 honestly first.
            let mut r = wire::Reader::new(&req);
            assert_eq!(r.get_u8().unwrap(), crate::exec::frame::MANIFEST);
            let m = protocol::decode_manifest_request(r).unwrap().manifest;
            let job = MulJob { factor: 3 };
            let (p, rep, seed) = m.slots()[0];
            let mut body = Vec::new();
            wire::put_u8(&mut body, crate::exec::frame::RESULT);
            wire::put_u64(&mut body, 0);
            wire::put_bytes(&mut body, &job.run_slot(p, rep, seed).unwrap());
            t.send(&body).unwrap();
            t.flush().unwrap();
            // ... then die mid-chunk.
        });
        let (good_addr, good_handle) = spawn_worker();

        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[4, 4]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let backend = RemoteBackend::new(vec![sab_addr, good_addr.clone()], 1);
        let out = backend.run_segments(&job, &m, None).unwrap();
        assert_eq!(baseline, out);
        sab.join().unwrap();
        shutdown_peer(&good_addr);
        good_handle.join().unwrap();
    }

    #[test]
    fn silently_stalled_peer_times_out_and_redispatches() {
        // Unlike a dropped connection, a *stalled* peer (machine vanished
        // without FIN/RST, network partition) keeps the socket open and
        // just goes quiet. The saboteur answers one slot, then holds the
        // connection silently; the parent's read timeout must classify it
        // dead — real workers heartbeat every 500 ms, so silence is never
        // "slow slots" — and re-dispatch the remainder to the healthy
        // peer, bit-identically.
        let saboteur = TcpListener::bind("127.0.0.1:0").unwrap();
        let sab_addr = saboteur.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = saboteur.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let req = t.recv().unwrap().unwrap();
            let mut r = wire::Reader::new(&req);
            assert_eq!(r.get_u8().unwrap(), crate::exec::frame::MANIFEST);
            let m = protocol::decode_manifest_request(r).unwrap().manifest;
            let job = MulJob { factor: 3 };
            let (p, rep, seed) = m.slots()[0];
            let mut body = Vec::new();
            wire::put_u8(&mut body, crate::exec::frame::RESULT);
            wire::put_u64(&mut body, 0);
            wire::put_bytes(&mut body, &job.run_slot(p, rep, seed).unwrap());
            t.send(&body).unwrap();
            t.flush().unwrap();
            // ... then go silent with the connection held open. The test
            // process exits long before this sleep ends.
            std::thread::sleep(Duration::from_secs(60));
        });
        let (good_addr, good_handle) = spawn_worker();

        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[4, 4]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let backend = RemoteBackend::new(vec![sab_addr, good_addr.clone()], 1)
            .with_io_timeout(Some(Duration::from_millis(1500)));
        let t0 = std::time::Instant::now();
        let out = backend.run_segments(&job, &m, None).unwrap();
        assert_eq!(baseline, out);
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "stall detection took {:?}",
            t0.elapsed()
        );
        shutdown_peer(&good_addr);
        good_handle.join().unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_worker_error() {
        // A peer that accepts, swallows the request, and hangs up without
        // answering: the dispatch breaks mid-chunk, and with no surviving
        // peer to re-dispatch to, the gather must surface a Worker error
        // attributed to the first undelivered slot.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let _request = t.recv().unwrap();
            // Drop without replying: EOF mid-chunk on the parent side.
        });
        let job = MulJob { factor: 1 };
        let m = mul_manifest(&[3]);
        let backend = RemoteBackend::new(vec![addr], 1).with_retry_budget(1);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        match err {
            ExecError::Worker { flat_index, .. } => assert_eq!(flat_index, 0),
            other => panic!("unexpected error {other:?}"),
        }
        handle.join().unwrap();
    }

    #[test]
    fn unreachable_host_is_a_protocol_error() {
        let job = MulJob { factor: 1 };
        let m = mul_manifest(&[2]);
        // Loopback port 1: nothing listens there, connect is refused.
        let mut backend = RemoteBackend::new(vec!["127.0.0.1:1".into()], 1)
            .with_retry_budget(0)
            .with_io_timeout(None);
        backend.connect_timeout = Duration::from_millis(500);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        assert!(matches!(err, ExecError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn task_error_from_remote_peer_keeps_lowest_flat_index() {
        struct FailFrom(usize);
        impl PortableJob for FailFrom {
            fn kind(&self) -> &'static str {
                "test-fail-from"
            }
            fn encode_payload(&self, buf: &mut Vec<u8>) {
                wire::put_u64(buf, self.0 as u64);
            }
            fn run_slot(&self, point: usize, rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
                if point >= self.0 {
                    Err(format!("refused ({point},{rep})"))
                } else {
                    Ok(vec![1])
                }
            }
        }
        // Worker-side registry including the failing job. Per-connection
        // serve threads, as in `spawn_worker`: the warm pool keeps the
        // dispatch connection open, so the shutdown frame arrives on a
        // second connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
        let addr = local.to_string();
        let handle = std::thread::spawn(move || {
            use std::sync::atomic::{AtomicBool, Ordering};
            use std::sync::Arc;
            fn reg() -> JobRegistry {
                let mut reg = JobRegistry::new();
                reg.register("test-fail-from", |p| {
                    let mut r = wire::Reader::new(p);
                    let from = r.get_u64()? as usize;
                    r.finish()?;
                    Ok(Box::new(FailFrom(from)))
                });
                reg
            }
            let shutdown = Arc::new(AtomicBool::new(false));
            loop {
                let (stream, _) = listener.accept().unwrap();
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let shutdown = shutdown.clone();
                std::thread::spawn(move || {
                    let mut t = TcpTransport::new(stream);
                    if let Ok(ServeOutcome::Shutdown) = serve(&reg(), &mut t) {
                        shutdown.store(true, Ordering::SeqCst);
                        let _ = TcpStream::connect(local);
                    }
                });
            }
        });
        let job = FailFrom(1);
        let m = TaskManifest::for_job(
            &job,
            vec![
                Segment {
                    point: 0,
                    base_rep: 0,
                    count: 3,
                },
                Segment {
                    point: 1,
                    base_rep: 0,
                    count: 3,
                },
                Segment {
                    point: 2,
                    base_rep: 0,
                    count: 3,
                },
            ],
            &|_, _| 0,
        );
        let backend = RemoteBackend::new(vec![addr.clone()], 2);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        match err {
            ExecError::Task {
                flat_index,
                point,
                replication,
                ..
            } => assert_eq!((flat_index, point, replication), (3, 1, 0)),
            other => panic!("unexpected error {other:?}"),
        }
        shutdown_peer(&addr);
        handle.join().unwrap();
    }
}

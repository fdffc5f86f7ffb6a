//! In-process overlap for I/O-bound work, without an async runtime.
//!
//! The simulation slots this workspace schedules are CPU-bound, so
//! [`crate::exec::InProcessBackend`] sizes its pool by core count. Driving
//! *sockets* is different: a task that spends its life blocked in
//! `read(2)` costs no CPU, and the right concurrency is "one per in-flight
//! I/O", not "one per core". The offline vendor tree has no tokio (and no
//! libc for a real `poll(2)`), so this module provides the two std-only
//! pieces the remote subsystem needs:
//!
//! * [`AsyncBackend`] — an [`ExecBackend`] (and a plain [`overlap`]
//!   combinator) that oversubscribes OS threads up to an explicit
//!   concurrency budget. Blocked threads overlap for free; the claim/fold
//!   discipline is the shared scheduling core, so results stay in
//!   flat-index order and **byte-identical** to every other backend.
//! * [`probe_live`] — poll-style readiness over a **nonblocking** socket:
//!   a zero-copy `peek` that classifies a peer as alive (no data yet /
//!   data pending) or dead (EOF, reset) without consuming stream bytes.
//!   [`crate::remote::RemoteBackend`] uses it as its connection heartbeat:
//!   peers are probed after connect and before every chunk dispatch, so a
//!   peer that died while idle is detected *before* work is committed to
//!   it rather than by a mid-chunk write failure.
//!
//! [`overlap`]: AsyncBackend::overlap

use crate::exec::{ExecBackend, ExecError, InProcessBackend, PortableJob, TaskManifest};
use crate::grid::ProgressFn;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An executor for I/O-bound jobs: up to `concurrency` slots in flight at
/// once on oversubscribed OS threads (deliberately *not* clamped to the
/// core count — a slot blocked on a socket holds no core).
#[derive(Debug, Clone, Copy)]
pub struct AsyncBackend {
    /// Maximum slots in flight at once.
    pub concurrency: usize,
}

impl AsyncBackend {
    /// A backend with the given in-flight budget (clamped to ≥ 1).
    pub fn new(concurrency: usize) -> Self {
        AsyncBackend {
            concurrency: concurrency.max(1),
        }
    }

    /// Run `tasks` with at most `self.concurrency` in flight, returning
    /// their outputs in task order. This is the primitive behind the
    /// `ExecBackend` impl, exposed directly for I/O chores that are not
    /// portable jobs — e.g. [`crate::remote::RemoteBackend`] establishing
    /// its peer connections concurrently.
    pub fn overlap<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let total = tasks.len();
        if total == 0 {
            return Vec::new();
        }
        let threads = self.concurrency.min(total);
        if threads == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let task = tasks[i]
                        .lock()
                        .expect("task cell never poisoned")
                        .take()
                        .expect("each task claimed once");
                    let out = task();
                    *slots[i].lock().expect("slot never poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot never poisoned")
                    .expect("every task ran")
            })
            .collect()
    }
}

impl ExecBackend for AsyncBackend {
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        // Same claim order and fold as the in-process pool — only the
        // thread budget differs (I/O in flight, not cores).
        InProcessBackend::new(self.concurrency).run_segments(job, manifest, progress)
    }

    fn label(&self) -> String {
        format!("async(concurrency={})", self.concurrency)
    }
}

/// Poll-style liveness probe of a connected peer, without consuming stream
/// data: flip the socket to nonblocking, `peek` one byte, flip back.
///
/// * `WouldBlock` — peer idle but connected: **alive**;
/// * `Ok(n > 0)` — response bytes already queued: **alive**;
/// * `Ok(0)` — orderly shutdown (EOF): **dead**;
/// * any other error (reset, aborted): **dead**.
///
/// Interrupted probes retry; a socket whose mode cannot be restored is
/// reported dead (its blocking reads would spin).
pub fn probe_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let verdict = loop {
        let mut byte = [0u8; 1];
        break match stream.peek(&mut byte) {
            Ok(0) => false,
            Ok(_) => true,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => false,
        };
    };
    stream.set_nonblocking(false).is_ok() && verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn overlap_preserves_task_order() {
        let out = AsyncBackend::new(4).overlap(
            (0..32)
                .map(|i| {
                    move || {
                        if i % 3 == 0 {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        i * 10
                    }
                })
                .collect(),
        );
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn overlap_actually_overlaps_blocking_tasks() {
        // 8 tasks that each sleep 30 ms: serially 240 ms, with a budget of
        // 8 they finish in roughly one sleep.
        let t0 = std::time::Instant::now();
        let out = AsyncBackend::new(8).overlap(
            (0..8)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis(30));
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(out.len(), 8);
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "no overlap: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn overlap_caps_in_flight_tasks() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let backend = AsyncBackend::new(3);
        backend.overlap(
            (0..16)
                .map(|_| {
                    let in_flight = &in_flight;
                    let peak = &peak;
                    move || {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                })
                .collect(),
        );
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn probe_classifies_live_and_dead_peers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        // Connected and idle: alive from both ends.
        assert!(probe_live(&client));
        assert!(probe_live(&server));
        // Peer hangs up: EOF → dead (may need a beat to propagate).
        drop(server);
        let dead = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(2));
            !probe_live(&client)
        });
        assert!(dead, "closed peer still probes alive");
    }

    #[test]
    fn probe_leaves_stream_data_intact() {
        use std::io::{Read, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"xyz").unwrap();
        server.flush().unwrap();
        // Wait until the bytes are visible, probing as we go.
        let mut seen = false;
        for _ in 0..100 {
            if probe_live(&client) {
                seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(seen);
        let mut buf = [0u8; 3];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn async_backend_matches_in_process_bytes() {
        use crate::exec::tests::MulJob;
        use crate::grid::Segment;
        let job = MulJob { factor: 3 };
        let segments = vec![
            Segment {
                point: 0,
                base_rep: 0,
                count: 3,
            },
            Segment {
                point: 1,
                base_rep: 0,
                count: 5,
            },
        ];
        let m = TaskManifest::for_job(&job, segments, &|p, r| (p as u64) << 8 | r);
        let base = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let over = AsyncBackend::new(16).run_segments(&job, &m, None).unwrap();
        assert_eq!(base, over);
        assert!(AsyncBackend::new(16).label().contains("async"));
    }
}

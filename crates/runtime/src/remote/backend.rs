//! The multi-host executor backend: manifests over TCP to `--worker
//! --listen` peers.

use crate::exec::{
    run_slots_in_process, ExecBackend, ExecError, InProcessBackend, PortableJob, TaskManifest,
};
use crate::fleet::chaos::{ChaosConfig, FaultInjector};
use crate::fleet::pool::pool;
use crate::fleet::supervisor::quarantine;
use crate::fleet::{fleet_stats, FaultPolicy, FleetStats};
use crate::grid::ProgressFn;
use crate::remote::async_backend::{probe_live, AsyncBackend};
use crate::remote::protocol::{
    collect_results, drain_chunk, encode_manifest_request, first_undelivered, keep_lowest_error,
    undelivered_remainder, ChunkSink, Drained,
};
use crate::remote::transport::{FrameTransport, TcpTransport};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicUsize;
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// The remote-host backend: partitions a [`TaskManifest`] across N TCP
/// peers (`<exe> --worker --listen <addr>`), streams per-slot results with
/// one drain thread per peer, and gathers in global flat-index order — so
/// the fold downstream is **byte-identical** to [`crate::exec::InProcessBackend`]
/// at any host × thread count.
///
/// **Failure semantics.** A task error travels in-band (`E` frame) and is
/// deterministic, so it is never retried; across peers the lowest global
/// flat index wins, exactly as in `Runner::try_grid` and the sharded
/// backend. A *peer death* (dropped connection, protocol violation) is
/// different: slots are seeded and pure, so the dead peer's undelivered
/// slots are re-dispatched to surviving peers — retry cannot change a
/// single output byte — up to the fault policy's retry budget per chunk
/// before the failure surfaces as [`ExecError::Worker`] (or, with
/// `fault.fallback`, degrades to in-process execution). Peers are
/// liveness-probed (see [`probe_live`]) after connect and before every
/// chunk dispatch, so a peer that died while idle never gets work
/// committed to it. Repeat offenders are quarantined (see
/// [`crate::fleet::supervisor`]): a host that keeps failing its connects
/// is skipped for a window instead of burning the budget every dispatch,
/// and a dispatch that finds **every** host quarantined fails fast with
/// [`ExecError::BackendUnavailable`].
///
/// With `pool` enabled (the default), connections are checked out of the
/// process-global pool and returned after the dispatch, so back-to-back
/// dispatches — adaptive stopping rounds, service job floods — reuse warm
/// connections; reconnects go through the policy's capped backoff.
#[derive(Debug, Clone)]
pub struct RemoteBackend {
    /// Peer addresses (`host:port`).
    pub hosts: Vec<String>,
    /// Worker threads *per peer*, carried in every request frame.
    pub worker_threads: usize,
    /// Per-peer connection timeout.
    pub connect_timeout: Duration,
    /// Unified fault policy: chunk retry budget, the silent-peer IO
    /// timeout (executing workers heartbeat every ~500 ms, so a peer
    /// silent for the timeout has vanished without FIN/RST), reconnect
    /// backoff, and the opt-in shrink-to-zero in-process fallback.
    pub fault: FaultPolicy,
    /// Keep peer connections warm in the process-global pool across
    /// dispatches.
    pub pool: bool,
    /// Deterministic frame-fault injection (chaos testing).
    pub chaos: Option<ChaosConfig>,
}

/// One live peer link: the connection plus the bookkeeping needed to
/// return it to the pool (or quarantine its host) afterwards.
struct PeerLink {
    host: String,
    transport: TcpTransport,
    /// Dispatches this connection had served before checkout.
    dispatches: u64,
}

impl RemoteBackend {
    /// A backend over the given peers (must be non-empty), with the
    /// default fault policy (2 re-dispatches per chunk, 15 s IO
    /// timeout).
    pub fn new(hosts: Vec<String>, worker_threads: usize) -> Self {
        assert!(!hosts.is_empty(), "remote backend needs at least one host");
        RemoteBackend {
            hosts,
            worker_threads: worker_threads.max(1),
            connect_timeout: Duration::from_secs(10),
            fault: FaultPolicy::default(),
            pool: true,
            chaos: None,
        }
    }

    /// Override the per-chunk re-dispatch budget.
    pub fn with_retry_budget(mut self, retries: usize) -> Self {
        self.fault.retry_budget = retries;
        self
    }

    /// Override the silent-peer read timeout (`None` disables it).
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.fault.io_timeout = timeout;
        self
    }

    /// Replace the whole fault policy.
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Enable or disable the warm connection pool.
    pub fn with_pool(mut self, pool: bool) -> Self {
        self.pool = pool;
        self
    }

    /// Arm (or disarm) deterministic chaos injection.
    pub fn with_chaos(mut self, chaos: Option<ChaosConfig>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Establish one link to `host`: a pooled warm connection if
    /// available, else a fresh connect with the policy's capped backoff
    /// between attempts. Every failed attempt is charged to the host's
    /// quarantine record; a success clears it.
    fn connect_one(&self, host: &str, salt: u64) -> Result<PeerLink, String> {
        if self.pool {
            if let Some((transport, dispatches)) = pool().checkout_peer(host) {
                return Ok(PeerLink {
                    host: host.to_string(),
                    transport,
                    dispatches,
                });
            }
        }
        let attempts = self.fault.retry_budget + 1;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.fault.backoff_delay(attempt - 1, salt));
            }
            let fresh = (|| -> Result<TcpTransport, String> {
                let addr = host
                    .to_socket_addrs()
                    .map_err(|e| format!("{host}: cannot resolve: {e}"))?
                    .next()
                    .ok_or_else(|| format!("{host}: resolves to no address"))?;
                let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
                    .map_err(|e| format!("{host}: connect failed: {e}"))?;
                let t = TcpTransport::new(stream);
                if !probe_live(t.stream()) {
                    return Err(format!("{}: dead right after connect", t.peer()));
                }
                Ok(t)
            })();
            match fresh {
                Ok(transport) => {
                    quarantine().record_success(host);
                    if attempt > 0 {
                        FleetStats::bump(&fleet_stats().reconnects);
                    }
                    return Ok(PeerLink {
                        host: host.to_string(),
                        transport,
                        dispatches: 0,
                    });
                }
                Err(msg) => {
                    quarantine().record_failure(host);
                    last = msg;
                }
            }
        }
        Err(format!("{last} (after {attempts} connect attempt(s))"))
    }

    /// Connect to every non-quarantined host concurrently; returns the
    /// live links. Unreachable peers are reported on stderr and skipped —
    /// results are byte-identical however many peers survive — but zero
    /// usable peers is an error: [`ExecError::BackendUnavailable`] when
    /// the whole fleet is quarantined, [`ExecError::Protocol`] when
    /// connects failed outright.
    fn connect_all(&self) -> Result<Vec<PeerLink>, ExecError> {
        let usable: Vec<&String> = self
            .hosts
            .iter()
            .filter(|h| !quarantine().is_quarantined(h))
            .collect();
        if usable.is_empty() {
            return Err(ExecError::BackendUnavailable(format!(
                "all {} remote peer(s) quarantined (hosts {:?})",
                self.hosts.len(),
                self.hosts
            )));
        }
        let connector = AsyncBackend::new(usable.len());
        let attempts: Vec<Result<PeerLink, String>> = connector.overlap(
            usable
                .iter()
                .enumerate()
                .map(|(i, host)| {
                    let host = host.as_str();
                    move || self.connect_one(host, i as u64)
                })
                .collect(),
        );
        let skipped = self.hosts.len() - usable.len();
        let mut peers = Vec::with_capacity(attempts.len());
        let mut failures = Vec::new();
        for attempt in attempts {
            match attempt {
                Ok(link) => {
                    // Reads are bounded because workers heartbeat;
                    // writes are bounded because a healthy worker drains
                    // its request promptly — either timeout firing means
                    // the peer is gone, and Broken re-dispatches its
                    // chunk.
                    let _ = link.transport.set_read_timeout(self.fault.io_timeout);
                    let _ = link.transport.set_write_timeout(self.fault.io_timeout);
                    peers.push(link);
                }
                Err(msg) => failures.push(msg),
            }
        }
        for f in &failures {
            eprintln!("[remote] peer unavailable: {f}");
        }
        if skipped > 0 {
            eprintln!("[remote] {skipped} quarantined peer(s) skipped");
        }
        if peers.is_empty() {
            return Err(ExecError::Protocol(format!(
                "no reachable remote peer among {:?}: {}",
                self.hosts,
                failures.join("; ")
            )));
        }
        Ok(peers)
    }

    /// Dispatch one chunk over one peer connection and drain its
    /// responses into the shared gather state. The transport is wrapped
    /// in the chaos injector (a passthrough unless armed).
    fn run_chunk(
        &self,
        transport: &mut TcpTransport,
        chunk: &Pending,
        results: &[OnceLock<Vec<u8>>],
        completed: &AtomicUsize,
        grand_total: usize,
        progress: Option<&ProgressFn>,
    ) -> (Drained, Vec<bool>) {
        let slots = chunk.manifest.slots();
        let mut delivered = vec![false; slots.len()];
        let mut link = FaultInjector::new(transport, self.chaos);
        let request = encode_manifest_request(
            self.worker_threads,
            &chunk.manifest,
            crate::trace::current(),
        );
        if let Err(e) = link.send(&request).and_then(|_| link.flush()) {
            return (
                Drained::Broken(format!("request write failed: {e}")),
                delivered,
            );
        }
        let outcome = drain_chunk(
            &mut link,
            ChunkSink {
                slots: &slots,
                global_flat: &chunk.global_flat,
                results,
                delivered: &mut delivered,
                completed,
                grand_total,
                progress,
            },
        );
        (outcome, delivered)
    }

    /// Run `chunk` in-process (the shrink-to-zero degradation path),
    /// returning the error to record, if any.
    #[allow(clippy::too_many_arguments)]
    fn fall_back(
        &self,
        job: &dyn PortableJob,
        chunk: &Pending,
        why: &str,
        results: &[OnceLock<Vec<u8>>],
        completed: &AtomicUsize,
        grand_total: usize,
        progress: Option<&ProgressFn>,
    ) -> Option<ExecError> {
        eprintln!(
            "[fleet] remote fleet exhausted for {} slot(s) ({why}); \
             degrading: running them in-process",
            chunk.global_flat.len(),
        );
        FleetStats::bump(&fleet_stats().fallbacks);
        run_slots_in_process(
            job,
            &chunk.manifest,
            &chunk.global_flat,
            results,
            completed,
            grand_total,
            progress,
        )
        .err()
    }
}

/// One unit of dispatchable work: a sub-manifest plus the global flat
/// index of each of its slots (contiguous for the initial split; possibly
/// gappy for a re-dispatched remainder).
struct Pending {
    manifest: TaskManifest,
    global_flat: Vec<usize>,
    /// Dispatch attempts already burnt on this work.
    retries: usize,
}

impl Pending {
    /// The remainder of `self` after a partial drain: every undelivered
    /// slot, re-packed into merged segments. `None` if everything landed.
    fn remainder(&self, delivered: &[bool]) -> Option<Pending> {
        undelivered_remainder(&self.manifest, &self.global_flat, delivered).map(
            |(manifest, global_flat)| Pending {
                manifest,
                global_flat,
                retries: self.retries,
            },
        )
    }
}

/// Gather state shared by the per-peer drain threads.
struct GatherState {
    queue: Vec<Pending>,
    /// Chunks currently being driven by some peer.
    in_flight: usize,
    /// Error candidates; the lowest global flat index wins at the end.
    errors: Vec<ExecError>,
}

struct Gather {
    state: Mutex<GatherState>,
    work: Condvar,
}

impl Gather {
    /// Block until a chunk is available or all work is finished; `None`
    /// means the gather is complete (or failed) and the peer may retire.
    fn claim(&self) -> Option<Pending> {
        let mut st = self.state.lock().expect("gather mutex never poisoned");
        loop {
            if let Some(chunk) = st.queue.pop() {
                st.in_flight += 1;
                return Some(chunk);
            }
            if st.in_flight == 0 {
                self.work.notify_all();
                return None;
            }
            st = self.work.wait(st).expect("gather mutex never poisoned");
        }
    }

    /// Mark a claimed chunk finished, optionally pushing follow-up work
    /// (a retry remainder) and/or an error candidate.
    fn settle(&self, requeue: Option<Pending>, error: Option<ExecError>) {
        let mut st = self.state.lock().expect("gather mutex never poisoned");
        st.in_flight -= 1;
        if let Some(chunk) = requeue {
            st.queue.push(chunk);
        }
        if let Some(e) = error {
            st.errors.push(e);
        }
        self.work.notify_all();
    }
}

impl ExecBackend for RemoteBackend {
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        manifest.validate()?;
        let total = manifest.total_slots();
        if total == 0 {
            return Ok(Vec::new());
        }
        let peers = match self.connect_all() {
            Ok(p) => p,
            Err(e) if self.fault.fallback => {
                eprintln!(
                    "[fleet] no remote fleet available ({e}); \
                     degrading: running the whole dispatch in-process"
                );
                FleetStats::bump(&fleet_stats().fallbacks);
                return InProcessBackend::new(self.worker_threads)
                    .run_segments(job, manifest, progress);
            }
            Err(e) => return Err(e),
        };
        let chunks: Vec<Pending> = manifest
            .split(peers.len())
            .into_iter()
            .map(|(start, m)| {
                let n = m.total_slots();
                Pending {
                    manifest: m,
                    global_flat: (start..start + n).collect(),
                    retries: 0,
                }
            })
            .collect();

        let results: Vec<OnceLock<Vec<u8>>> = (0..total).map(|_| OnceLock::new()).collect();
        let completed = AtomicUsize::new(0);
        let gather = Gather {
            state: Mutex::new(GatherState {
                queue: chunks,
                in_flight: 0,
                errors: Vec::new(),
            }),
            work: Condvar::new(),
        };

        // One drain thread per peer. A peer claims chunks until the queue
        // drains; a peer that dies re-queues its chunk's undelivered
        // remainder (retry budget permitting) and retires, leaving the
        // remainder to the survivors. Like the sharded backend, there is
        // no cross-peer cancellation on task errors: every chunk drains,
        // so lowest-flat-index error selection stays deterministic. A
        // peer that retires healthy returns its warm connection to the
        // pool for the next dispatch.
        std::thread::scope(|scope| {
            for mut link in peers {
                let gather = &gather;
                let results = &results;
                let completed = &completed;
                scope.spawn(move || {
                    loop {
                        let Some(chunk) = gather.claim() else {
                            // Healthy retirement: park the connection.
                            quarantine().record_success(&link.host);
                            if self.pool {
                                pool().return_peer(&link.host, link.transport, link.dispatches + 1);
                            }
                            return;
                        };
                        // Heartbeat: never commit work to a peer that died
                        // while idle. Not counted against the chunk's
                        // budget — it was never dispatched.
                        if !probe_live(link.transport.stream()) {
                            gather.settle(Some(chunk), None);
                            return;
                        }
                        let (outcome, delivered) = self.run_chunk(
                            &mut link.transport,
                            &chunk,
                            results,
                            completed,
                            total,
                            progress,
                        );
                        match outcome {
                            Drained::Complete => gather.settle(None, None),
                            Drained::TaskError(e) => gather.settle(None, Some(e)),
                            Drained::Broken(message) => {
                                quarantine().record_failure(&link.host);
                                let flat = first_undelivered(&chunk.global_flat, &delivered)
                                    .unwrap_or_else(|| {
                                        chunk.global_flat.first().copied().unwrap_or(0)
                                    });
                                let remainder = chunk.remainder(&delivered);
                                match remainder {
                                    Some(mut rest) if rest.retries < self.fault.retry_budget => {
                                        eprintln!(
                                            "[remote] peer {} died mid-chunk ({message}); \
                                             re-dispatching {} slot(s) (attempt {} of {})",
                                            link.transport.peer(),
                                            rest.global_flat.len(),
                                            rest.retries + 2,
                                            self.fault.retry_budget + 1,
                                        );
                                        rest.retries += 1;
                                        gather.settle(Some(rest), None);
                                    }
                                    Some(rest) if self.fault.fallback => {
                                        let err = self.fall_back(
                                            job,
                                            &rest,
                                            &format!("retry budget exhausted: {message}"),
                                            results,
                                            completed,
                                            total,
                                            progress,
                                        );
                                        gather.settle(None, err);
                                    }
                                    Some(rest) => gather.settle(
                                        None,
                                        Some(ExecError::Worker {
                                            flat_index: flat,
                                            message: format!(
                                                "peer {}: {message} ({} slot(s) undelivered \
                                                 after {} dispatch attempt(s))",
                                                link.transport.peer(),
                                                rest.global_flat.len(),
                                                rest.retries + 1,
                                            ),
                                        }),
                                    ),
                                    // Every slot landed before the break
                                    // (e.g. the stream died after the last
                                    // R frame but before D).
                                    None => gather.settle(None, None),
                                }
                                return; // this peer is dead
                            }
                        }
                    }
                });
            }
        });

        let st = gather
            .state
            .into_inner()
            .expect("gather mutex never poisoned");
        let mut first_error: Option<ExecError> = None;
        for e in st.errors {
            keep_lowest_error(&mut first_error, e);
        }
        // Chunks stranded because every peer died: degrade in-process
        // when the policy allows, else surface the stranding.
        for chunk in st.queue {
            if self.fault.fallback {
                if let Some(e) = self.fall_back(
                    job,
                    &chunk,
                    "no surviving remote peer",
                    &results,
                    &completed,
                    total,
                    progress,
                ) {
                    keep_lowest_error(&mut first_error, e);
                }
            } else {
                keep_lowest_error(
                    &mut first_error,
                    ExecError::Worker {
                        flat_index: chunk.global_flat.first().copied().unwrap_or(0),
                        message: format!(
                            "no surviving remote peer for {} queued slot(s) (hosts {:?})",
                            chunk.global_flat.len(),
                            self.hosts
                        ),
                    },
                );
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        collect_results(results)
    }

    fn label(&self) -> String {
        format!(
            "remote(hosts={}, threads/peer={})",
            self.hosts.len(),
            self.worker_threads
        )
    }
}

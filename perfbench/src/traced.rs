//! The traced run: the workload's own manifests replayed down the layer
//! ladder, one layer per rung, timed from outside by the benchmark's own
//! spans around calls into each layer's public functions.
//!
//! Rungs, each checked byte for byte against the in-process reference:
//!
//! 1. `engine`: serial `PortableJob::run_slot` (its ladder time is the
//!    serial time over the parallelism: the ideal the grid aims at), with
//!    build, lower and step timed apart on a second pass;
//! 2. `grid`: the in-process backend (`Runner`'s work-stealing grid);
//! 3. `driver`: `run_node_sweep` / `run_cpu_comparison` (sweep workloads);
//! 4. `sharded`: `ShardedBackend` over two `repro --worker` subprocesses;
//! 5. `remote`: `RemoteBackend` over two loopback `repro --worker --listen`
//!    peers;
//! 6. `service`: an in-process `Service` on the remote backend, cold, then
//!    a memory hit, then a disk hit from a second service on the same
//!    cache directory;
//! 7. `client`: the same over a loopback `ServiceClient`;
//! 8. `http`: the same over the HTTP gateway.
//!
//! The whole ladder is repeated until the run's time is spent; every
//! figure is the median over passes. `trace.coverage` sums the self times
//! along the workload's own path and divides by the untraced end-to-end
//! time of that path, measured in the same run; `trace.overhead_pct`
//! compares the end-to-end operation timed inside a span with the same
//! operation timed bare.

use crate::json::Json;
use crate::ladder::{self, Rung};
use crate::paper::{self, Dispatch, PARALLELISM};
use crate::report::Report;
use crate::served::{self, Daemon};
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys::{self, TempDir};
use sim_runtime::exec::ExecBackend;
use sim_runtime::service::cache::{decode_blob, encode_blob};
use sim_runtime::{
    fleet_stats, Exec, InProcessBackend, JobRegistry, PortableJob, RemoteBackend, ServiceClient,
    ServiceConfig, ServiceHandle, ShardedBackend, TaskManifest,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh fig15 manifests per ladder pass.
const FIG15_UNIT: usize = 4;
/// Upper bound on ladder passes.
const MAX_PASSES: usize = 40;
/// Seconds of open loop at the operating point for the generator checks.
const LOADGEN_SECONDS: f64 = 2.0;
/// Bound on one in-process service wait.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-layer metrics: name, unit.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("sim.step_ns_per_event", "ns"),
    ("sim.lower_us_per_slot", "us"),
    ("sim.events_per_slot", "count"),
    ("wsn.build_us_per_slot", "us"),
    ("wsn.fold_ms_per_sweep", "ms"),
    ("des.ns_per_slot", "ns"),
    ("des.share", "ratio"),
    ("grid.overhead_us_per_slot", "us"),
    ("grid.parallel_efficiency", "ratio"),
    ("stopping.rounds", "count"),
    ("stopping.replications", "count"),
    ("stopping.unconverged_points", "count"),
    ("exec.dispatch_us_per_slot", "us"),
    ("exec.dispatches", "count"),
    ("exec.spawn_ms", "ms"),
    ("fleet.reuse_ratio", "ratio"),
    ("fleet.restarts", "count"),
    ("fleet.fallbacks", "count"),
    ("wire.bytes_per_slot", "B"),
    ("remote.dispatch_us_per_slot", "us"),
    ("remote.connect_ms", "ms"),
    ("remote.redispatches", "count"),
    ("service.submit_us", "us"),
    ("service.cold_overhead_ms", "ms"),
    ("service.hit_us", "us"),
    ("service.disk_hit_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.mem_hit_share", "ratio"),
    ("service.client_rtt_us", "us"),
    ("service.rejected", "count"),
    ("http.result_us", "us"),
    ("loadgen.late_tail_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The workload's manifests, their reference bytes, and what the driver
/// rung runs.
struct Unit {
    dispatches: Vec<Dispatch>,
    refs: Vec<Vec<Vec<u8>>>,
    driver: Option<Driver>,
    /// Adaptive bookkeeping: (rounds, unconverged points); `None` for
    /// fixed grids.
    stopping: Option<(u64, u64)>,
}

impl Unit {
    fn slots(&self) -> usize {
        self.dispatches
            .iter()
            .map(|d| d.manifest.total_slots())
            .sum()
    }
}

/// The driver call of a sweep workload and its reference result.
enum Driver {
    Fig14(u64, wsn::experiments::node_energy::NodeSweep),
    Fig4_9(u64, Vec<wsn::experiments::cpu_comparison::CpuComparison>),
}

impl Driver {
    /// Run the driver on `exec`; whether it matched the reference.
    fn run(&self, exec: &Exec) -> bool {
        match self {
            Driver::Fig14(seed, reference) => paper::run_fig14(*seed, exec) == *reference,
            Driver::Fig4_9(seed, reference) => paper::run_fig4_9(*seed, exec) == *reference,
        }
    }
}

fn unit(workload: &str, seed: u64) -> Unit {
    let in_process = Exec::in_process(PARALLELISM);
    let base_seed = crate::sweeps::figure_seed(seed, 0).1;
    let (dispatches, driver, stopping) = match workload {
        "fig14-inproc" => (
            vec![paper::node_dispatch(
                paper::fig14_workload(),
                paper::FIG14_HORIZON,
                base_seed,
            )],
            Some(Driver::Fig14(
                base_seed,
                paper::run_fig14(base_seed, &in_process),
            )),
            None,
        ),
        "fig4-9-sharded" => {
            let figure = paper::run_fig4_9(base_seed, &in_process);
            let dispatches: Vec<Dispatch> = paper::FIG4_9_PUDS
                .iter()
                .zip(&figure)
                .flat_map(|(&pud, cmp)| {
                    paper::cpu_round_dispatches(
                        &paper::fig4_9_config(base_seed, in_process.clone()),
                        pud,
                        cmp,
                    )
                })
                .collect();
            let unconverged = figure
                .iter()
                .flat_map(|c| &c.points)
                .filter(|p| !p.converged)
                .count();
            let rounds = dispatches.len() as u64;
            (
                dispatches,
                Some(Driver::Fig4_9(base_seed, figure)),
                Some((rounds, unconverged as u64)),
            )
        }
        _ => (
            (0..FIG15_UNIT)
                .map(|c| served::cold_dispatch(seed, c))
                .collect(),
            None,
            None,
        ),
    };
    let refs = dispatches.iter().map(paper::reference).collect();
    Unit {
        dispatches,
        refs,
        driver,
        stopping,
    }
}

/// A job wrapper that adds up the time spent inside `run_slot`, so the
/// grid rung knows its busy time as well as its wall time.
struct Timed<'a> {
    job: &'a dyn PortableJob,
    busy_ns: AtomicU64,
}

impl PortableJob for Timed<'_> {
    fn kind(&self) -> &'static str {
        self.job.kind()
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        self.job.encode_payload(buf)
    }

    fn run_slot(&self, point: usize, replication: u64, seed: u64) -> Result<Vec<u8>, String> {
        let t0 = Instant::now();
        let out = self.job.run_slot(point, replication, seed);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

fn registry() -> Arc<JobRegistry> {
    let mut reg = JobRegistry::new();
    wsn::experiments::jobs::register(&mut reg);
    Arc::new(reg)
}

/// A service on the remote backend with its own fresh cache directory
/// (or the given one, for the disk-tier probe).
fn service(peers: &[String], cache: &Path) -> ServiceHandle {
    ServiceHandle::start(
        ServiceConfig {
            exec: Exec::remote(1, peers.to_vec()),
            cache_dir: Some(cache.to_path_buf()),
            ..Default::default()
        },
        registry(),
    )
}

/// Stop a service and join its dispatchers.
///
/// `Service::stop` sets its flag outside the lock its dispatchers wait
/// under, so a dispatcher caught between its flag check and its condvar
/// wait misses the only wake-up and `ServiceHandle::stop` never returns
/// (seen as an intermittent hang of the traced run). Repeating the stop
/// until the join is through closes that window.
fn stop_service(handle: ServiceHandle) {
    let svc = handle.service();
    let joined = Arc::new(AtomicBool::new(false));
    let nudger = {
        let joined = joined.clone();
        std::thread::spawn(move || {
            while !joined.load(Ordering::SeqCst) {
                svc.stop();
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    handle.stop();
    joined.store(true, Ordering::SeqCst);
    nudger.join().expect("service stop nudger panicked");
}

/// Everything one pass measured, keyed by name (seconds unless noted).
type Pass = BTreeMap<&'static str, f64>;

struct Ctx<'a> {
    unit: &'a Unit,
    repro: &'a Path,
    out: &'a Path,
    peers: Vec<String>,
    rec: Recorder,
    r: Report,
    /// A served job never finished; no further passes run.
    stuck: bool,
}

impl Ctx<'_> {
    fn check_slots(&mut self, got: Result<Vec<Vec<u8>>, String>, i: usize) {
        let answer = got.ok().map(|slots| slots == self.unit.refs[i]);
        self.r.outcomes.check_answer(answer);
    }

    fn check_blob(&mut self, got: Result<Vec<u8>, String>, i: usize) {
        let slots = got.and_then(|b| decode_blob(&b).map_err(|e| e.to_string()));
        self.check_slots(slots, i);
    }

    /// One backend rung: every dispatch through `backend`, in order.
    fn backend_rung(&mut self, name: &'static str, backend: &dyn ExecBackend) -> f64 {
        let unit = self.unit;
        self.rec.open(name, 0);
        for (i, d) in unit.dispatches.iter().enumerate() {
            self.rec.open("dispatch", i as u64 + 1);
            let got = backend
                .run_segments(d.job.portable(), &d.manifest, None)
                .map_err(|e| e.to_string());
            self.rec.close();
            self.check_slots(got, i);
        }
        self.rec.close()
    }

    fn pass(&mut self, first: bool) -> Pass {
        let mut p = Pass::new();
        let unit = self.unit;

        // The spawn and connect probes drain the fleet pool; run them
        // first and re-warm both tiers so every rung below runs warm.
        let worker_cmd = vec![self.repro.display().to_string(), "--worker".into()];
        let sharded = ShardedBackend::new(PARALLELISM, 1).with_worker_cmd(worker_cmd);
        let remote = RemoteBackend::new(self.peers.clone(), 1);
        p.insert("exec.spawn_ms", cold_minus_warm_ms(&sharded, &mut self.rec));
        p.insert(
            "remote.connect_ms",
            cold_minus_warm_ms(&remote, &mut self.rec),
        );
        tiny_dispatch(&sharded, &mut self.rec, "pool-rewarm");

        // 1. engine
        self.rec.open("engine", 0);
        for (i, d) in unit.dispatches.iter().enumerate() {
            self.rec.open("dispatch", i as u64 + 1);
            let got: Result<Vec<Vec<u8>>, String> = d
                .manifest
                .slots()
                .into_iter()
                .map(|(point, rep, seed)| d.job.portable().run_slot(point, rep, seed))
                .collect();
            self.rec.close();
            self.check_slots(got, i);
        }
        p.insert("engine_serial", self.rec.close());
        if first {
            let mut split = paper::EngineSplit::default();
            self.rec.open("engine-split", 0);
            for d in &unit.dispatches {
                for (point, rep, seed) in d.manifest.slots() {
                    let s = paper::engine_split(&d.job, point, rep, seed);
                    split.build += s.build;
                    split.lower += s.lower;
                    split.step += s.step;
                    split.events += s.events;
                    split.des += s.des;
                }
            }
            self.rec.close();
            p.insert("split.build", split.build);
            p.insert("split.lower", split.lower);
            p.insert("split.step", split.step);
            p.insert("split.events", split.events as f64);
            p.insert("split.des", split.des);
        }

        // 2. grid
        let backend = InProcessBackend::new(PARALLELISM);
        self.rec.open("grid", 0);
        let mut busy = 0.0;
        for (i, d) in unit.dispatches.iter().enumerate() {
            let timed = Timed {
                job: d.job.portable(),
                busy_ns: AtomicU64::new(0),
            };
            self.rec.open("dispatch", i as u64 + 1);
            let got = backend
                .run_segments(&timed, &d.manifest, None)
                .map_err(|e| e.to_string());
            self.rec.close();
            busy += timed.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
            self.check_slots(got, i);
        }
        p.insert("grid", self.rec.close());
        p.insert("grid_busy", busy);

        // 3. driver
        if let Some(driver) = &unit.driver {
            self.rec.open("driver", 0);
            let ok = driver.run(&Exec::in_process(PARALLELISM));
            p.insert("driver", self.rec.close());
            self.r.outcomes.check(ok);
        }

        // 4. sharded
        let f0 = fleet_stats().snapshot();
        p.insert("sharded", self.backend_rung("sharded", &sharded));
        let f = fleet_stats().snapshot().delta_since(&f0);
        p.insert(
            "fleet.reuse_ratio",
            f.pool_hits as f64 / (f.pool_hits + f.spawned).max(1) as f64,
        );

        // 5. remote
        let f0 = fleet_stats().snapshot();
        p.insert("remote", self.backend_rung("remote", &remote));
        let f = fleet_stats().snapshot().delta_since(&f0);
        p.insert("remote.redispatches", (f.reconnects + f.restarts) as f64);

        // 6-8. service, client, http
        self.service_rungs(&mut p);
        p
    }

    fn service_rungs(&mut self, p: &mut Pass) {
        let manifests: Vec<TaskManifest> = self
            .unit
            .dispatches
            .iter()
            .map(|d| d.manifest.clone())
            .collect();

        // 6. in-process service: cold, memory hit; then a disk hit from a
        // second service on the same cache directory.
        let cache = TempDir::new(self.out, "svc");
        let handle = service(&self.peers, &cache.0);
        let svc = handle.service();
        let mut submit = Vec::new();
        // Bounded: a job that never finishes is a failed operation, not a
        // hung benchmark.
        let wait = |svc: &sim_runtime::Service, job: sim_runtime::JobId| match svc
            .wait_for(job, IO_TIMEOUT)
        {
            Ok(Some(sim_runtime::service::Fetched::Result(b))) => Ok(b.to_vec()),
            Ok(Some(sim_runtime::service::Fetched::Failed(e))) => Err(e.to_string()),
            Ok(None) => Err(format!("{job} {STUCK} within {IO_TIMEOUT:?}")),
            Err(e) => Err(e),
        };
        self.rec.open("service", 0);
        let mut stuck = false;
        for (i, m) in manifests.iter().enumerate() {
            self.rec.open("submit", i as u64 + 1);
            let sub = svc.submit(m.clone());
            submit.push(self.rec.close());
            let got = sub.and_then(|(job, _)| wait(&svc, job));
            stuck |= matches!(&got, Err(e) if e.contains(STUCK));
            self.check_blob(got, i);
        }
        let cold = self.rec.close();
        if stuck {
            // A dispatcher that never finishes its job cannot be joined:
            // leave this service behind and skip the rungs above it.
            eprintln!("perfbench: a served job never finished; service rungs skipped");
            self.stuck = true;
            std::mem::forget(handle);
            return;
        }
        p.insert("service", cold);
        let mut hits = Vec::new();
        for (i, m) in manifests.iter().enumerate() {
            let (got, t) = self.rec.time("service-hit", i as u64 + 1, |_| {
                svc.submit(m.clone()).and_then(|(job, _)| wait(&svc, job))
            });
            hits.push(t);
            self.check_blob(got, i);
        }
        let mut stats = vec![svc.stats()];
        stop_service(handle);
        let handle = service(&self.peers, &cache.0);
        let svc = handle.service();
        let mut disk = Vec::new();
        for (i, m) in manifests.iter().enumerate() {
            let (got, t) = self.rec.time("service-disk-hit", i as u64 + 1, |_| {
                svc.submit(m.clone()).and_then(|(job, _)| wait(&svc, job))
            });
            disk.push(t);
            self.check_blob(got, i);
        }
        stats.push(svc.stats());
        stop_service(handle);
        drop(cache);
        let (submitted, mem, dsk, rejected) = stats.iter().fold((0, 0, 0, 0), |a, s| {
            (
                a.0 + s.submitted,
                a.1 + s.hits_mem,
                a.2 + s.hits_disk,
                a.3 + s.rejected,
            )
        });
        p.insert("service.submit_us", median(&submit) * 1e6);
        p.insert("service.hit", median(&hits));
        p.insert("service.disk_hit", median(&disk));
        p.insert(
            "service.hit_ratio",
            (mem + dsk) as f64 / submitted.max(1) as f64,
        );
        p.insert(
            "service.mem_hit_share",
            mem as f64 / (mem + dsk).max(1) as f64,
        );
        p.insert("service.rejected", rejected as f64);

        // 7. client over loopback.
        let cache = TempDir::new(self.out, "client");
        let handle = service(&self.peers, &cache.0);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound").to_string();
        let svc = handle.service();
        let front = std::thread::spawn(move || sim_runtime::service::serve_on(svc, listener));
        let mut client = ServiceClient::connect(&addr, Duration::from_secs(60)).expect("connect");
        self.rec.open("client", 0);
        for (i, m) in manifests.iter().enumerate() {
            self.rec.open("request", i as u64 + 1);
            let got = client
                .submit(m, 1)
                .and_then(|(job, _)| client.fetch_blob(job))
                .map_err(|e| e.to_string());
            self.rec.close();
            self.check_blob(got, i);
        }
        p.insert("client", self.rec.close());
        let mut client_hits = Vec::new();
        let mut fetches = Vec::new();
        for (i, m) in manifests.iter().enumerate() {
            self.rec.open("client-hit", i as u64 + 1);
            let job = client.submit(m, 1);
            let (got, t) = self.rec.time("fetch", i as u64 + 1, |_| {
                job.and_then(|(job, _)| client.fetch_blob(job))
                    .map_err(|e| e.to_string())
            });
            client_hits.push(self.rec.close());
            fetches.push(t);
            self.check_blob(got, i);
        }
        // The front returns once it has served the shutdown verb; if the
        // verb did not get through, joining would wait forever.
        if client.shutdown().is_ok() {
            let _ = front.join();
        }
        stop_service(handle);
        drop(cache);
        p.insert("client.hit", median(&client_hits));
        p.insert("client.fetch", median(&fetches));

        // 8. HTTP gateway.
        let cache = TempDir::new(self.out, "http");
        let handle = service(&self.peers, &cache.0);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound").to_string();
        let svc = handle.service();
        let front =
            std::thread::spawn(move || sim_runtime::service::serve_http(svc, listener, None));
        let post = |m: &TaskManifest| -> Result<u64, String> {
            let mut body = Vec::new();
            m.encode_into(&mut body);
            let answer =
                served::http_request(&addr, "POST /submit HTTP/1.1\r\nHost: bench\r\n", &body)?;
            let text = String::from_utf8_lossy(&answer);
            text.split("\"job\":")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("submit answer without a job id: {text}"))
        };
        self.rec.open("http", 0);
        for (i, m) in manifests.iter().enumerate() {
            self.rec.open("request", i as u64 + 1);
            let got =
                post(m).and_then(|job| served::http_get(&addr, &format!("/jobs/{job}/result")));
            self.rec.close();
            self.check_blob(got, i);
        }
        p.insert("http", self.rec.close());
        let mut gets = Vec::new();
        for (i, m) in manifests.iter().enumerate() {
            let job = post(m);
            let (got, t) = self.rec.time("http-result", i as u64 + 1, |_| {
                job.and_then(|job| served::http_get(&addr, &format!("/jobs/{job}/result")))
            });
            gets.push(t);
            self.check_blob(got, i);
        }
        handle.service().stop();
        // The gateway notices the stop on its next accept.
        let _ = std::net::TcpStream::connect(&addr);
        let _ = front.join();
        stop_service(handle);
        drop(cache);
        p.insert("http.get", median(&gets));
    }
}

/// Dispatch a two-slot, one-second manifest (one slot per worker).
fn tiny_dispatch(backend: &dyn ExecBackend, rec: &mut Recorder, name: &'static str) -> f64 {
    let d = paper::node_dispatch(paper::fig15_workload(), 1.0, 1);
    let mut m = d.manifest.clone();
    m.segments.truncate(2);
    m.seeds.truncate(2);
    rec.time(name, 0, |_| {
        backend
            .run_segments(d.job.portable(), &m, None)
            .expect("tiny dispatch")
    })
    .1
}

/// Milliseconds a tiny dispatch takes right after the fleet pool is
/// drained (spawn or connect included) minus the same dispatch warm.
fn cold_minus_warm_ms(backend: &dyn ExecBackend, rec: &mut Recorder) -> f64 {
    sim_runtime::fleet::pool::pool().drain();
    let cold = tiny_dispatch(backend, rec, "pool-cold");
    let warm = tiny_dispatch(backend, rec, "pool-warm");
    (cold - warm) * 1e3
}

/// The end-to-end operation of the workload's own path, timed bare
/// (`rec = None`) or inside a span.
fn end_to_end(
    workload: &str,
    unit: &Unit,
    repro: &Path,
    daemon: Option<&Daemon>,
    rec: Option<&mut Recorder>,
) -> Result<f64, String> {
    // Served requests need keys the daemon has not seen: salt the seeds,
    // and compute the salted references off the clock.
    let served: Vec<(TaskManifest, Vec<u8>)> = match daemon {
        Some(_) => unit
            .dispatches
            .iter()
            .map(|d| {
                let mut manifest = d.manifest.clone();
                let salt = NEXT_SALT.fetch_add(1, Ordering::Relaxed);
                manifest.seeds.iter_mut().for_each(|s| *s ^= salt);
                let salted = Dispatch {
                    job: d.job.clone(),
                    manifest,
                };
                let blob = encode_blob(&paper::reference(&salted));
                (salted.manifest, blob)
            })
            .collect(),
        None => Vec::new(),
    };
    let op = || -> Result<bool, String> {
        match (workload, &unit.driver, daemon) {
            ("fig14-inproc", Some(d), _) => Ok(d.run(&Exec::in_process(PARALLELISM))),
            ("fig4-9-sharded", Some(d), _) => Ok(d.run(
                &Exec::sharded(1, PARALLELISM)
                    .with_worker_cmd(vec![repro.display().to_string(), "--worker".into()]),
            )),
            // A served cold request per manifest, submitted on the binary
            // protocol and fetched over HTTP as the load generator does.
            (_, None, Some(daemon)) => {
                let mut client = daemon.client()?;
                let mut all = true;
                for (m, expected) in &served {
                    let (job, _) = client.submit(m, 1).map_err(|e| e.to_string())?;
                    let blob =
                        served::http_get(&daemon.http_addr, &format!("/jobs/{}/result", job.0))?;
                    all &= blob == *expected;
                }
                Ok(all)
            }
            _ => Err("no end-to-end operation for this workload".into()),
        }
    };
    let (ok, t) = match rec {
        Some(rec) => {
            rec.open("end-to-end", 0);
            let ok = op();
            (ok, rec.close())
        }
        None => {
            let t0 = Instant::now();
            let ok = op();
            (ok, t0.elapsed().as_secs_f64())
        }
    };
    if !ok? {
        return Err("end-to-end operation answered wrong bytes".into());
    }
    Ok(t)
}

/// How a bounded service wait reports a job that never finished.
const STUCK: &str = "did not finish";

/// Seed salts for end-to-end served requests, so each is a cache miss.
static NEXT_SALT: AtomicU64 = AtomicU64::new(0x5A17);

/// Run the traced ladder for `workload`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    repro: &Path,
    out: &Path,
) -> Result<Report, String> {
    let started = Instant::now();
    let unit = unit(workload, seed);
    let peer_procs = sys::spawn_peers(repro, PARALLELISM)?;
    let peers: Vec<String> = peer_procs.iter().map(|p| p.addrs[0].clone()).collect();
    let daemon = if unit.driver.is_none() {
        Some(Daemon::start(repro, out, "e2e")?)
    } else {
        None
    };
    let fleet0 = fleet_stats().snapshot();
    let mut ctx = Ctx {
        unit: &unit,
        repro,
        out,
        peers,
        rec: Recorder::default(),
        r: Report::default(),
        stuck: false,
    };
    // The generator checks for fig15: one short open-loop rung.
    let loadgen = match &daemon {
        Some(d) => {
            let mut client = d.client()?;
            let pool = served::prefill(seed, &mut client, &mut ctx.r)?;
            let rung = served::run_rung(
                d,
                &mut client,
                seed,
                served::RATE_MAIN,
                LOADGEN_SECONDS,
                0,
                &pool,
                &mut ctx.r,
            );
            Some((
                crate::stats::Summary::of(&rung.late_ms).tail,
                rung.backlog_max as f64,
            ))
        }
        None => None,
    };

    let mut passes: Vec<Pass> = Vec::new();
    let mut bare = Vec::new();
    let mut spanned = Vec::new();
    while passes.is_empty()
        || (!ctx.stuck && started.elapsed().as_secs_f64() < seconds && passes.len() < MAX_PASSES)
    {
        let first = passes.is_empty();
        ctx.rec.open("pass", passes.len() as u64 + 1);
        passes.push(ctx.pass(first));
        ctx.rec.close();
        // Alternate which end-to-end timing goes first.
        if passes.len().is_multiple_of(2) {
            bare.push(end_to_end(workload, &unit, repro, daemon.as_ref(), None)?);
            spanned.push(end_to_end(
                workload,
                &unit,
                repro,
                daemon.as_ref(),
                Some(&mut ctx.rec),
            )?);
        } else {
            spanned.push(end_to_end(
                workload,
                &unit,
                repro,
                daemon.as_ref(),
                Some(&mut ctx.rec),
            )?);
            bare.push(end_to_end(workload, &unit, repro, daemon.as_ref(), None)?);
        }
    }
    let fleet = fleet_stats().snapshot().delta_since(&fleet0);
    // A rung no pass completed (only after a stuck served job) reads 0;
    // the run is then already marked incorrect.
    let med = |key: &str| {
        let xs: Vec<f64> = passes.iter().filter_map(|p| p.get(key).copied()).collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    let has = |key: &str| passes[0].contains_key(key);

    let slots = unit.slots() as f64;
    let n = unit.dispatches.len() as f64;
    let first = &passes[0];
    let events = first["split.events"];
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("sim.step_ns_per_event", first["split.step"] / events * 1e9);
    m.insert("sim.lower_us_per_slot", first["split.lower"] / slots * 1e6);
    m.insert("sim.events_per_slot", events / slots);
    m.insert("wsn.build_us_per_slot", first["split.build"] / slots * 1e6);
    let engine = med("engine_serial") / PARALLELISM as f64;
    let grid = med("grid");
    m.insert(
        "wsn.fold_ms_per_sweep",
        if has("driver") {
            (med("driver") - grid) * 1e3
        } else {
            0.0
        },
    );
    m.insert("des.ns_per_slot", first["split.des"] / slots * 1e9);
    m.insert("des.share", first["split.des"] / med("engine_serial"));
    m.insert(
        "grid.overhead_us_per_slot",
        (grid - med("grid_busy") / PARALLELISM as f64) / slots * 1e6,
    );
    m.insert(
        "grid.parallel_efficiency",
        med("grid_busy") / (PARALLELISM as f64 * grid),
    );
    let (rounds, unconverged) = unit.stopping.unwrap_or((0, 0));
    m.insert("stopping.rounds", rounds as f64);
    m.insert("stopping.replications", slots);
    m.insert("stopping.unconverged_points", unconverged as f64);
    m.insert(
        "exec.dispatch_us_per_slot",
        (med("sharded") - grid) / slots * 1e6,
    );
    m.insert("exec.dispatches", n);
    m.insert("exec.spawn_ms", med("exec.spawn_ms"));
    m.insert("fleet.reuse_ratio", med("fleet.reuse_ratio"));
    m.insert("fleet.restarts", fleet.restarts as f64);
    m.insert("fleet.fallbacks", fleet.fallbacks as f64);
    let wire: usize = unit
        .dispatches
        .iter()
        .zip(&unit.refs)
        .map(|(d, r)| {
            let mut buf = Vec::new();
            d.manifest.encode_into(&mut buf);
            buf.len() + r.iter().map(Vec::len).sum::<usize>()
        })
        .sum();
    m.insert("wire.bytes_per_slot", wire as f64 / slots);
    m.insert(
        "remote.dispatch_us_per_slot",
        (med("remote") - grid) / slots * 1e6,
    );
    m.insert("remote.connect_ms", med("remote.connect_ms"));
    m.insert(
        "remote.redispatches",
        passes.iter().map(|p| p["remote.redispatches"]).sum(),
    );
    m.insert("service.submit_us", med("service.submit_us"));
    m.insert(
        "service.cold_overhead_ms",
        (med("service") - med("remote")) / n * 1e3,
    );
    m.insert("service.hit_us", med("service.hit") * 1e6);
    m.insert("service.disk_hit_us", med("service.disk_hit") * 1e6);
    m.insert("service.hit_ratio", med("service.hit_ratio"));
    m.insert("service.mem_hit_share", med("service.mem_hit_share"));
    m.insert(
        "service.client_rtt_us",
        (med("client.hit") - med("service.hit")) * 1e6,
    );
    m.insert(
        "service.rejected",
        passes
            .iter()
            .filter_map(|p| p.get("service.rejected"))
            .sum(),
    );
    m.insert(
        "http.result_us",
        (med("http.get") - med("client.fetch")) * 1e6,
    );
    let (late, backlog) = loadgen.unwrap_or((0.0, 0.0));
    m.insert("loadgen.late_tail_ms", late);
    m.insert("loadgen.backlog_max", backlog);

    // The ladder, in the tree each workload's path runs through.
    let mut rungs = vec![
        Rung {
            name: "engine",
            parent: None,
            seconds: engine,
        },
        Rung {
            name: "grid",
            parent: Some("engine"),
            seconds: grid,
        },
    ];
    if has("driver") {
        rungs.push(Rung {
            name: "driver",
            parent: Some("grid"),
            seconds: med("driver"),
        });
    }
    rungs.extend([
        Rung {
            name: "sharded",
            parent: Some("grid"),
            seconds: med("sharded"),
        },
        Rung {
            name: "remote",
            parent: Some("grid"),
            seconds: med("remote"),
        },
        Rung {
            name: "service",
            parent: Some("remote"),
            seconds: med("service"),
        },
        Rung {
            name: "client",
            parent: Some("service"),
            seconds: med("client"),
        },
        Rung {
            name: "http",
            parent: Some("client"),
            seconds: med("http"),
        },
    ]);
    let path: &[&str] = match workload {
        "fig14-inproc" => &["engine", "grid", "driver"],
        "fig4-9-sharded" => &["engine", "grid", "sharded", "driver"],
        _ => &["engine", "grid", "remote", "service", "client", "http"],
    };
    let untraced = median(&bare);
    m.insert("trace.coverage", ladder::coverage(&rungs, path, untraced));
    m.insert(
        "trace.overhead_pct",
        (median(&spanned) - untraced) / untraced * 100.0,
    );

    let mut r = std::mem::take(&mut ctx.r);
    for (name, unit_name) in PER_LAYER {
        r.metric(name, unit_name, m[name]);
    }
    r.detail("passes", Json::Int(passes.len() as u64));
    r.detail("service_job_stuck", Json::Bool(ctx.stuck));
    r.detail("slots_per_pass", Json::Int(slots as u64));
    r.detail("dispatches_per_pass", Json::Int(n as u64));
    r.detail(
        "path",
        Json::Arr(path.iter().map(|s| Json::str(*s)).collect()),
    );
    r.detail("untraced_end_to_end_s", Json::Num(untraced));
    r.detail("wire.bytes_per_slot.computed", Json::Bool(true));
    r.detail(
        "ladder",
        Json::Arr(
            ladder::self_times(&rungs)
                .into_iter()
                .zip(&rungs)
                .map(|((name, self_s), rung)| {
                    Json::obj([
                        ("rung", Json::str(name)),
                        ("parent", rung.parent.map_or(Json::Null, Json::str)),
                        ("seconds", Json::Num(rung.seconds)),
                        ("self_seconds", Json::Num(self_s)),
                        ("on_path", Json::Bool(path.contains(&name))),
                    ])
                })
                .collect(),
        ),
    );
    let trace_file = out.join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&trace_file, ctx.rec.chrome_trace())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    r.detail("spans", Json::Int(ctx.rec.spans.len() as u64));
    r.detail("trace_file", Json::str(trace_file.display().to_string()));
    drop(daemon);
    drop(peer_procs);
    Ok(r)
}

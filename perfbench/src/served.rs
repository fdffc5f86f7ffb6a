//! `fig15-served`: an open-loop request stream to a `repro serve --http`
//! daemon dispatching onto two loopback TCP peers.
//!
//! For every fresh ("cold") fig15 request the generator sends three
//! resubmissions ("warm") drawn uniformly from a pool of already answered
//! manifests. The pool is larger than the daemon's in-memory LRU (64
//! results), so warm requests are answered by both cache tiers.
//!
//! The generator is this one process with two threads and at most two
//! open connections: the main thread submits on schedule over the binary
//! protocol (and, since a cache hit resolves at submit, fetches warm
//! results on the same connection); a second thread fetches cold results
//! in submission order with `GET /jobs/<id>/result`, one connection at a
//! time.
//!
//! The offered rates are a fixed ladder of constants sized once from this
//! workload's capacity on the default seed; they are not re-measured per
//! run. The first rung is the operating point the latency metrics come
//! from; the ladder stops at the first rung that misses the latency limit
//! or grows a backlog.

use crate::json::Json;
use crate::openloop::{self, Due, Kind, Timeline};
use crate::outcome::Outcome;
use crate::paper::{self, Dispatch};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::sys::{self, Proc, TempDir};
use sim_runtime::service::cache::encode_blob;
use sim_runtime::{Disposition, JobId, ServiceClient, TaskManifest};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The operating point: offered requests (cold + warm) per second. On the
/// 2-vCPU Xeon host this was sized on, saturation came between 200 and
/// 280 when both vCPUs ran and near 100 when the host gave them one
/// core's worth; 40 stays well below either. The latency metrics come
/// from here.
pub const RATE_MAIN: f64 = 40.0;
/// Share of the run spent at the operating point; the ladder gets the
/// rest.
const MAIN_SHARE: f64 = 0.5;
/// Offered rates above the operating point, in requests per second,
/// spanning both saturation regions.
pub const RATE_LADDER: [f64; 7] = [80.0, 120.0, 160.0, 200.0, 240.0, 280.0, 320.0];
/// Warm resubmissions per cold request.
pub const WARM_PER_COLD: usize = 3;
/// Answered manifests warm requests draw from (the daemon's LRU holds 64).
pub const WARM_POOL: usize = 96;
/// Latency limit on `cold_tail_ms` for a rung to count as sustained:
/// about twice the operating point's cold tail on a slow host, so only
/// queueing, not a slower CPU, fails a rung.
pub const COLD_TAIL_LIMIT_MS: f64 = 100.0;
/// A rung's backlog counts as growing only above this many outstanding
/// cold requests.
pub const BACKLOG_FLOOR: f64 = 3.0;
/// Cold manifests (the run's first ones) whose per-point mean energy is
/// compared with the `des` oracle's for `rel_err_max`.
const REL_ERR_MANIFESTS: usize = 32;
/// Set-ups measured per run.
const SETUPS: usize = 9;
/// Per-frame read timeout of the generator's connections.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running system under test: two peers and the daemon.
pub struct Daemon {
    /// The TCP worker peers (killed on drop).
    _peers: Vec<Proc>,
    /// The `repro serve` process (killed on drop).
    _serve: Proc,
    /// Binary-protocol address.
    pub service_addr: String,
    /// HTTP gateway address.
    pub http_addr: String,
    /// Its cache directory (removed on drop).
    _cache: TempDir,
}

impl Daemon {
    /// Spawn two peers and a daemon over them with a fresh cache dir.
    pub fn start(repro: &Path, out: &Path, tag: &str) -> Result<Daemon, String> {
        let cache = TempDir::new(out, tag);
        let peers = sys::spawn_peers(repro, paper::PARALLELISM)?;
        let hosts: Vec<&str> = peers.iter().map(|p| p.addrs[0].as_str()).collect();
        let hosts = hosts.join(",");
        let cache_dir = cache.0.display().to_string();
        let mut cmd = std::process::Command::new(repro);
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
            "--hosts",
            &hosts,
            "--threads",
            "1",
            "--cache-dir",
            &cache_dir,
        ]);
        let serve = Proc::spawn(cmd, &["http", "serving"])?;
        Ok(Daemon {
            http_addr: serve.addrs[0].clone(),
            service_addr: serve.addrs[1].clone(),
            _peers: peers,
            _serve: serve,
            _cache: cache,
        })
    }

    /// A binary-protocol client of this daemon.
    pub fn client(&self) -> Result<ServiceClient, String> {
        ServiceClient::connect(&self.service_addr, IO_TIMEOUT).map_err(|e| e.to_string())
    }
}

/// The "one trivial job answered" that ends set-up: a one-slot fig15
/// manifest at a one-second horizon.
pub fn trivial_manifest() -> TaskManifest {
    let mut d = paper::node_dispatch(paper::fig15_workload(), 1.0, 1);
    d.manifest.segments.truncate(1);
    d.manifest.seeds.truncate(1);
    d.manifest
}

/// `GET <path>` over a fresh connection (the gateway closes every
/// connection after one response); returns the body of a 200 answer.
pub fn http_get(addr: &str, path: &str) -> Result<Vec<u8>, String> {
    http_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        &[],
    )
}

/// One HTTP/1.1 request with an optional body; returns a 200 answer's
/// body.
pub fn http_request(addr: &str, head: &str, body: &[u8]) -> Result<Vec<u8>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("http connect {addr}: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut req = head.trim_end_matches("\r\n").to_string();
    if !body.is_empty() {
        req.push_str(&format!("\r\nContent-Length: {}", body.len()));
    }
    req.push_str("\r\n\r\n");
    s.write_all(req.as_bytes())
        .and_then(|_| s.write_all(body))
        .map_err(|e| format!("http write: {e}"))?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp)
        .map_err(|e| format!("http read: {e}"))?;
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("http response without a header end")?;
    let head = String::from_utf8_lossy(&resp[..split]);
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("http: {}", head.lines().next().unwrap_or("")));
    }
    Ok(resp[split + 4..].to_vec())
}

/// Uniform draws for the warm pool (SplitMix64; the schedule must repeat
/// exactly for a seed).
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// An answered request: its timeline and the bytes it got.
struct Answer {
    t: Timeline,
    blob: Result<Vec<u8>, String>,
}

/// What one rung measured.
#[derive(Default)]
pub struct Rung {
    /// Offered rate (requests/s).
    pub rate: f64,
    /// Cold request latencies of correct answers (ms).
    pub cold_ms: Vec<f64>,
    /// Warm request latencies of correct answers (ms).
    pub warm_ms: Vec<f64>,
    /// Generator lateness of every send (ms).
    pub late_ms: Vec<f64>,
    /// Largest backlog of outstanding cold requests seen at a send.
    pub backlog_max: usize,
    /// Whether the backlog grew over the rung.
    pub backlog_grew: bool,
    /// Warm answers by tier: (memory, disk, other).
    pub tiers: (u64, u64, u64),
    /// Engine firings of the cold requests answered correctly.
    pub cold_events: u64,
    /// Wall time from the first due send to the last answer (s).
    pub span_s: f64,
    /// Cold requests the rung's schedule held.
    pub scheduled_cold: usize,
}

impl Rung {
    /// The rung's cold tail (ms); infinite when nothing was answered.
    pub fn cold_tail_ms(&self) -> f64 {
        if self.cold_ms.is_empty() {
            f64::INFINITY
        } else {
            Summary::of(&self.cold_ms).tail
        }
    }
}

/// Run one rung at `rate` for `seconds`, numbering cold manifests from
/// `first_cold`. Latencies count only answers that match the in-process
/// reference; every request lands in `r.outcomes`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rung(
    d: &Daemon,
    client: &mut ServiceClient,
    seed: u64,
    rate: f64,
    seconds: f64,
    first_cold: usize,
    pool: &[(Dispatch, Vec<u8>)],
    r: &mut Report,
) -> Rung {
    let mut draws = Draws(paper::derive_seed(seed, 0x7761_726D ^ first_cold as u64));
    let schedule: Vec<Due> = openloop::schedule(rate, seconds, WARM_PER_COLD, first_cold, || {
        draws.below(pool.len())
    });
    let cold: Vec<Dispatch> = schedule
        .iter()
        .filter_map(|due| match due.kind {
            Kind::Cold(c) => Some(cold_dispatch(seed, c)),
            Kind::Warm(_) => None,
        })
        .collect();

    let (tx, rx) = mpsc::channel::<(usize, JobId, f64, f64)>();
    let http = d.http_addr.clone();
    let start = Instant::now();
    let fetcher = std::thread::spawn(move || {
        let mut got = Vec::new();
        for (slot, job, due, sent) in rx {
            let blob = http_get(&http, &format!("/jobs/{}/result", job.0));
            let done = start.elapsed().as_secs_f64();
            got.push((
                slot,
                Answer {
                    t: Timeline { due, sent, done },
                    blob,
                },
            ));
        }
        got
    });

    let mut rung = Rung {
        rate,
        scheduled_cold: cold.len(),
        ..Default::default()
    };
    let mut cold_sent = 0;
    for due in &schedule {
        crate::sys::sleep_until(start + Duration::from_secs_f64(due.at));
        let sent = start.elapsed().as_secs_f64();
        rung.late_ms.push(
            Timeline {
                due: due.at,
                sent,
                done: sent,
            }
            .late_ms(),
        );
        match due.kind {
            Kind::Cold(_) => {
                let slot = cold_sent;
                cold_sent += 1;
                match client.submit(&cold[slot].manifest, 1) {
                    Ok((job, _)) => {
                        tx.send((slot, job, due.at, sent)).expect("fetcher alive");
                    }
                    Err(e) => {
                        r.outcomes.record(refusal(&e.to_string()));
                    }
                }
            }
            Kind::Warm(w) => {
                let answer = client
                    .submit(&pool[w].0.manifest, 1)
                    .and_then(|(job, disp)| Ok((client.fetch_blob(job)?, disp)));
                let done = start.elapsed().as_secs_f64();
                match answer {
                    Ok((blob, disp)) => {
                        match disp {
                            Disposition::HitMem => rung.tiers.0 += 1,
                            Disposition::HitDisk => rung.tiers.1 += 1,
                            _ => rung.tiers.2 += 1,
                        }
                        if r.outcomes.check(blob == pool[w].1) {
                            let t = Timeline {
                                due: due.at,
                                sent,
                                done,
                            };
                            rung.warm_ms.push(t.latency_ms());
                        }
                    }
                    Err(e) => {
                        r.outcomes.record(refusal(&e.to_string()));
                    }
                }
            }
        }
    }
    drop(tx);
    let answers = fetcher.join().expect("fetcher thread panicked");
    rung.span_s = answers
        .iter()
        .map(|(_, a)| a.t.done)
        .fold(start.elapsed().as_secs_f64(), f64::max);

    // Check every cold answer against its in-process reference, off the
    // clock.
    let ev = sim_runtime::telemetry().counter("engine_events_total");
    let mut timelines = Vec::new();
    for (slot, a) in answers {
        timelines.push(a.t);
        let Ok(blob) = a.blob else {
            r.outcomes.record(Outcome::Failed);
            continue;
        };
        let ev0 = ev.get();
        let expected = encode_blob(&paper::reference(&cold[slot]));
        let events = ev.get() - ev0;
        if r.outcomes.check(blob == expected) {
            rung.cold_ms.push(a.t.latency_ms());
            rung.cold_events += events;
        }
    }
    let backlog = openloop::backlog_at_sends(&timelines);
    rung.backlog_max = backlog.iter().copied().max().unwrap_or(0);
    rung.backlog_grew = openloop::backlog_grows(&backlog, BACKLOG_FLOOR);
    rung
}

/// A queue-full rejection is a refusal; anything else a failure.
fn refusal(message: &str) -> Outcome {
    if message.contains("queue") && message.contains("full") {
        Outcome::Refused
    } else {
        Outcome::Failed
    }
}

/// The `c`-th cold manifest of a run.
pub fn cold_dispatch(seed: u64, c: usize) -> Dispatch {
    paper::node_dispatch(
        paper::fig15_workload(),
        paper::FIG15_HORIZON,
        paper::derive_seed(seed, 1 + c as u64),
    )
}

/// The `k`-th warm-pool manifest of a run.
pub fn pool_dispatch(seed: u64, k: usize) -> Dispatch {
    paper::node_dispatch(
        paper::fig15_workload(),
        paper::FIG15_HORIZON,
        paper::derive_seed(seed, (1 << 40) + k as u64),
    )
}

/// Set up the daemon `SETUPS` times (keeping the last); returns it and the
/// set-up times.
pub fn set_up(repro: &Path, out: &Path) -> Result<(Daemon, ServiceClient, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let d = Daemon::start(repro, out, &format!("cache{i}"))?;
        let mut c = d.client()?;
        let (job, _) = c
            .submit(&trivial_manifest(), 1)
            .map_err(|e| e.to_string())?;
        c.fetch_blob(job).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((d, c));
    }
    let (d, c) = last.expect("at least one set-up");
    Ok((d, c, times))
}

/// Answer every warm-pool manifest once (the benchmark's own pre-fill,
/// not part of set-up) and return each with its reference blob.
pub fn prefill(
    seed: u64,
    client: &mut ServiceClient,
    r: &mut Report,
) -> Result<Vec<(Dispatch, Vec<u8>)>, String> {
    let mut pool = Vec::with_capacity(WARM_POOL);
    for k in 0..WARM_POOL {
        let d = pool_dispatch(seed, k);
        let blob = encode_blob(&paper::reference(&d));
        let (job, _) = client.submit(&d.manifest, 1).map_err(|e| e.to_string())?;
        let got = client.fetch_blob(job).map_err(|e| e.to_string())?;
        if !r.outcomes.check(got == blob) {
            return Err(format!(
                "warm-pool manifest {k}: served bytes differ from the reference"
            ));
        }
        pool.push((d, blob));
    }
    Ok(pool)
}

/// `fig15-served`.
/// `fig15-served`.
pub fn fig15_served(seed: u64, seconds: f64, repro: &Path, out: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let (daemon, mut client, setups) = set_up(repro, out)?;
    r.metric("setup_s", "s", median(&setups));
    let pool = prefill(seed, &mut client, &mut r)?;

    // The operating point first, then the ladder above it; rungs[0] is
    // the operating point.
    let rates =
        std::iter::once((RATE_MAIN, seconds * MAIN_SHARE)).chain(RATE_LADDER.iter().map(|&rate| {
            (
                rate,
                seconds * (1.0 - MAIN_SHARE) / RATE_LADDER.len() as f64,
            )
        }));
    let mut rungs: Vec<Rung> = Vec::new();
    let mut next_cold = 0;
    let mut peak = 0.0;
    for (rate, rung_seconds) in rates {
        let rung = run_rung(
            &daemon,
            &mut client,
            seed,
            rate,
            rung_seconds,
            next_cold,
            &pool,
            &mut r,
        );
        next_cold += rung.scheduled_cold;
        let pass = rung.cold_tail_ms() < COLD_TAIL_LIMIT_MS && !rung.backlog_grew;
        rungs.push(rung);
        if rungs.len() == 1 {
            // Memory at the operating point; the ladder's length varies.
            peak = sys::peak_rss_mb_tree();
        }
        if !pass {
            break;
        }
    }
    let stats = client.stats().map_err(|e| e.to_string())?;

    let main = &rungs[0];
    if main.cold_ms.is_empty() || main.warm_ms.is_empty() {
        return Err("the operating point answered no cold or no warm request correctly".into());
    }
    r.metric("sweep_p50_s", "s", median(&main.cold_ms) / 1e3);
    r.metric("events_per_s", "1/s", main.cold_events as f64 / main.span_s);
    r.timing("cold_p50_ms", "cold_tail_ms", "ms", &main.cold_ms, 1.0);
    r.timing("warm_p50_ms", "warm_tail_ms", "ms", &main.warm_ms, 1.0);
    let ladder: Vec<(f64, f64, bool)> = rungs
        .iter()
        .map(|g| (g.rate, g.cold_tail_ms(), g.backlog_grew))
        .collect();
    let (max_rate, censored) = openloop::max_rate(&ladder, COLD_TAIL_LIMIT_MS);
    r.metric("max_rate_jobs_per_s", "1/s", max_rate);
    r.metric("peak_rss_mb", "MB", peak);
    let oracle: Vec<Dispatch> = (0..REL_ERR_MANIFESTS)
        .map(|c| cold_dispatch(paper::ORACLE_SEED, c))
        .collect();
    r.metric("rel_err_max", "ratio", paper::node_rel_err_max(&oracle));

    r.detail("setups", Json::Int(setups.len() as u64));
    r.detail("max_rate_censored", Json::Bool(censored));
    r.detail("cold_tail_limit_ms", Json::Num(COLD_TAIL_LIMIT_MS));
    r.detail(
        "loadgen.late_tail_ms",
        Json::Num(Summary::of(&main.late_ms).tail),
    );
    r.detail("loadgen.backlog_max", Json::Int(main.backlog_max as u64));
    r.detail(
        "rungs",
        Json::Arr(
            rungs
                .iter()
                .map(|g| {
                    Json::obj([
                        ("rate", Json::Num(g.rate)),
                        ("cold", Json::Int(g.cold_ms.len() as u64)),
                        ("warm", Json::Int(g.warm_ms.len() as u64)),
                        ("cold_tail_ms", Json::Num(g.cold_tail_ms())),
                        ("late_tail_ms", Json::Num(Summary::of(&g.late_ms).tail)),
                        ("backlog_max", Json::Int(g.backlog_max as u64)),
                        ("backlog_grew", Json::Bool(g.backlog_grew)),
                        ("warm_mem", Json::Int(g.tiers.0)),
                        ("warm_disk", Json::Int(g.tiers.1)),
                        ("warm_other", Json::Int(g.tiers.2)),
                    ])
                })
                .collect(),
        ),
    );
    r.detail(
        "daemon",
        Json::obj([
            ("submitted", Json::Int(stats.submitted)),
            ("hits_mem", Json::Int(stats.hits_mem)),
            ("hits_disk", Json::Int(stats.hits_disk)),
            ("executed", Json::Int(stats.executed)),
            ("rejected", Json::Int(stats.rejected)),
            ("failed", Json::Int(stats.failed)),
            ("restarts", Json::Int(stats.restarts)),
            ("fallbacks", Json::Int(stats.fallbacks)),
        ]),
    );
    drop(client);
    drop(daemon);
    Ok(r)
}

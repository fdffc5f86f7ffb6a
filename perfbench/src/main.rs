//! `perfbench` — the end-to-end and per-layer benchmark of the paper's
//! Power-Down-Threshold sweeps.
//!
//! ```text
//! perfbench --workload <fig14-inproc|fig4-9-sharded|fig15-served>
//!           --seed <n> --seconds <s> --trace <0|1> --repro <path-to-repro>
//!           [--out <dir>]
//! ```
//!
//! `--trace 0` measures the workload end to end; `--trace 1` runs the
//! layer ladder instead. Either way the last stdout line is the result
//! object (`correct`, `attempted`, `failed`, `metrics`), preceded by one
//! `{"perfbench": ...}` line with provenance and every detail. See
//! `README.md` next to this crate.

mod json;
mod ladder;
mod openloop;
mod outcome;
mod paper;
mod report;
mod served;
mod spans;
mod stats;
mod sweeps;
mod sys;
mod traced;

use json::Json;
use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// Seconds a run may take beyond `--seconds` (set-up, references and
/// checks included) before the watchdog ends it.
const WATCHDOG_SLACK_S: f64 = 120.0;

/// A workload: its name, why it is in the benchmark, and the seeds it is
/// sized on and held out on.
struct Workload {
    name: &'static str,
    why: &'static str,
}

/// Default seed every workload is sized and tuned on.
const DEFAULT_SEED: u64 = 1;
/// Seed held out from all sizing, for confirming a claim.
const HELD_OUT_SEED: u64 = 1_000_003;

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig14-inproc",
        why: "closed Fig. 12 node SCPN on the in-process runner: the colored lowered engine is over 95% of the work, no rounds, no IPC",
    },
    Workload {
        name: "fig4-9-sharded",
        why: "Figs. 4-9 CPU comparison with adaptive rounds over 2 worker subprocesses: dense lowered loop, des kernel, rounds, pipes, pool",
    },
    Workload {
        name: "fig15-served",
        why: "open-loop fig15 requests to repro serve --http over 2 TCP peers, 3 cache hits per fresh request: queue, cache, wire, HTTP",
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repro = None;
    let mut out = PathBuf::from("perfbench/out");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repro" => repro = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repro: repro.ok_or("--repro is required")?,
        out,
    })
}

fn run(a: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    if a.trace {
        return traced::run(&a.workload, a.seed, a.seconds, &a.repro, &a.out);
    }
    match a.workload.as_str() {
        "fig14-inproc" => sweeps::fig14_inproc(a.seed, a.seconds),
        "fig4-9-sharded" => sweeps::fig4_9_sharded(a.seed, a.seconds, &a.repro),
        "fig15-served" => served::fig15_served(a.seed, a.seconds, &a.repro, &a.out),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A layer that never answers (a blocking fetch is kept alive by
    // heartbeats) must fail the run, not hang it: past the deadline, exit
    // without a result. `run.py` then stops whatever this process spawned.
    let deadline = Duration::from_secs_f64(args.seconds + WATCHDOG_SLACK_S);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("perfbench: no result after {deadline:?}; giving up");
        std::process::exit(1);
    });
    let report = run(&args);
    // Pooled worker subprocesses outlive the backends that spawned them;
    // stop and reap them before exiting, on every path.
    sim_runtime::fleet::pool::pool().drain();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let o = report.outcomes;
    if o.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        std::process::exit(1);
    }
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("validated workload");
    let mut details: Vec<(String, Json)> = vec![
        ("workload".into(), Json::str(w.name)),
        ("why".into(), Json::str(w.why)),
        ("seed".into(), Json::Int(args.seed)),
        ("default_seed".into(), Json::Int(DEFAULT_SEED)),
        ("held_out_seed".into(), Json::Int(HELD_OUT_SEED)),
        ("rel_err_max.seed".into(), Json::Int(paper::ORACLE_SEED)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("provenance".into(), sys::provenance()),
        ("failed_share".into(), Json::Num(o.failed_share())),
        ("refused".into(), Json::Int(o.refused)),
        ("wrong_output".into(), Json::Int(o.wrong)),
    ];
    details.extend(report.details);
    let metric_obj = |with_units: bool| {
        Json::Obj(
            report
                .metrics
                .iter()
                .map(|&(name, unit, value)| {
                    let v = if with_units {
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
                    } else {
                        Json::Num(value)
                    };
                    (name.to_string(), v)
                })
                .collect(),
        )
    };
    details.push(("metrics".into(), metric_obj(false)));
    println!(
        "{}",
        Json::obj([("perfbench", Json::Obj(details))]).render()
    );
    let correct = o.bad() == 0 && o.attempted > 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(o.attempted)),
            ("failed", Json::Int(o.bad())),
            ("metrics", metric_obj(true)),
        ])
        .render()
    );
}

//! The repository benchmark: training throughput and time lost per
//! failure on three workloads, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dp-train|dp-failover|pipeline-replay> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it reports the per-layer metrics. Every
//! job's output is checked; the last line of standard output is one JSON
//! object, and the exit code is nonzero when any check failed.

mod layers;
mod oracle;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, peak_rss_mb, Host, Metrics};
use workload::{summarize, Runner, Tally, Tracing, Workload};

/// Program settings read from the environment. The benchmark measures
/// the defaults, so it refuses to run when any of them is set.
const KNOBS: [&str; 5] = [
    "SWIFT_SIMD",
    "SWIFT_COLLECTIVE_CHUNK",
    "SWIFT_SHARD_BYTES",
    "SWIFT_HEARTBEAT_MS",
    "SWIFT_LEASE_MS",
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // Stores the program creates go under the working directory and are
    // removed at the end. Removing them job by job would slow the jobs
    // that follow: on some filesystems file creation slows down after
    // many deletions.
    let store_dir = match std::env::current_dir() {
        Ok(d) => d
            .join(".bench_tmp")
            .join(format!("run-{}", std::process::id())),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&store_dir) {
        eprintln!("perfbench: cannot create {}: {e}", store_dir.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &store_dir);

    let code = run(&args);
    let _ = std::fs::remove_dir_all(&store_dir);
    if let Some(parent) = store_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    code
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut r = Runner::new(args.seed);
    let mut m = Metrics::default();
    let host = if args.trace {
        let host = Host::probe();
        layers::run(w, args.seconds, &host, &mut r, &mut m);
        host
    } else {
        let (refs, setup) = r.setup(w, SETUP_REPS);
        let until = Instant::now() + Duration::from_secs_f64(args.seconds);
        let records = r.measure(w, &refs, until, Tracing::Off);
        let s = summarize(&records, false);
        m.push("train_samples_per_s", s.train_samples_per_s, "samples/s");
        m.push(
            "goodput_samples_per_s",
            s.goodput_samples_per_s,
            "samples/s",
        );
        m.push("failure_cost_ms_p50", s.failure_cost_ms_p50, "ms");
        m.push("failure_cost_ms_p90", s.failure_cost_ms_p90, "ms");
        m.push("setup_s", median(&setup), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        println!(
            "# samples: {} clean jobs for train_samples_per_s, {} incidents for goodput and failure_cost",
            s.train_jobs, s.incidents
        );
        // Reported, not gated: deterministic for a seed, so its spread
        // across seeds says nothing about the code's speed.
        println!(
            "# final_loss {} (clean job, last iteration)",
            refs.final_loss()
        );
        // After the peak memory is read: the probe's buffers would hide
        // the workload's own peak.
        Host::probe()
    };
    println!("{}", host.line());
    let Tally { attempted, failed } = r.tally;
    for metric in &m.0 {
        println!("# {} {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "# jobs_failed_share {} ({failed} of {attempted} jobs)",
        failed as f64 / attempted.max(1) as f64
    );
    let missing = m.non_finite();
    if !missing.is_empty() {
        eprintln!("perfbench: no value measured for {}", missing.join(", "));
    }
    let correct = failed == 0 && missing.is_empty();
    println!("{}", m.result_line(correct, attempted.max(1), failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

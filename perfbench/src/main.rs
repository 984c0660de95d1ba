//! The MVEE benchmark: one seeded workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sync-heavy|syscall-heavy|serve|remote> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! records spans around every call the benchmark makes into a layer and
//! prints the per-layer metrics instead (spans are written to
//! `.bench_trace/<workload>.tsv`).  Every correctness gate runs in both
//! modes.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! a readable account with the machine facts and sample counts.

mod common;
mod layers;
mod probe;
mod serve;
mod stream;
mod sync_heavy;
mod trace;

use std::process::ExitCode;

use common::Report;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("slowdown", "x"),
    ("calls_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit).  A layer a
/// workload leaves idle reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("lat_p99_us", "us"),
    ("agent.ops_recorded", "count"),
    ("agent.ops_replayed", "count"),
    ("agent.replay_ratio", "ratio"),
    ("agent.slave_stalls", "count"),
    ("agent.master_stalls", "count"),
    ("agent.stall_rate", "ratio"),
    ("agent.slave_yields", "count"),
    ("agent.slave_parks", "count"),
    ("agent.cursor_rescans", "count"),
    ("agent.clock_collisions", "count"),
    ("agent.bracket_ns_p50", "ns"),
    ("agent.bracket_ns_p99", "ns"),
    ("port.calls", "count"),
    ("port.replicated_ns_p50", "ns"),
    ("port.replicated_ns_p99", "ns"),
    ("port.compare_ns_p50", "ns"),
    ("async.submit_ns_p50", "ns"),
    ("async.reap_wait_ns_p50", "ns"),
    ("async.reap_wait_ns_p99", "ns"),
    ("async.inline_ratio", "ratio"),
    ("monitor.lockstep_calls", "count"),
    ("monitor.replicated_calls", "count"),
    ("monitor.ordered_calls", "count"),
    ("monitor.batched_comparisons", "count"),
    ("monitor.batch_flushes", "count"),
    ("monitor.calls_per_flush", "ratio"),
    ("monitor.divergences", "count"),
    ("monitor.quarantines", "count"),
    ("monitor.degraded_calls", "count"),
    ("lockstep.live_slots_max", "count"),
    ("monitor.live_deferred_max", "count"),
    ("kernel.syscalls_executed", "count"),
    ("kernel.client_exec_ns_p50", "ns"),
    ("kernel.client_exec_ns_p99", "ns"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.bytes_per_call", "bytes"),
    ("journal.finish_ms", "ms"),
    ("journal.replay_ms", "ms"),
    ("snapshot.taken", "count"),
    ("snapshot.bytes", "bytes"),
    ("remote.issue_ns_p50", "ns"),
    ("remote.issue_ns_p99", "ns"),
    ("remote.barrier_ms", "ms"),
    ("detect_lag_ops", "count"),
    ("served_rps", "1/s"),
    ("max_rate_rps", "1/s"),
    ("gen.late_us_p99", "us"),
    ("fail_ratio", "ratio"),
    ("trace.overhead", "x"),
];

const WORKLOADS: &[&str] = &["sync-heavy", "syscall-heavy", "serve", "remote"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let trace = match args.workload.as_str() {
        "sync-heavy" => sync_heavy::run(args.seed, args.seconds, args.trace, &mut report),
        "syscall-heavy" => stream::run(
            stream::Mode::SyscallHeavy,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "remote" => stream::run(
            stream::Mode::Remote,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "serve" => serve::run(args.seed, args.seconds, args.trace, &mut report),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    report.layer(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine: nproc {} | rev {} | {}",
        common::nproc(),
        common::git_rev(),
        common::rustc_version()
    );
    for note in &report.notes {
        println!("  {note}");
    }
    if args.trace {
        let path = std::path::Path::new(".bench_trace").join(format!("{}.tsv", args.workload));
        match trace.write_tsv(&path) {
            Ok(()) => println!(
                "  {} spans written to {} ({} more dropped past the cap)",
                trace.spans.len(),
                path.display(),
                trace.dropped
            ),
            Err(e) => println!("  spans not written: {e}"),
        }
        println!("  self time by span (ms, count):");
        for (name, ns, count) in trace.self_times().into_iter().take(12) {
            println!("    {name:<24} {:>12.3} {count:>10}", ns as f64 / 1e6);
        }
    }

    let (table, source) = if args.trace {
        (LAYERS, &report.layers)
    } else {
        (E2E, &report.e2e)
    };
    let mut metrics = Vec::new();
    let mut correct = report.failed == 0 && report.invalid.is_empty();
    for reason in &report.invalid {
        println!("  INVALID: {reason}");
    }
    for (name, unit) in table {
        let value = match source.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                println!("  INVALID: {name} is not finite");
                correct = false;
                0.0
            }
            // An idle layer reads 0; a missing end-to-end metric is a bug.
            None if args.trace => 0.0,
            None => {
                println!("  INVALID: {name} was not measured");
                correct = false;
                0.0
            }
        };
        let n = report.counts.get(name).copied().unwrap_or(0);
        println!("  {name:<28} {value:>16.4} {unit:<6} n={n}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

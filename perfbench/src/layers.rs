//! Per-layer figures derived from the public counters and the trace.

use mvee_core::MonitorStats;
use mvee_sync_agent::AgentStats;

use crate::common::{Report, Samples};
use crate::trace::Trace;

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> u64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(|i| f(i) as f64).sum::<f64>() / items.len() as f64
}

/// Agent counters, as means per protected unit (run or request batch);
/// `brackets` holds sampled sync-op bracket durations in ns.
pub fn agent(report: &mut Report, agents: &[AgentStats], brackets: &Samples) {
    let n = agents.len();
    let recorded: u64 = agents.iter().map(|a| a.ops_recorded).sum();
    let replayed: u64 = agents.iter().map(|a| a.ops_replayed).sum();
    let stalls: u64 = agents.iter().map(|a| a.slave_stalls).sum();
    report.layer("agent.ops_recorded", mean_of(agents, |a| a.ops_recorded), n);
    report.layer("agent.ops_replayed", mean_of(agents, |a| a.ops_replayed), n);
    report.layer(
        "agent.replay_ratio",
        if recorded == 0 {
            0.0
        } else {
            replayed as f64 / recorded as f64
        },
        n,
    );
    report.layer("agent.slave_stalls", mean_of(agents, |a| a.slave_stalls), n);
    report.layer(
        "agent.master_stalls",
        mean_of(agents, |a| a.master_stalls),
        n,
    );
    report.layer(
        "agent.stall_rate",
        if replayed == 0 {
            0.0
        } else {
            stalls as f64 / replayed as f64
        },
        n,
    );
    report.layer("agent.slave_yields", mean_of(agents, |a| a.slave_yields), n);
    report.layer("agent.slave_parks", mean_of(agents, |a| a.slave_parks), n);
    report.layer(
        "agent.cursor_rescans",
        mean_of(agents, |a| a.cursor_rescans),
        n,
    );
    report.layer(
        "agent.clock_collisions",
        mean_of(agents, |a| a.clock_collisions),
        n,
    );
    report.layer(
        "agent.bracket_ns_p50",
        brackets.quantile(0.5),
        brackets.len(),
    );
    report.layer(
        "agent.bracket_ns_p99",
        brackets.quantile(0.99),
        brackets.len(),
    );
}

/// Monitor counters as means per protected unit, plus the live-state
/// maxima sampled at phase boundaries.
pub fn monitor(
    report: &mut Report,
    monitors: &[MonitorStats],
    live_slots: usize,
    live_deferred: usize,
) {
    let n = monitors.len();
    let batched: u64 = monitors.iter().map(|m| m.batched_comparisons).sum();
    let flushes: u64 = monitors.iter().map(|m| m.batch_flushes).sum();
    report.layer(
        "monitor.lockstep_calls",
        mean_of(monitors, |m| m.lockstep_syscalls),
        n,
    );
    report.layer(
        "monitor.replicated_calls",
        mean_of(monitors, |m| m.replicated_syscalls),
        n,
    );
    report.layer(
        "monitor.ordered_calls",
        mean_of(monitors, |m| m.ordered_syscalls),
        n,
    );
    report.layer(
        "monitor.batched_comparisons",
        mean_of(monitors, |m| m.batched_comparisons),
        n,
    );
    report.layer(
        "monitor.batch_flushes",
        mean_of(monitors, |m| m.batch_flushes),
        n,
    );
    report.layer(
        "monitor.calls_per_flush",
        if flushes == 0 {
            0.0
        } else {
            batched as f64 / flushes as f64
        },
        n,
    );
    report.layer(
        "monitor.divergences",
        mean_of(monitors, |m| m.divergences),
        n,
    );
    report.layer(
        "monitor.quarantines",
        mean_of(monitors, |m| m.quarantines),
        n,
    );
    report.layer(
        "monitor.degraded_calls",
        mean_of(monitors, |m| m.degraded_calls),
        n,
    );
    report.layer("lockstep.live_slots_max", live_slots as f64, n);
    report.layer("monitor.live_deferred_max", live_deferred as f64, n);
}

/// `ThreadPort::syscall` timings from the trace.
pub fn port_spans(report: &mut Report, trace: &Trace) {
    let replicated = trace.durations("port.replicated");
    let compare = trace.durations("port.compare");
    report.layer(
        "port.replicated_ns_p50",
        replicated.median(),
        replicated.len(),
    );
    report.layer(
        "port.replicated_ns_p99",
        replicated.quantile(0.99),
        replicated.len(),
    );
    report.layer("port.compare_ns_p50", compare.median(), compare.len());
}

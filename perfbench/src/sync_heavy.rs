//! `sync-heavy`: the catalog's `radiosity` program (task-queue topology),
//! natively and under two diversified variants with the wall-of-clocks
//! agent on the default synchronous transport.  The paper's own metric:
//! protected run time over native run time.
//!
//! The seed picks the diversity layout: where each variant's sync
//! variables sit, and so which wall-of-clocks clocks collide.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mvee_core::mvee::Mvee;
use mvee_core::{MonitorStats, MveeConfig};
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::context::AgentConfig;
use mvee_sync_agent::AgentStats;
use mvee_variant::executor::execute_thread;
use mvee_variant::memory::VariantMemory;
use mvee_variant::port::{NativePort, SyscallPort};
use mvee_variant::{DiversityProfile, Program};
use mvee_workloads::catalog::BenchmarkSpec;

use crate::common::{rss_mb, Report, Samples, UnitQuantiles};
use crate::probe::Probe;
use crate::trace::{next_id, Lane, Trace};

pub const VARIANTS: usize = 2;
pub const THREADS: usize = 2;
/// Compresses radiosity's 45.56 s native run; the sync-op count is capped
/// by the catalog at 40 000 tasks, so the scale sets the compute per task.
pub const SCALE: f64 = 2e-3;

/// What each thread of one variant (or of the native run) wrote.
type Writes = Vec<Vec<Vec<u8>>>;

fn config() -> MveeConfig {
    MveeConfig::default()
        .with_agent(AgentKind::WallOfClocks)
        .with_agent_config(AgentConfig::default().with_buffer_capacity(1 << 16))
        .with_lockstep_timeout(Duration::from_secs(10))
}

struct Protected {
    setup: Duration,
    run: Duration,
    writes: Vec<Writes>,
    /// Master console output.
    console: Vec<u8>,
    diverged: bool,
    killed: bool,
    monitor: MonitorStats,
    agent: AgentStats,
    kernel_calls: u64,
    live_slots: usize,
    live_deferred: usize,
    rss: f64,
    brackets: Vec<u64>,
    calls: u64,
}

struct Native {
    run: Duration,
    writes: Writes,
    console: Vec<u8>,
}

fn native(program: &Arc<Program>) -> Native {
    crate::common::release_free_memory();
    let kernel = Arc::new(mvee_kernel::kernel::Kernel::new());
    let pid = kernel.spawn_process();
    for (path, contents) in &program.files {
        kernel.install_file(path, contents);
    }
    let port = NativePort::new(Arc::clone(&kernel), pid);
    let memory = Arc::new(VariantMemory::for_program(program, 0x7f10_0000_0000));
    let start = Instant::now();
    let handles: Vec<_> = (0..program.thread_count())
        .map(|t| {
            let program = Arc::clone(program);
            let port = port.clone();
            let memory = Arc::clone(&memory);
            std::thread::spawn(move || {
                let probe = Probe::new(port.thread_port(t), Lane::off(), 0);
                execute_thread(&program, t, &probe, &memory, 1.0);
                probe.writes.into_inner()
            })
        })
        .collect();
    let writes = handles
        .into_iter()
        .map(|h| h.join().expect("native thread panicked"))
        .collect();
    Native {
        run: start.elapsed(),
        writes,
        console: kernel.console_output(pid),
    }
}

fn protected(program: &Arc<Program>, seed: u64, traced: bool, trace: &mut Trace) -> Protected {
    let diversity = DiversityProfile::aslr_only(seed);
    crate::common::release_free_memory();
    let setup_start = Instant::now();
    let mvee = Mvee::builder()
        .variants(VARIANTS)
        .threads(program.thread_count())
        .config(config())
        .layouts((0..VARIANTS).map(|v| diversity.layout_for(v)).collect())
        .build();
    for (path, contents) in &program.files {
        mvee.kernel().install_file(path, contents);
    }
    let run_id = next_id();
    let mut ports = Vec::new();
    for v in 0..VARIANTS {
        let gateway = mvee.gateway(v);
        let memory = Arc::new(VariantMemory::for_program(
            program,
            diversity.sync_base_for(v),
        ));
        for t in 0..program.thread_count() {
            let port = SyscallPort::thread_port(&gateway, t);
            ports.push((
                Probe::new(port, Lane::new(traced), run_id),
                Arc::clone(&memory),
                t,
            ));
        }
    }
    let setup = setup_start.elapsed();

    let start = Instant::now();
    let start_ns = crate::trace::now_ns();
    let handles: Vec<_> = ports
        .into_iter()
        .map(|(probe, memory, t)| {
            let program = Arc::clone(program);
            std::thread::spawn(move || {
                let stats = execute_thread(&program, t, &probe, &memory, 1.0);
                (probe, stats.killed)
            })
        })
        .collect();
    let mut writes: Vec<Writes> = vec![Vec::new(); VARIANTS];
    let mut killed = false;
    let mut brackets = Vec::new();
    let mut calls = 0;
    for (i, h) in handles.into_iter().enumerate() {
        let (probe, k) = h.join().expect("variant thread panicked");
        killed |= k;
        calls += probe.calls.get();
        trace.absorb(probe.lane.take());
        brackets.extend(probe.brackets.into_inner());
        writes[i / program.thread_count()].push(probe.writes.into_inner());
    }
    let run = start.elapsed();
    if traced {
        trace.absorb(vec![crate::trace::Span {
            name: "run",
            trace: run_id,
            id: run_id,
            parent: 0,
            start: start_ns,
            end: crate::trace::now_ns(),
        }]);
    }
    Protected {
        setup,
        run,
        writes,
        console: mvee.kernel().console_output(mvee.pid_of(0)),
        diverged: mvee.divergence().is_some(),
        killed,
        monitor: mvee.monitor_stats(),
        agent: mvee.agent_stats(),
        kernel_calls: mvee.kernel().stats().syscalls_executed,
        live_slots: mvee.monitor().live_slots(),
        live_deferred: mvee.monitor().live_deferred(),
        rss: rss_mb(),
        brackets,
        calls,
    }
}

/// The gate: no divergence, no killed thread, every (variant, thread)
/// wrote exactly what the native thread wrote, and the master's console
/// holds the same bytes as the native console (thread interleaving aside).
fn outputs_match(p: &Protected, n: &Native) -> bool {
    let mut native_console = n.console.clone();
    let mut console = p.console.clone();
    native_console.sort_unstable();
    console.sort_unstable();
    !p.diverged
        && !p.killed
        && native_console == console
        && p.writes.iter().all(|variant| variant == &n.writes)
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Trace {
    let spec = BenchmarkSpec::by_name("radiosity").expect("radiosity is in the catalog");
    let program = Arc::new(spec.program(THREADS, SCALE));
    let mut trace = Trace::default();
    // Warm-up pair, unmeasured: first-touch allocation and thread start-up.
    let _ = native(&program);
    let _ = protected(&program, seed, false, &mut trace);

    let mut native_runs = Samples::default();
    let mut runs = Samples::default();
    let mut traced_runs = Samples::default();
    let mut setups = Samples::default();
    let mut rates = Samples::default();
    let mut rss = Samples::default();
    let mut brackets = Samples::default();
    let mut latency = UnitQuantiles::default();
    let mut agents: Vec<AgentStats> = Vec::new();
    let mut monitors: Vec<MonitorStats> = Vec::new();
    let mut kernel_calls = Samples::default();
    let mut port_calls = Samples::default();
    let (mut live_slots, mut live_deferred) = (0usize, 0usize);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while round < 3 || Instant::now() < deadline {
        round += 1;
        let n = native(&program);
        native_runs.push(n.run.as_secs_f64());
        let mut check = |p: &Protected, report: &mut Report| {
            report.gate(outputs_match(p, &n), || {
                format!("radiosity round {round}: protected output differs from native")
            });
            live_slots = live_slots.max(p.live_slots);
            live_deferred = live_deferred.max(p.live_deferred);
        };
        let p = protected(&program, seed, false, &mut trace);
        check(&p, report);
        runs.push(p.run.as_secs_f64());
        rss.push(p.rss);
        setups.push(p.setup.as_secs_f64());
        rates.push(p.monitor.total_syscalls as f64 / p.run.as_secs_f64());
        let mut unit = Samples::default();
        for ns in &p.brackets {
            unit.push(*ns as f64 / 1e3);
        }
        latency.add(&unit);
        if !traced {
            continue;
        }
        let t = protected(&program, seed, true, &mut trace);
        check(&t, report);
        traced_runs.push(t.run.as_secs_f64());
        for ns in &t.brackets {
            brackets.push(*ns as f64);
        }
        agents.push(t.agent);
        monitors.push(t.monitor);
        kernel_calls.push(t.kernel_calls as f64);
        port_calls.push(t.calls as f64);
    }

    let units = runs.len();
    if !traced {
        report.e2e("setup_s", setups.median(), setups.len());
        report.e2e("run_s", runs.median(), units);
        report.e2e("slowdown", runs.median() / native_runs.median(), units);
        report.e2e("calls_per_s", rates.median(), units);
        latency.report(report, false);
        report.e2e("peak_rss_mb", rss.median(), rss.len());
        report.notes.push(format!(
            "sync-heavy: radiosity x{THREADS} threads at scale {SCALE}, native median {:.4} s over {} runs; lat = sync-op bracket, 1 in {} sampled",
            native_runs.median(),
            native_runs.len(),
            crate::probe::BRACKET_SAMPLE
        ));
        return trace;
    }
    latency.report(report, true);
    crate::layers::agent(report, &agents, &brackets);
    crate::layers::monitor(report, &monitors, live_slots, live_deferred);
    report.layer(
        "kernel.syscalls_executed",
        kernel_calls.mean(),
        kernel_calls.len(),
    );
    report.layer("port.calls", port_calls.mean(), port_calls.len());
    crate::layers::port_spans(report, &trace);
    report.layer(
        "trace.overhead",
        traced_runs.median() / runs.median(),
        traced_runs.len(),
    );
    trace
}

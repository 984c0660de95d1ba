//! `syscall-heavy` and `remote`: a seeded stream of monitored calls.
//!
//! Most calls are compare-only address-space calls (brk, mmap, mprotect,
//! munmap) that the monitor defers in batches of 8; the rest are
//! replicated file reads and writes and replicated info queries, with a
//! sync op every `SYNC_EVERY` calls as the replication point.
//!
//! * `syscall-heavy` drives the stream through `AsyncThreadPort::submit` /
//!   `reap` with an auto-sized poller pool, with journal recording,
//!   snapshots and quarantine on: the full production monitor pipeline.
//! * `remote` drives it with the journal and snapshots off through
//!   `Transport::Remote` over a Unix socket pair, variant 0 as the leader.
//!
//! The same stream executed by one native process through
//! `Kernel::execute` is the baseline.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mvee_core::config::{Pollers, RecoveryPolicy, RemoteChannel, Transport, DEFAULT_RING_DEPTH};
use mvee_core::journal::{Journal, JournalMode, JournalRecorder};
use mvee_core::monitor::{MonitorError, MonitorStats};
use mvee_core::mvee::Mvee;
use mvee_kernel::kernel::Kernel;
use mvee_kernel::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use mvee_kernel::vfs::OpenFlags;
use mvee_sync_agent::agents::AgentKind;
use mvee_variant::port::{NativePort, Submitted, SyscallPort, ThreadSyscallPort};

use crate::common::{rss_mb, Report, Rng, Samples, UnitQuantiles};
use crate::probe::port_span;
use crate::trace::{next_id, Lane, Span, Trace};

pub const VARIANTS: usize = 2;
pub const THREADS: usize = 2;
/// Monitored calls per thread in one pass of the stream.
pub const CALLS: usize = 1500;
pub const BATCH: usize = 8;
pub const SYNC_EVERY: usize = 32;
/// Sync ops between snapshots (`syscall-heavy`).
pub const SNAPSHOT_EVERY: u64 = 8;
/// Bytes of each thread's pre-installed input file.
const INPUT_LEN: usize = 64 * 1024;
/// Live mappings a thread keeps at most.
const MAX_LIVE: usize = 16;
/// Leader sync ops between the staged mismatch and the slave's arrival in
/// the detection-lag probe.
pub const LAG_SYNC_OPS: u64 = 16;
const SYNC_ADDR: u64 = 0x7f10_0000_1000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    SyscallHeavy,
    Remote,
}

/// How a port's calls are labelled in the trace.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Async,
    Leader,
    Slave,
    Native,
}

#[derive(Debug, Clone)]
enum Op {
    Brk,
    Mmap { len: u64 },
    Mprotect { slot: usize, prot: u64 },
    Munmap { slot: usize },
    Read { len: usize },
    Seek,
    Write { payload: Vec<u8> },
    Info(Sysno),
    Sync,
}

/// The generator: a pure function of (seed, thread) and its own shape
/// state, so every variant and the native run see the same stream.
struct Gen {
    rng: Rng,
    live: Vec<u64>,
    offset: usize,
    issued: usize,
}

impl Gen {
    fn new(seed: u64, thread: usize) -> Self {
        Gen {
            rng: Rng::new(seed, 100 + thread as u64),
            live: Vec::new(),
            offset: 0,
            issued: 0,
        }
    }

    fn next(&mut self) -> Op {
        self.issued += 1;
        if self.issued.is_multiple_of(SYNC_EVERY + 1) {
            return Op::Sync;
        }
        let r = self.rng.below(100);
        if r < 80 {
            let pick = self.rng.below(4);
            let can_map = self.live.len() < MAX_LIVE;
            if pick == 0 {
                Op::Brk
            } else if (pick == 1 && can_map) || self.live.is_empty() {
                let len = (1 + self.rng.below(16)) * 4096;
                self.live.push(len);
                Op::Mmap { len }
            } else if pick == 2 {
                Op::Mprotect {
                    slot: self.rng.below(self.live.len() as u64) as usize,
                    prot: 1 + self.rng.below(3),
                }
            } else {
                let slot = self.rng.below(self.live.len() as u64) as usize;
                self.live.swap_remove(slot);
                Op::Munmap { slot }
            }
        } else if r < 95 {
            if self.rng.below(2) == 0 {
                let len = 64 + self.rng.below(961) as usize;
                if self.offset + len > INPUT_LEN {
                    self.offset = 0;
                    return Op::Seek;
                }
                self.offset += len;
                Op::Read { len }
            } else {
                let len = 64 + self.rng.below(449) as usize;
                Op::Write {
                    payload: self.rng.bytes(len),
                }
            }
        } else if self.rng.below(2) == 0 {
            Op::Info(Sysno::Gettimeofday)
        } else {
            Op::Info(Sysno::Getpid)
        }
    }
}

fn input_file(seed: u64, thread: usize) -> Vec<u8> {
    Rng::new(seed, 200 + thread as u64).bytes(INPUT_LEN)
}

fn in_path(thread: usize) -> String {
    format!("/bench/in{thread}")
}

fn out_path(thread: usize) -> String {
    format!("/bench/out{thread}")
}

/// What one thread's pass produced.
#[derive(Default)]
struct ThreadResult {
    calls: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Per-call latency from submit to verdict, in µs.
    latency: Vec<f64>,
    submits: u64,
    inline: u64,
    spans: Vec<Span>,
}

/// An outstanding ticket and what to do with its verdict.
struct Pending {
    ticket: mvee_core::async_port::Ticket,
    started: Instant,
    /// The mapping slot an mmap result fills.
    slot: Option<usize>,
}

struct Runner<'a> {
    port: &'a dyn ThreadSyscallPort,
    kind: Kind,
    lane: Lane,
    trace: u64,
    parent: u64,
    fd_in: i32,
    fd_out: i32,
    input: &'a [u8],
    /// This variant's mapping addresses, aligned with the generator's
    /// live list (`None` until the mmap verdict is reaped).
    addrs: Vec<(Option<u64>, u64)>,
    pending: Vec<Pending>,
    read_pos: usize,
    out: ThreadResult,
}

impl Runner<'_> {
    fn fail(&mut self, what: String) {
        self.out.failed += 1;
        if self.out.first_failure.is_none() {
            self.out.first_failure = Some(what);
        }
    }

    fn settle(
        &mut self,
        op: &str,
        result: Result<SyscallOutcome, MonitorError>,
    ) -> Option<SyscallOutcome> {
        match result {
            Ok(out) if out.is_ok() => Some(out),
            Ok(out) => {
                self.fail(format!("{op} returned {:?}", out.result));
                None
            }
            Err(e) => {
                self.fail(format!("{op} failed in the monitor: {e:?}"));
                None
            }
        }
    }

    fn drain(&mut self) {
        for p in std::mem::take(&mut self.pending) {
            let result = self
                .lane
                .span("async.reap_wait", self.trace, self.parent, || {
                    self.port.reap(p.ticket)
                });
            self.out
                .latency
                .push(p.started.elapsed().as_nanos() as f64 / 1e3);
            if let Some(out) = self.settle("pipelined call", result) {
                if let Some(slot) = p.slot {
                    self.addrs[slot].0 = Some(out.raw_return() as u64);
                }
            }
        }
    }

    fn issue(&mut self, req: SyscallRequest, slot: Option<usize>) -> Option<SyscallOutcome> {
        self.out.calls += 1;
        let name = match self.kind {
            Kind::Async => "async.submit",
            Kind::Leader => "remote.issue",
            Kind::Slave => port_span(req.no),
            Kind::Native => "kernel.native",
        };
        let started = Instant::now();
        let submitted = self
            .lane
            .span(name, self.trace, self.parent, || self.port.submit(&req));
        self.out.submits += 1;
        match submitted {
            Submitted::Done(result) => {
                self.out.inline += 1;
                self.out
                    .latency
                    .push(started.elapsed().as_nanos() as f64 / 1e3);
                self.settle(req.no.name(), result)
            }
            Submitted::Pending(ticket) => {
                self.pending.push(Pending {
                    ticket,
                    started,
                    slot,
                });
                if self.pending.len() >= BATCH {
                    self.drain();
                }
                None
            }
        }
    }

    fn addr(&mut self, slot: usize) -> u64 {
        if self.addrs[slot].0.is_none() {
            self.drain();
        }
        self.addrs[slot].0.unwrap_or(0)
    }

    fn step(&mut self, op: Op) {
        match op {
            Op::Sync => {
                self.drain();
                self.lane
                    .span("agent.bracket", self.trace, self.parent, || {
                        self.port.before_sync_op(SYNC_ADDR);
                        self.port.after_sync_op(SYNC_ADDR);
                    });
            }
            Op::Brk => {
                self.issue(SyscallRequest::new(Sysno::Brk).with_int(0), None);
            }
            Op::Mmap { len } => {
                self.addrs.push((None, len));
                let slot = self.addrs.len() - 1;
                let req = SyscallRequest::new(Sysno::Mmap)
                    .with_int(len as i64)
                    .with_arg(SyscallArg::Flags(3));
                if let Some(out) = self.issue(req, Some(slot)) {
                    self.addrs[slot].0 = Some(out.raw_return() as u64);
                }
            }
            Op::Mprotect { slot, prot } => {
                let addr = self.addr(slot);
                let len = self.addrs[slot].1;
                let req = SyscallRequest::new(Sysno::Mprotect)
                    .with_arg(SyscallArg::Pointer(addr))
                    .with_int(len as i64)
                    .with_arg(SyscallArg::Flags(prot));
                self.issue(req, None);
            }
            Op::Munmap { slot } => {
                // The swap below moves the last slot; no pending mmap
                // verdict may still be addressed by its old index.
                if self.pending.iter().any(|p| p.slot.is_some()) {
                    self.drain();
                }
                let addr = self.addr(slot);
                let len = self.addrs[slot].1;
                self.addrs.swap_remove(slot);
                let req = SyscallRequest::new(Sysno::Munmap)
                    .with_arg(SyscallArg::Pointer(addr))
                    .with_int(len as i64);
                self.issue(req, None);
            }
            Op::Seek => {
                self.drain();
                self.read_pos = 0;
                let req = SyscallRequest::new(Sysno::Lseek)
                    .with_fd(self.fd_in)
                    .with_int(0);
                self.issue(req, None);
            }
            Op::Read { len } => {
                self.drain();
                let req = SyscallRequest::new(Sysno::Read)
                    .with_fd(self.fd_in)
                    .with_int(len as i64);
                let expected = &self.input[self.read_pos..self.read_pos + len];
                self.read_pos += len;
                if let Some(out) = self.issue(req, None) {
                    if out.payload != expected {
                        self.fail(format!("read of {len} bytes returned the wrong bytes"));
                    }
                }
            }
            Op::Write { payload } => {
                self.drain();
                let len = payload.len() as i64;
                let req = SyscallRequest::new(Sysno::Write)
                    .with_fd(self.fd_out)
                    .with_payload(&payload);
                if let Some(out) = self.issue(req, None) {
                    if out.raw_return() != len {
                        self.fail(format!("write of {len} bytes wrote {}", out.raw_return()));
                    }
                }
            }
            Op::Info(no) => {
                self.drain();
                self.issue(SyscallRequest::new(no), None);
            }
        }
    }
}

/// Opens the thread's files (set-up), waits at `start`, then runs one pass.
fn run_thread(
    port: &dyn ThreadSyscallPort,
    kind: Kind,
    seed: u64,
    thread: usize,
    start: &Barrier,
    lane: Lane,
    trace: u64,
) -> ThreadResult {
    let input = input_file(seed, thread);
    let open = |path: &str, flags: OpenFlags| {
        port.syscall(
            &SyscallRequest::new(Sysno::Open)
                .with_path(path)
                .with_arg(SyscallArg::Flags(flags.bits())),
        )
        .ok()
        .filter(|out| out.is_ok())
        .map_or(-1, |out| out.raw_return() as i32)
    };
    let fd_in = open(&in_path(thread), OpenFlags::READ);
    let fd_out = open(&out_path(thread), OpenFlags::WRITE.union(OpenFlags::CREATE));
    start.wait();
    let mut runner = Runner {
        port,
        kind,
        lane,
        trace,
        parent: trace,
        fd_in,
        fd_out,
        input: &input,
        addrs: Vec::new(),
        pending: Vec::new(),
        read_pos: 0,
        out: ThreadResult {
            calls: 2,
            ..Default::default()
        },
    };
    if fd_in < 0 || fd_out < 0 {
        runner.fail(format!("thread {thread} could not open its files"));
    }
    let mut gen = Gen::new(seed, thread);
    let mut calls = 0;
    while calls < CALLS {
        let op = gen.next();
        if !matches!(op, Op::Sync) {
            calls += 1;
        }
        runner.step(op);
    }
    runner.drain();
    runner.out.spans = runner.lane.take();
    runner.out
}

/// One pass's measurements.
struct Pass {
    setup: Duration,
    run: Duration,
    threads: Vec<ThreadResult>,
}

fn native_pass(seed: u64) -> Pass {
    crate::common::release_free_memory();
    let setup_start = Instant::now();
    let kernel = Arc::new(Kernel::new());
    let pid = kernel.spawn_process();
    for t in 0..THREADS {
        kernel.install_file(&in_path(t), &input_file(seed, t));
    }
    let port = NativePort::new(Arc::clone(&kernel), pid);
    let start = Arc::new(Barrier::new(THREADS + 1));
    let trace = next_id();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let port = port.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let port = port.thread_port(t);
                run_thread(&*port, Kind::Native, seed, t, &start, Lane::off(), trace)
            })
        })
        .collect();
    start.wait();
    let setup = setup_start.elapsed();
    let started = Instant::now();
    let threads = handles
        .into_iter()
        .map(|h| h.join().expect("native stream thread panicked"))
        .collect();
    Pass {
        setup,
        run: started.elapsed(),
        threads,
    }
}

fn build(mode: Mode, recorder: Option<Arc<JournalRecorder>>) -> Mvee {
    let builder = Mvee::builder()
        .variants(VARIANTS)
        .threads(THREADS)
        .agent(AgentKind::Null)
        .batch(BATCH)
        .shards(THREADS)
        .lockstep_timeout(Duration::from_secs(10));
    match mode {
        Mode::SyscallHeavy => builder
            .transport(Transport::AsyncRings {
                depth: DEFAULT_RING_DEPTH,
                pollers: Pollers::Auto,
            })
            .journal(JournalMode::Record(
                recorder.expect("syscall-heavy records a journal"),
            ))
            .snapshot_every(SNAPSHOT_EVERY)
            .recovery(RecoveryPolicy::Quarantine { min_quorum: 1 })
            .build(),
        Mode::Remote => builder
            .transport(Transport::Remote {
                channel: RemoteChannel::Unix,
            })
            .build(),
    }
}

/// What the monitor side of one protected pass reported.
struct Protected {
    pass: Pass,
    monitor: MonitorStats,
    kernel_calls: u64,
    live_slots: usize,
    live_deferred: usize,
    journal: Option<JournalFigures>,
    snapshots: (u64, u64),
    barrier: Duration,
    remote_fault: Option<String>,
    diverged: bool,
    quarantine_ok: Option<bool>,
    rss: f64,
}

struct JournalFigures {
    records: u64,
    bytes: usize,
    finish: Duration,
    replay: Duration,
    matches: bool,
}

/// The counters a journal replay re-derives.
fn replayable(s: &MonitorStats) -> [u64; 8] {
    [
        s.total_syscalls,
        s.lockstep_syscalls,
        s.replicated_syscalls,
        s.ordered_syscalls,
        s.divergences,
        s.self_aware_queries,
        s.batched_comparisons,
        s.batch_flushes,
    ]
}

fn protected_pass(mode: Mode, seed: u64, traced: bool) -> Protected {
    crate::common::release_free_memory();
    let setup_start = Instant::now();
    let recorder = (mode == Mode::SyscallHeavy).then(|| Arc::new(JournalRecorder::new()));
    let mvee = Arc::new(build(mode, recorder.clone()));
    for t in 0..THREADS {
        mvee.kernel()
            .install_file(&in_path(t), &input_file(seed, t));
    }
    let mut ports: Vec<(Box<dyn ThreadSyscallPort>, Kind, usize)> = Vec::new();
    for v in 0..VARIANTS {
        for t in 0..THREADS {
            let (port, kind): (Box<dyn ThreadSyscallPort>, Kind) = match (mode, v) {
                (Mode::SyscallHeavy, _) => (Box::new(mvee.async_thread_port(v, t)), Kind::Async),
                (Mode::Remote, 0) => (Box::new(mvee.leader_port(t)), Kind::Leader),
                (Mode::Remote, _) => (Box::new(mvee.thread_port(v, t)), Kind::Slave),
            };
            ports.push((port, kind, t));
        }
    }
    let start = Arc::new(Barrier::new(ports.len() + 1));
    let trace = next_id();
    let handles: Vec<_> = ports
        .into_iter()
        .map(|(port, kind, t)| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                run_thread(&*port, kind, seed, t, &start, Lane::new(traced), trace)
            })
        })
        .collect();
    start.wait();
    let setup = setup_start.elapsed();
    let started = Instant::now();
    let threads: Vec<ThreadResult> = handles
        .into_iter()
        .map(|h| h.join().expect("variant stream thread panicked"))
        .collect();
    let run = started.elapsed();
    let rss = rss_mb();
    let barrier_start = Instant::now();
    let barrier_ok = mvee.remote_barrier().is_ok();
    let barrier = barrier_start.elapsed();
    let monitor = mvee.monitor_stats();
    let live_slots = mvee.monitor().live_slots();
    let live_deferred = mvee.monitor().live_deferred();
    let kernel_calls = mvee.kernel().stats().syscalls_executed;
    let remote_fault = mvee
        .remote_fault()
        .map(|f| format!("{f:?}"))
        .or_else(|| (!barrier_ok).then(|| "remote barrier failed".to_string()));

    let journal = recorder.map(|recorder| {
        let finish_start = Instant::now();
        let bytes = recorder.finish();
        let finish = finish_start.elapsed();
        let replay_start = Instant::now();
        let rederived = Journal::decode(&bytes).ok().and_then(|journal| {
            Mvee::builder()
                .variants(VARIANTS)
                .threads(THREADS)
                .agent(AgentKind::Null)
                .journal(JournalMode::Replay(Arc::new(journal)))
                .build()
                .replay_recorded()
                .and_then(Result::ok)
        });
        let replay = replay_start.elapsed();
        JournalFigures {
            records: recorder.records(),
            bytes: bytes.len(),
            finish,
            replay,
            matches: rederived.is_some_and(|run| replayable(&run.stats) == replayable(&monitor)),
        }
    });
    let snapshots = mvee.snapshot_store().map_or((0, 0), |store| {
        let taken = (0..VARIANTS).map(|v| store.taken(v)).sum();
        let bytes = (0..VARIANTS)
            .filter_map(|v| store.latest(v))
            .map(|s| s.encode().len() as u64)
            .sum();
        (taken, bytes)
    });
    let diverged = mvee.divergence().is_some();
    let quarantine_ok = (mode == Mode::SyscallHeavy).then(|| staged_quarantine(&mvee));
    Protected {
        pass: Pass {
            setup,
            run,
            threads,
        },
        monitor,
        kernel_calls,
        live_slots,
        live_deferred,
        journal,
        snapshots,
        barrier,
        remote_fault,
        diverged,
        quarantine_ok,
        rss,
    }
}

/// After the timed pass: variant 1 issues a compare-only call whose
/// argument differs from variant 0's.  Quarantine must drop variant 1,
/// blame it in the report, and let variant 0 carry on.
fn staged_quarantine(mvee: &Arc<Mvee>) -> bool {
    let handles: Vec<_> = (0..VARIANTS)
        .map(|v| {
            let mvee = Arc::clone(mvee);
            std::thread::spawn(move || {
                let port = mvee.async_thread_port(v, 0);
                let len = if v == 1 { 2 } else { 1 };
                let req = SyscallRequest::new(Sysno::Madvise).with_int(len);
                let submitted = match port.submit(&req) {
                    mvee_core::SubmitOutcome::Completed(r) => r.map(|_| ()),
                    mvee_core::SubmitOutcome::Ticket(t) => port.reap(t).map(|_| ()),
                };
                submitted.and_then(|()| port.flush()).is_ok()
            })
        })
        .collect();
    let oks: Vec<bool> = handles
        .into_iter()
        .map(|h| h.join().expect("staged divergence thread panicked"))
        .collect();
    let reports = mvee.quarantine_reports();
    // The victim's own flush may come back Ok when the survivor arrives
    // last and sweeps it out of the slot; only the verdict is gated.
    oks[0]
        && mvee.quarantined_variants() == vec![1]
        && reports.len() == 1
        && reports[0].variant == 1
        && mvee.divergence().is_none()
}

/// The detection-lag probe: the leader issues a compare-only call that
/// differs from the slave's, then `LAG_SYNC_OPS` sync ops, then one
/// replicated call whose `Enter` frame marks the end of its stream.  The
/// slave deposits its side only once the follower has ingested that
/// marker, so the verdict lands exactly `LAG_SYNC_OPS` leader sync ops
/// after the mismatching record.  Returns (detected, lag, fault).
pub fn detection_lag() -> (bool, u64, Option<String>) {
    let mvee = Arc::new(build(Mode::Remote, None));
    let leader = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.leader_port(0);
            let _ = port.syscall(&SyscallRequest::new(Sysno::Madvise).with_int(1));
            for _ in 0..LAG_SYNC_OPS {
                port.sync_op(SYNC_ADDR, || ());
            }
            let _ = port.syscall(&SyscallRequest::new(Sysno::Getpid));
        })
    };
    let slave = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.thread_port(1, 0);
            let _ = port.syscall(&SyscallRequest::new(Sysno::Madvise).with_int(2));
            // One slave call plus the leader's two.
            let deadline = Instant::now() + Duration::from_secs(10);
            while mvee.monitor_stats().total_syscalls < 3 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let _ = port.flush();
        })
    };
    leader.join().expect("lag probe leader panicked");
    slave.join().expect("lag probe slave panicked");
    let deadline = Instant::now() + Duration::from_secs(10);
    while mvee.monitor_stats().detection_lag_sync_ops == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let fault = mvee.remote_fault().map(|f| format!("{f:?}"));
    let detected = mvee.divergence().is_some_and(|r| r.variant == 1);
    (detected, mvee.monitor_stats().detection_lag_sync_ops, fault)
}

pub fn run(mode: Mode, seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Trace {
    let name = match mode {
        Mode::SyscallHeavy => "syscall-heavy",
        Mode::Remote => "remote",
    };
    let mut trace = Trace::default();
    // Warm-up pair, unmeasured.
    let _ = native_pass(seed);
    let _ = protected_pass(mode, seed, false);

    let mut native_runs = Samples::default();
    let mut runs = Samples::default();
    let mut traced_runs = Samples::default();
    let mut setups = Samples::default();
    let mut rates = Samples::default();
    let mut rss = Samples::default();
    let mut latency = UnitQuantiles::default();
    let mut monitors = Vec::new();
    let mut kernel_calls = Samples::default();
    let (mut live_slots, mut live_deferred) = (0usize, 0usize);
    let mut journals = Vec::new();
    let mut snapshots = Vec::new();
    let mut barriers = Samples::default();
    let (mut submits, mut inline) = (0u64, 0u64);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while round < 3 || Instant::now() < deadline {
        round += 1;
        let n = native_pass(seed);
        native_runs.push(n.run.as_secs_f64());
        let mut passes = vec![(protected_pass(mode, seed, false), false)];
        if traced {
            passes.push((protected_pass(mode, seed, true), true));
        }
        for (p, is_traced) in passes {
            let issued: u64 = p.pass.threads.iter().map(|t| t.calls).sum();
            let bad: u64 = p.pass.threads.iter().map(|t| t.failed).sum();
            let why = p.pass.threads.iter().find_map(|t| t.first_failure.clone());
            report.gate_many(issued, bad, || {
                format!("{name}: {}", why.unwrap_or_default())
            });
            report.gate(p.monitor.total_syscalls == issued && !p.diverged, || {
                format!(
                    "{name}: monitor counted {} calls for {issued} issued (diverged: {})",
                    p.monitor.total_syscalls, p.diverged
                )
            });
            if let Some(j) = &p.journal {
                report.gate(j.matches, || {
                    format!("{name}: journal replay disagrees with live stats")
                });
            }
            if let Some(ok) = p.quarantine_ok {
                report.gate(ok, || {
                    format!("{name}: staged divergence not quarantined on variant 1")
                });
            }
            if mode == Mode::Remote {
                let fault = p.remote_fault.clone();
                report.gate(fault.is_none(), || {
                    format!("{name}: peer failure {fault:?}")
                });
            }
            live_slots = live_slots.max(p.live_slots);
            live_deferred = live_deferred.max(p.live_deferred);
            if is_traced {
                traced_runs.push(p.pass.run.as_secs_f64());
                monitors.push(p.monitor);
                kernel_calls.push(p.kernel_calls as f64);
                if let Some(j) = p.journal {
                    journals.push(j);
                }
                snapshots.push(p.snapshots);
                barriers.push(p.barrier.as_secs_f64() * 1e3);
                for t in p.pass.threads {
                    submits += t.submits;
                    inline += t.inline;
                    trace.absorb(t.spans);
                }
                continue;
            }
            runs.push(p.pass.run.as_secs_f64());
            rss.push(p.rss);
            setups.push(p.pass.setup.as_secs_f64());
            rates.push(issued as f64 / p.pass.run.as_secs_f64());
            let mut unit = Samples::default();
            for t in &p.pass.threads {
                for v in &t.latency {
                    unit.push(*v);
                }
            }
            latency.add(&unit);
        }
    }

    let (detected, lag, fault) = if mode == Mode::Remote {
        detection_lag()
    } else {
        (true, 0, None)
    };
    report.gate(detected && fault.is_none(), || {
        format!("{name}: staged mismatch not detected (fault {fault:?})")
    });

    let units = runs.len();
    if !traced {
        report.e2e("setup_s", setups.median(), setups.len());
        report.e2e("run_s", runs.median(), units);
        report.e2e("slowdown", runs.median() / native_runs.median(), units);
        report.e2e("calls_per_s", rates.median(), units);
        latency.report(report, false);
        report.e2e("peak_rss_mb", rss.median(), rss.len());
        report.notes.push(format!(
            "{name}: {VARIANTS} variants x {THREADS} threads x {CALLS} calls per pass, native median {:.4} s over {} passes; lat = per monitored call, submit to verdict",
            native_runs.median(),
            native_runs.len()
        ));
        if mode == Mode::Remote {
            report
                .notes
                .push(format!("{name}: detection lag {lag} leader sync ops"));
        }
        return trace;
    }
    latency.report(report, true);
    crate::layers::monitor(report, &monitors, live_slots, live_deferred);
    crate::layers::port_spans(report, &trace);
    report.layer(
        "kernel.syscalls_executed",
        kernel_calls.mean(),
        kernel_calls.len(),
    );
    let n = journals.len().max(1) as f64;
    if !journals.is_empty() {
        let records = journals.iter().map(|j| j.records as f64).sum::<f64>() / n;
        let bytes = journals.iter().map(|j| j.bytes as f64).sum::<f64>() / n;
        let calls = monitors
            .iter()
            .map(|m| m.total_syscalls as f64)
            .sum::<f64>()
            / n;
        report.layer("journal.records", records, journals.len());
        report.layer("journal.bytes", bytes, journals.len());
        report.layer("journal.bytes_per_call", bytes / calls, journals.len());
        let mut finish = Samples::default();
        let mut replay = Samples::default();
        for j in &journals {
            finish.push(j.finish.as_secs_f64() * 1e3);
            replay.push(j.replay.as_secs_f64() * 1e3);
        }
        report.layer("journal.finish_ms", finish.median(), finish.len());
        report.layer("journal.replay_ms", replay.median(), replay.len());
    }
    if mode == Mode::SyscallHeavy {
        let k = snapshots.len().max(1) as f64;
        report.layer(
            "snapshot.taken",
            snapshots.iter().map(|s| s.0 as f64).sum::<f64>() / k,
            snapshots.len(),
        );
        report.layer(
            "snapshot.bytes",
            snapshots.iter().map(|s| s.1 as f64).sum::<f64>() / k,
            snapshots.len(),
        );
        let submit = trace.durations("async.submit");
        let reap = trace.durations("async.reap_wait");
        report.layer("async.submit_ns_p50", submit.median(), submit.len());
        report.layer("async.reap_wait_ns_p50", reap.median(), reap.len());
        report.layer("async.reap_wait_ns_p99", reap.quantile(0.99), reap.len());
        report.layer(
            "async.inline_ratio",
            inline as f64 / submits.max(1) as f64,
            submits as usize,
        );
    }
    if mode == Mode::Remote {
        let issue = trace.durations("remote.issue");
        report.layer("remote.issue_ns_p50", issue.median(), issue.len());
        report.layer("remote.issue_ns_p99", issue.quantile(0.99), issue.len());
        report.layer("remote.barrier_ms", barriers.median(), barriers.len());
        report.layer("detect_lag_ops", lag as f64, 1);
    }
    report.layer(
        "trace.overhead",
        traced_runs.median() / runs.median(),
        traced_runs.len(),
    );
    trace
}

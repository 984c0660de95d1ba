//! `serve`: an open-loop request load from one generator thread into a
//! two-variant static-file server.
//!
//! Each variant runs a listener thread and a worker thread on the
//! synchronous transport with the wall-of-clocks agent.  Per request the
//! server makes a replicated accept, recv, open, send, sendfile and two
//! closes, and takes an instrumented stats lock as a sync op.  The client
//! connects, sends and receives through `Kernel::execute` on its own,
//! unmonitored process.
//!
//! The emulated kernel has no blocking accept, so each listener waits
//! outside the monitor on a per-variant readiness count the generator posts
//! after a request is sent; every request therefore costs the same
//! monitored call sequence.  (The workloads crate's nginx model paces its
//! idle loops with sleeps instead and was not used; see `DESIGN.md`.)

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvee_core::mvee::Mvee;
use mvee_core::port::ThreadPort;
use mvee_core::{MonitorStats, MveeConfig};
use mvee_kernel::kernel::Kernel;
use mvee_kernel::process::Pid;
use mvee_kernel::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use mvee_kernel::vfs::OpenFlags;
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::AgentStats;

use crate::common::{rss_mb, Report, Rng, Samples, UnitQuantiles};
use crate::probe::port_span;
use crate::trace::{next_id, now_ns, Lane, Span, Trace};

pub const VARIANTS: usize = 2;
/// The fixed offered rate of the open-loop phase, requests per second.
pub const RATE: f64 = 800.0;
/// The p99 latency limit the rate ladder holds each step to, in µs.
pub const LIMIT_US: f64 = 20_000.0;
/// The rate ladder: `LADDER_BASE * 1.1^k` requests per second.
pub const LADDER_BASE: f64 = 2000.0;
pub const LADDER_STEPS: usize = 24;
/// Seconds of offered load per ladder step.
pub const LADDER_STEP_S: f64 = 0.4;
/// Seconds of offered load per fixed-rate segment; each segment is one
/// latency unit (its p50 and p99 are taken, then the median over segments).
pub const SEGMENT_S: f64 = 1.0;
/// Burst pairs run after each fixed-rate segment.
pub const BURSTS_PER_ROUND: usize = 4;
/// Requests per closed burst (the `run_s` / `slowdown` unit).
pub const BURST: usize = 192;
/// A run whose generator sent its p99 request later than this behind
/// schedule is invalid.
pub const LATE_BOUND_US: f64 = 20_000.0;
/// The latency recorded for a request that failed or went unanswered: it
/// misses every limit.
const MISSED_US: f64 = 1e12;
const PORT: i64 = 8080;
const PAGES: usize = 16;
const STATS_ADDR: u64 = 0x7f10_0000_2000;

/// The site: one page of each size `256 + 1024 k` bytes (`k < PAGES`),
/// with the seed choosing which page gets which size and the contents, so
/// every seed's site holds the same bytes.
pub struct Site {
    pages: Vec<(String, Vec<u8>)>,
}

impl Site {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 300);
        let mut sizes: Vec<usize> = (0..PAGES).map(|k| 256 + 1024 * k).collect();
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let pages = sizes
            .into_iter()
            .enumerate()
            .map(|(k, len)| (format!("/www/p{k}.html"), rng.bytes(len)))
            .collect();
        Site { pages }
    }

    fn header(&self, k: usize) -> Vec<u8> {
        format!(
            "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n",
            self.pages[k].1.len()
        )
        .into_bytes()
    }

    fn response(&self, k: usize) -> Vec<u8> {
        let mut out = self.header(k);
        out.extend_from_slice(&self.pages[k].1);
        out
    }
}

/// One request of a schedule: when it is due (s after the phase start),
/// which page it asks for and how much padding its request carries.
#[derive(Clone, Copy)]
struct Request {
    due: f64,
    page: usize,
    pad: usize,
}

fn poisson(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<Request> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / rate);
        if t >= seconds {
            return out;
        }
        out.push(Request {
            due: t,
            page: rng.below(PAGES as u64) as usize,
            pad: 16 + rng.below(1024) as usize,
        });
    }
}

fn burst(rng: &mut Rng) -> Vec<Request> {
    (0..BURST)
        .map(|_| Request {
            due: 0.0,
            page: rng.below(PAGES as u64) as usize,
            pad: 16 + rng.below(1024) as usize,
        })
        .collect()
}

/// The per-variant readiness count the generator posts and the listener
/// consumes: the stand-in for a blocking accept.
#[derive(Default)]
struct Ready {
    state: Mutex<(u64, bool)>,
    cv: Condvar,
}

impl Ready {
    fn post(&self) {
        self.state.lock().expect("readiness lock poisoned").0 += 1;
        self.cv.notify_one();
    }

    fn stop(&self) {
        self.state.lock().expect("readiness lock poisoned").1 = true;
        self.cv.notify_all();
    }

    /// Waits until request `consumed` is posted; false once stopped with
    /// nothing left.
    fn wait(&self, consumed: u64) -> bool {
        let mut state = self.state.lock().expect("readiness lock poisoned");
        while state.0 <= consumed && !state.1 {
            state = self.cv.wait(state).expect("readiness lock poisoned");
        }
        state.0 > consumed
    }
}

enum Gate {
    Monitored(ThreadPort),
    Native {
        kernel: Arc<Kernel>,
        pid: Pid,
        tid: u64,
    },
}

/// A server thread's handle on its gate, with its span lane.
struct Ctx {
    gate: Gate,
    variant: usize,
    lane: Lane,
}

impl Ctx {
    fn call(&self, req: &SyscallRequest, rid: u64) -> Result<SyscallOutcome, String> {
        let (name, parent) = match &self.gate {
            Gate::Monitored(_) => (port_span(req.no), if self.variant == 0 { rid } else { 0 }),
            Gate::Native { .. } => ("kernel.native", rid),
        };
        let out = self.lane.span(name, rid, parent, || match &self.gate {
            Gate::Monitored(port) => port.syscall(req).map_err(|e| format!("{e:?}")),
            Gate::Native { kernel, pid, tid } => Ok(kernel.execute(*pid, *tid, req)),
        })?;
        if out.is_ok() {
            Ok(out)
        } else {
            Err(format!("{} returned {:?}", req.no.name(), out.result))
        }
    }

    fn stats_lock(&self, stats: &Mutex<u64>, rid: u64) {
        let parent = if self.variant == 0 { rid } else { 0 };
        self.lane.span("agent.bracket", rid, parent, || {
            let bump = || *stats.lock().expect("stats lock poisoned") += 1;
            match &self.gate {
                Gate::Monitored(port) => port.sync_op(STATS_ADDR, bump),
                Gate::Native { .. } => bump(),
            }
        });
    }
}

struct Done {
    rid: u64,
    ok: bool,
}

struct Job {
    fd: i32,
    rid: u64,
}

/// What a server thread hands back when it exits.
struct ThreadOut {
    errors: Vec<String>,
    spans: Vec<Span>,
    brackets: Samples,
}

struct Server {
    kernel: Arc<Kernel>,
    client: Pid,
    mvee: Option<Arc<Mvee>>,
    ready: Vec<Arc<Ready>>,
    /// Request ids in accept order, shared with the listeners.
    ids: Arc<Mutex<Vec<u64>>>,
    done: Receiver<Done>,
    threads: Vec<JoinHandle<ThreadOut>>,
    setup: Duration,
    calls_at_start: u64,
    /// Each variant's stats counter (the memory its stats lock guards).
    stats: Vec<Arc<Mutex<u64>>>,
}

/// Counters a stopped server reports.
#[derive(Default)]
struct ServerOut {
    errors: Vec<String>,
    spans: Vec<Span>,
    brackets: Samples,
    kernel_calls: u64,
    monitor: Option<MonitorStats>,
    agent: Option<AgentStats>,
    calls: u64,
    live_slots: usize,
    live_deferred: usize,
    diverged: bool,
    stats_agree: bool,
}

fn listener(
    ctx: Ctx,
    ready: Arc<Ready>,
    ids: Arc<Mutex<Vec<u64>>>,
    jobs: Sender<Job>,
    up: Arc<Barrier>,
) -> ThreadOut {
    let mut errors = Vec::new();
    let setup = || -> Result<i32, String> {
        let fd = ctx
            .call(&SyscallRequest::new(Sysno::Socket), 0)?
            .raw_return() as i32;
        ctx.call(
            &SyscallRequest::new(Sysno::Bind).with_fd(fd).with_int(PORT),
            0,
        )?;
        ctx.call(&SyscallRequest::new(Sysno::Listen).with_fd(fd), 0)?;
        Ok(fd)
    };
    let lfd = setup().unwrap_or_else(|e| {
        errors.push(format!("listener set-up: {e}"));
        -1
    });
    up.wait();
    let mut consumed = 0u64;
    while ready.wait(consumed) {
        let rid = ids.lock().expect("id table poisoned")[consumed as usize];
        consumed += 1;
        let fd = match ctx.call(&SyscallRequest::new(Sysno::Accept).with_fd(lfd), rid) {
            Ok(out) => out.raw_return() as i32,
            Err(e) => {
                errors.push(format!("accept: {e}"));
                -1
            }
        };
        if jobs.send(Job { fd, rid }).is_err() {
            break;
        }
    }
    ThreadOut {
        errors,
        spans: ctx.lane.take(),
        brackets: Samples::default(),
    }
}

fn serve_one(ctx: &Ctx, site: &Site, job: &Job) -> Result<(), String> {
    if job.fd < 0 {
        return Err("no connection".into());
    }
    let rid = job.rid;
    let request = ctx.call(
        &SyscallRequest::new(Sysno::Recv)
            .with_fd(job.fd)
            .with_int(4096),
        rid,
    )?;
    let text = String::from_utf8_lossy(&request.payload);
    let page = text
        .strip_prefix("GET /p")
        .and_then(|rest| rest.split_once(".html"))
        .and_then(|(k, _)| k.parse::<usize>().ok())
        .filter(|k| *k < PAGES)
        .ok_or_else(|| format!("bad request {:?}", text.lines().next()))?;
    let (path, body) = &site.pages[page];
    let file = ctx
        .call(
            &SyscallRequest::new(Sysno::Open)
                .with_path(path)
                .with_arg(SyscallArg::Flags(OpenFlags::READ.bits())),
            rid,
        )?
        .raw_return() as i32;
    let header = site.header(page);
    let sent = ctx.call(
        &SyscallRequest::new(Sysno::Send)
            .with_fd(job.fd)
            .with_payload(&header),
        rid,
    )?;
    let copied = ctx.call(
        &SyscallRequest::new(Sysno::Sendfile)
            .with_fd(job.fd)
            .with_fd(file)
            .with_int(body.len() as i64),
        rid,
    )?;
    ctx.call(&SyscallRequest::new(Sysno::Close).with_fd(file), rid)?;
    ctx.call(&SyscallRequest::new(Sysno::Close).with_fd(job.fd), rid)?;
    if sent.raw_return() != header.len() as i64 || copied.raw_return() != body.len() as i64 {
        return Err("short send".into());
    }
    Ok(())
}

fn worker(
    ctx: Ctx,
    site: Arc<Site>,
    jobs: Receiver<Job>,
    done: Option<Sender<Done>>,
    stats: Arc<Mutex<u64>>,
) -> ThreadOut {
    let mut errors = Vec::new();
    let mut brackets = Samples::default();
    for job in jobs {
        let result = serve_one(&ctx, &site, &job);
        let start = Instant::now();
        ctx.stats_lock(&stats, job.rid);
        brackets.push(start.elapsed().as_nanos() as f64);
        if let Err(e) = &result {
            if errors.len() < 8 {
                errors.push(format!("request {}: {e}", job.rid));
            }
        }
        if let Some(done) = &done {
            let _ = done.send(Done {
                rid: job.rid,
                ok: result.is_ok(),
            });
        }
    }
    ThreadOut {
        errors,
        spans: ctx.lane.take(),
        brackets,
    }
}

fn config() -> MveeConfig {
    MveeConfig::default()
        .with_agent(AgentKind::WallOfClocks)
        .with_lockstep_timeout(Duration::from_secs(10))
}

impl Server {
    /// Builds the server (two monitored variants, or one native process),
    /// installs the site and waits until every listener is listening.
    fn start(site: &Arc<Site>, protected: bool, traced: bool) -> Server {
        crate::common::release_free_memory();
        let setup_start = Instant::now();
        let (kernel, mvee, variants) = if protected {
            let mvee = Arc::new(
                Mvee::builder()
                    .variants(VARIANTS)
                    .threads(2)
                    .config(config())
                    .build(),
            );
            (Arc::clone(mvee.kernel()), Some(mvee), VARIANTS)
        } else {
            (Arc::new(Kernel::new()), None, 1)
        };
        for (path, body) in &site.pages {
            kernel.install_file(path, body);
        }
        let native_pid = (!protected).then(|| kernel.spawn_process());
        let client = kernel.spawn_process();
        let ids = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done) = channel();
        let up = Arc::new(Barrier::new(variants + 1));
        let mut ready = Vec::new();
        let mut threads = Vec::new();
        let mut stats = Vec::new();
        for v in 0..variants {
            let gate = |t: usize| match (&mvee, native_pid) {
                (Some(mvee), _) => Gate::Monitored(mvee.thread_port(v, t)),
                (None, Some(pid)) => Gate::Native {
                    kernel: Arc::clone(&kernel),
                    pid,
                    tid: t as u64,
                },
                (None, None) => unreachable!("a native server has a process"),
            };
            let r = Arc::new(Ready::default());
            ready.push(Arc::clone(&r));
            let (job_tx, job_rx) = channel();
            let lctx = Ctx {
                gate: gate(0),
                variant: v,
                lane: Lane::new(traced),
            };
            let wctx = Ctx {
                gate: gate(1),
                variant: v,
                lane: Lane::new(traced),
            };
            let (ids, up) = (Arc::clone(&ids), Arc::clone(&up));
            threads.push(std::thread::spawn(move || {
                listener(lctx, r, ids, job_tx, up)
            }));
            let counter = Arc::new(Mutex::new(0u64));
            stats.push(Arc::clone(&counter));
            let done = (v == 0).then(|| done_tx.clone());
            let site = Arc::clone(site);
            threads.push(std::thread::spawn(move || {
                worker(wctx, site, job_rx, done, counter)
            }));
        }
        up.wait();
        let calls_at_start = mvee
            .as_ref()
            .map_or(0, |m| m.monitor_stats().total_syscalls);
        Server {
            kernel,
            client,
            mvee,
            ready,
            ids,
            done,
            threads,
            setup: setup_start.elapsed(),
            calls_at_start,
            stats,
        }
    }

    fn exec(
        &self,
        req: &SyscallRequest,
        lane: &Lane,
        rid: u64,
        exec_ns: &mut Samples,
    ) -> SyscallOutcome {
        let start = Instant::now();
        let out = lane.span("kernel.client_exec", rid, rid, || {
            self.kernel.execute(self.client, 0, req)
        });
        exec_ns.push(start.elapsed().as_nanos() as f64);
        out
    }

    fn stop(self) -> ServerOut {
        for r in &self.ready {
            r.stop();
        }
        let mut out = ServerOut::default();
        for h in self.threads {
            let t = h.join().expect("server thread panicked");
            out.errors.extend(t.errors);
            out.spans.extend(t.spans);
            out.brackets.extend(&t.brackets);
        }
        out.kernel_calls = self.kernel.stats().syscalls_executed;
        let counts: Vec<u64> = self
            .stats
            .iter()
            .map(|c| *c.lock().expect("stats lock poisoned"))
            .collect();
        out.stats_agree = counts.windows(2).all(|w| w[0] == w[1]);
        if let Some(mvee) = &self.mvee {
            let monitor = mvee.monitor_stats();
            out.calls = monitor.total_syscalls - self.calls_at_start;
            out.monitor = Some(monitor);
            out.agent = Some(mvee.agent_stats());
            out.live_slots = mvee.monitor().live_slots();
            out.live_deferred = mvee.monitor().live_deferred();
            out.diverged = mvee.divergence().is_some();
        }
        out
    }
}

/// What the generator saw in one phase.
#[derive(Default)]
struct Phase {
    /// Latency per request, µs (`MISSED_US` for a failed one).
    latency: Samples,
    late: Samples,
    exec_ns: Samples,
    issued: u64,
    completed: u64,
    failed: u64,
    /// First due time to last completion, s.
    span_s: f64,
    /// Requests whose child spans (client + variant 0) exceed their latency.
    over_budget: u64,
    roots: Vec<Span>,
    lane_spans: Vec<Span>,
    /// Largest number of requests sent but not yet answered.
    backlog_max: usize,
}

struct Inflight {
    due_ns: u64,
    due: Instant,
    fd: i32,
    page: usize,
}

/// Runs one open-loop phase against `server`: sends each request when it
/// is due, answers completions in between, and verifies every response
/// byte for byte.
fn drive(server: &Server, site: &Site, schedule: &[Request], traced: bool) -> Phase {
    let lane = Lane::new(traced);
    let mut phase = Phase::default();
    let mut inflight: std::collections::HashMap<u64, Inflight> = std::collections::HashMap::new();
    let base = next_id() << 24;
    let t0 = Instant::now() + Duration::from_millis(2);
    let t0_ns = now_ns() + 2_000_000;
    let last_due = schedule.last().map_or(0.0, |r| r.due);
    let grace = Duration::from_secs_f64(last_due) + Duration::from_secs(5);
    let mut next = 0usize;
    let mut last_done = t0;
    loop {
        let now = Instant::now();
        if next < schedule.len() {
            let req = schedule[next];
            let due = t0 + Duration::from_secs_f64(req.due);
            if now >= due {
                let rid = base + next as u64;
                phase.late.push_duration_us(now - due);
                let mut exec = |r: &SyscallRequest| server.exec(r, &lane, rid, &mut phase.exec_ns);
                let fd = exec(&SyscallRequest::new(Sysno::Socket)).raw_return() as i32;
                exec(
                    &SyscallRequest::new(Sysno::Connect)
                        .with_fd(fd)
                        .with_int(PORT),
                );
                let text = format!(
                    "GET /p{}.html HTTP/1.0\r\nX-Pad: {}\r\n\r\n",
                    req.page,
                    "x".repeat(req.pad)
                );
                exec(
                    &SyscallRequest::new(Sysno::Send)
                        .with_fd(fd)
                        .with_payload(text.as_bytes()),
                );
                server.ids.lock().expect("id table poisoned").push(rid);
                for r in &server.ready {
                    r.post();
                }
                inflight.insert(
                    rid,
                    Inflight {
                        due_ns: t0_ns + (req.due * 1e9) as u64,
                        due,
                        fd,
                        page: req.page,
                    },
                );
                phase.issued += 1;
                phase.backlog_max = phase.backlog_max.max(inflight.len());
                next += 1;
                continue;
            }
        } else if inflight.is_empty() {
            break;
        }
        let wait = if next < schedule.len() {
            (t0 + Duration::from_secs_f64(schedule[next].due)).saturating_duration_since(now)
        } else {
            (t0 + grace).saturating_duration_since(now)
        };
        match server.done.recv_timeout(wait) {
            Ok(Done { rid, ok }) => {
                let Some(req) = inflight.remove(&rid) else {
                    continue;
                };
                let mut exec = |r: &SyscallRequest| server.exec(r, &lane, rid, &mut phase.exec_ns);
                let expected = site.response(req.page);
                let mut got = Vec::new();
                for _ in 0..4 {
                    let out = exec(
                        &SyscallRequest::new(Sysno::Recv)
                            .with_fd(req.fd)
                            .with_int(1 << 16),
                    );
                    if !out.is_ok() || out.payload.is_empty() {
                        break;
                    }
                    got.extend_from_slice(&out.payload);
                    if got.len() >= expected.len() {
                        break;
                    }
                }
                exec(&SyscallRequest::new(Sysno::Close).with_fd(req.fd));
                let end = Instant::now();
                last_done = end;
                let latency = if ok && got == expected {
                    phase.completed += 1;
                    (end - req.due).as_nanos() as f64 / 1e3
                } else {
                    phase.failed += 1;
                    MISSED_US
                };
                phase.latency.push(latency);
                if traced {
                    phase.roots.push(Span {
                        name: "request",
                        trace: rid,
                        id: rid,
                        parent: 0,
                        start: req.due_ns,
                        end: now_ns(),
                    });
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if next >= schedule.len() && Instant::now() >= t0 + grace {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    phase.failed += inflight.len() as u64;
    for _ in 0..inflight.len() {
        phase.latency.push(MISSED_US);
    }
    phase.span_s = last_done.saturating_duration_since(t0).as_secs_f64();
    phase.lane_spans = lane.take();
    phase
}

/// Checks that no request's direct children (client calls and variant 0's
/// calls, which run one after another) cover more than its latency.
fn reconcile(phase: &mut Phase, server_spans: &[Span]) {
    let mut sums: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in phase.lane_spans.iter().chain(server_spans) {
        if s.parent != 0 {
            *sums.entry(s.parent).or_default() += s.ns();
        }
    }
    phase.over_budget = phase
        .roots
        .iter()
        .filter(|r| sums.get(&r.id).copied().unwrap_or(0) > r.ns())
        .count() as u64;
}

/// One server instance driven through one schedule.
struct Outcome {
    phase: Phase,
    server: ServerOut,
    setup: Duration,
    /// Resident set before the server is torn down, MiB.
    rss: f64,
}

fn run_phase(site: &Arc<Site>, protected: bool, traced: bool, schedule: &[Request]) -> Outcome {
    let server = Server::start(site, protected, traced);
    let setup = server.setup;
    let mut phase = drive(&server, site, schedule, traced);
    let rss = rss_mb();
    let out = server.stop();
    if traced {
        reconcile(&mut phase, &out.spans);
    }
    Outcome {
        phase,
        server: out,
        setup,
        rss,
    }
}

fn gate(report: &mut Report, label: &str, o: &Outcome) {
    let p = &o.phase;
    report.gate_many(p.issued, p.failed, || {
        format!("serve {label}: requests failed or unanswered")
    });
    report.gate(
        o.server.errors.is_empty() && !o.server.diverged && o.server.stats_agree,
        || {
            format!(
                "serve {label}: server errors {:?} (diverged {})",
                o.server.errors, o.server.diverged
            )
        },
    );
    if p.over_budget > 0 {
        report.invalid.push(format!(
            "serve {label}: {} requests' child spans exceed their latency",
            p.over_budget
        ));
    }
}

/// Whether a ladder step held the limit without a growing backlog.
fn step_passes(p: &Phase, rate: f64) -> bool {
    let backlog_bound = (rate * LIMIT_US / 1e6).ceil() as usize + 2;
    p.failed == 0 && p.latency.quantile(0.99) <= LIMIT_US && p.backlog_max <= backlog_bound
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Trace {
    let site = Arc::new(Site::new(seed));
    let mut rng = Rng::new(seed, 400);
    let mut trace = Trace::default();
    // Warm-up, unmeasured.
    let warm = burst(&mut rng);
    let _ = run_phase(&site, true, false, &warm);
    let _ = run_phase(&site, false, false, &warm);

    // Rounds until the deadline (half the run when the ladder follows):
    // a fixed-rate segment, its traced twin in a traced run, then burst
    // pairs — protected against native, or untraced against traced.
    // Interleaving spreads every metric over the whole run, so a slow
    // stretch of the host moves a few rounds, not one metric's phase.
    let deadline =
        Instant::now() + Duration::from_secs_f64(seconds * if traced { 0.5 } else { 1.0 });
    let mut latency = UnitQuantiles::default();
    let mut late = Samples::default();
    let (mut completed, mut fixed_s) = (0u64, 0.0f64);
    let mut setups = Samples::default();
    let mut runs = Samples::default();
    let mut other = Samples::default();
    let mut rates = Samples::default();
    let mut rss = Samples::default();
    let mut traced_segments: Vec<Outcome> = Vec::new();
    let mut round = 0;
    while round < 3 || Instant::now() < deadline {
        round += 1;
        let schedule = poisson(&mut rng, RATE, SEGMENT_S);
        let seg = run_phase(&site, true, false, &schedule);
        gate(report, "fixed-rate", &seg);
        latency.add(&seg.phase.latency);
        late.extend(&seg.phase.late);
        completed += seg.phase.completed;
        fixed_s += seg.phase.span_s;
        setups.push(seg.setup.as_secs_f64());
        rss.push(seg.rss);
        if traced {
            let t = run_phase(&site, true, true, &schedule);
            gate(report, "traced fixed-rate", &t);
            traced_segments.push(t);
        }
        for _ in 0..BURSTS_PER_ROUND {
            let schedule = burst(&mut rng);
            let p = run_phase(&site, true, false, &schedule);
            gate(report, "burst", &p);
            runs.push(p.phase.span_s);
            rss.push(p.rss);
            setups.push(p.setup.as_secs_f64());
            rates.push(p.server.calls as f64 / p.phase.span_s);
            let q = run_phase(&site, traced, traced, &schedule);
            let label = if traced {
                "traced burst"
            } else {
                "native burst"
            };
            gate(report, label, &q);
            other.push(q.phase.span_s);
        }
    }
    let late_p99 = late.quantile(0.99);
    if late_p99 > LATE_BOUND_US {
        report.invalid.push(format!(
            "serve: generator p99 lateness {late_p99:.0} us exceeds its {LATE_BOUND_US} us bound"
        ));
    }

    if !traced {
        report.e2e("setup_s", setups.median(), setups.len());
        report.e2e("run_s", runs.median(), runs.len());
        report.e2e("slowdown", runs.median() / other.median(), runs.len());
        report.e2e("calls_per_s", rates.median(), rates.len());
        latency.report(report, false);
        report.e2e("peak_rss_mb", rss.median(), rss.len());
        report.notes.push(format!(
            "serve: {round} rounds of a {SEGMENT_S} s segment at {RATE} req/s (Poisson, {completed} requests answered) and {BURSTS_PER_ROUND} burst pairs of {BURST}: protected {:.4} s, native {:.4} s median; generator p99 late {late_p99:.1} us",
            runs.median(),
            other.median(),
        ));
        return trace;
    }

    // Rate ladder: the highest step whose p99 holds the limit.
    let ladder_deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let step_s = LADDER_STEP_S;
    let mut max_rate = LADDER_BASE / 1.1;
    let mut steps = 0;
    for k in 0..LADDER_STEPS {
        if Instant::now() >= ladder_deadline && steps > 0 {
            report.notes.push(format!(
                "serve: ladder cut by the time budget after {steps} steps"
            ));
            break;
        }
        let rate = LADDER_BASE * 1.1f64.powi(k as i32);
        // A step gets a second attempt, so that one scheduling stall does
        // not end the ladder on its own.
        let mut ok = false;
        let mut o = None;
        for _ in 0..2 {
            let schedule = poisson(&mut rng, rate, step_s);
            let attempt = run_phase(&site, true, false, &schedule);
            gate(report, "ladder", &attempt);
            ok = step_passes(&attempt.phase, rate);
            o = Some(attempt);
            if ok {
                break;
            }
        }
        let o = o.expect("every step makes an attempt");
        steps += 1;
        report.notes.push(format!(
            "serve: ladder {rate:.0} req/s: p99 {:.0} us, backlog max {}, failed {} -> {}",
            o.phase.latency.quantile(0.99),
            o.phase.backlog_max,
            o.phase.failed,
            if ok { "pass" } else { "fail" }
        ));
        if !ok {
            break;
        }
        max_rate = rate;
    }

    let mut agents = Vec::new();
    let mut monitors = Vec::new();
    let mut brackets = Samples::default();
    let mut exec_ns = Samples::default();
    let (mut live_slots, mut live_deferred) = (0, 0);
    let (mut requests, mut calls, mut kernel_calls) = (0u64, 0u64, 0u64);
    for t in traced_segments {
        agents.extend(t.server.agent);
        monitors.extend(t.server.monitor);
        brackets.extend(&t.server.brackets);
        exec_ns.extend(&t.phase.exec_ns);
        live_slots = live_slots.max(t.server.live_slots);
        live_deferred = live_deferred.max(t.server.live_deferred);
        requests += t.phase.issued;
        calls += t.server.calls;
        kernel_calls += t.server.kernel_calls;
        trace.absorb(t.phase.roots);
        trace.absorb(t.phase.lane_spans);
        trace.absorb(t.server.spans);
    }
    let per_request = |n: u64| n as f64 / requests.max(1) as f64;
    crate::layers::agent(report, &agents, &brackets);
    crate::layers::monitor(report, &monitors, live_slots, live_deferred);
    crate::layers::port_spans(report, &trace);
    report.layer("port.calls", per_request(calls), requests as usize);
    report.layer(
        "kernel.syscalls_executed",
        per_request(kernel_calls),
        requests as usize,
    );
    report.layer(
        "kernel.client_exec_ns_p50",
        exec_ns.quantile(0.5),
        exec_ns.len(),
    );
    report.layer(
        "kernel.client_exec_ns_p99",
        exec_ns.quantile(0.99),
        exec_ns.len(),
    );
    latency.report(report, true);
    report.layer("gen.late_us_p99", late_p99, late.len());
    report.layer("served_rps", completed as f64 / fixed_s, completed as usize);
    report.layer("max_rate_rps", max_rate, steps);
    report.layer(
        "trace.overhead",
        other.median() / runs.median(),
        other.len(),
    );
    trace
}

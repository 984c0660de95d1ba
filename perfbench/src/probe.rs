//! A [`ThreadSyscallPort`] wrapper that observes the calls the program
//! makes into a port from outside: it keeps every console write (the
//! output the correctness gates compare), times a sample of sync-op
//! brackets, and in a traced run records a span per call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use mvee_core::async_port::Ticket;
use mvee_core::monitor::MonitorError;
use mvee_core::policy::MonitoringPolicy;
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};
use mvee_variant::port::{Submitted, ThreadSyscallPort};

use crate::trace::Lane;

/// One in `BRACKET_SAMPLE` sync-op brackets is timed.
pub const BRACKET_SAMPLE: u32 = 8;

/// The span name of a monitored call through a [`ThreadPort`]-like port,
/// by what the monitor does with it.
///
/// [`ThreadPort`]: mvee_core::port::ThreadPort
pub fn port_span(no: Sysno) -> &'static str {
    let d = MonitoringPolicy::default().disposition(no);
    if d.replicate {
        "port.replicated"
    } else if d.lockstep {
        "port.compare"
    } else {
        "port.local"
    }
}

pub struct Probe {
    inner: Box<dyn ThreadSyscallPort>,
    pub writes: RefCell<Vec<Vec<u8>>>,
    /// Sampled sync-op bracket durations, in ns.
    pub brackets: RefCell<Vec<u64>>,
    sync_ops: Cell<u64>,
    pub calls: Cell<u64>,
    bracket_start: Cell<Option<Instant>>,
    pub lane: Lane,
    /// The run this port's spans belong to; they are its direct children.
    run: u64,
}

impl Probe {
    pub fn new(inner: Box<dyn ThreadSyscallPort>, lane: Lane, run: u64) -> Self {
        Probe {
            inner,
            writes: RefCell::new(Vec::new()),
            brackets: RefCell::new(Vec::new()),
            sync_ops: Cell::new(0),
            calls: Cell::new(0),
            bracket_start: Cell::new(None),
            lane,
            run,
        }
    }

    fn observe(&self, req: &SyscallRequest) {
        self.calls.set(self.calls.get() + 1);
        if req.no == Sysno::Write {
            self.writes.borrow_mut().push(req.payload.clone());
        }
    }
}

impl ThreadSyscallPort for Probe {
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        self.observe(req);
        self.lane.span(port_span(req.no), self.run, self.run, || {
            self.inner.syscall(req)
        })
    }

    fn submit(&self, req: &SyscallRequest) -> Submitted {
        self.observe(req);
        self.lane.span(port_span(req.no), self.run, self.run, || {
            self.inner.submit(req)
        })
    }

    fn reap(&self, ticket: Ticket) -> Result<SyscallOutcome, MonitorError> {
        self.inner.reap(ticket)
    }

    fn before_sync_op(&self, addr: u64) {
        let n = self.sync_ops.get() + 1;
        self.sync_ops.set(n);
        if n.is_multiple_of(u64::from(BRACKET_SAMPLE)) {
            self.bracket_start.set(Some(Instant::now()));
        }
        self.inner.before_sync_op(addr);
    }

    fn after_sync_op(&self, addr: u64) {
        self.inner.after_sync_op(addr);
        if let Some(start) = self.bracket_start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            self.brackets.borrow_mut().push(ns);
            if self.lane.enabled() {
                let end = crate::trace::now_ns();
                self.lane.push(crate::trace::Span {
                    name: "agent.bracket",
                    trace: self.run,
                    id: crate::trace::next_id(),
                    parent: self.run,
                    start: end.saturating_sub(ns),
                    end,
                });
            }
        }
    }

    fn variant_index(&self) -> usize {
        self.inner.variant_index()
    }

    fn thread_index(&self) -> usize {
        self.inner.thread_index()
    }
}

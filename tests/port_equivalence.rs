//! Property tests: the [`ThreadPort`] gateway is observably equivalent
//! under every [`Placement`] policy.
//!
//! The reference run — the *index* path of the test names — drives every
//! (variant, thread) through its own `ThreadPort` under
//! [`Placement::RoundRobin`], the `thread % shards` binding derived from the
//! thread index alone.  For randomized per-thread call plans, batch sizes
//! ∈ {1, 8} and all three placement policies, a port run must produce
//! exactly the reference's observable behaviour: the same per-call
//! outcomes, the same clean/diverged verdict, the same first-mismatch slot
//! and blamed variant, and the same monitor statistics — even though real
//! OS threads race through the monitor in both runs.
//!
//! The deterministic companions pin the divergence-report equivalence for an
//! injected mid-batch mismatch and for a rendezvous timeout.

use std::sync::Arc;

use proptest::prelude::*;

use mvee::core::config::Placement;
use mvee::core::monitor::MonitorStats;
use mvee::core::mvee::Mvee;
use mvee::core::DivergenceReport;
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The reference placement every other policy must match.
const REFERENCE: Placement = Placement::RoundRobin;

/// The placement policies under test; the pinned core map binds threads 0
/// and 1 off their round-robin shards.
fn placements() -> [Placement; 3] {
    [
        Placement::RoundRobin,
        Placement::Grouped,
        Placement::pinned(vec![1, 2, 0]),
    ]
}

/// The call an op tag stands for.  All tags are benign (identical across
/// variants); the divergence scenarios inject their mismatch explicitly.
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        // Deferrable compare-only address-space calls.
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        // A replicated call: a synchronous flush point.
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        // Neither compared nor replicated nor ordered.
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

fn build_mvee(variants: usize, threads: usize, batch: usize, placement: &Placement) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .placement(placement.clone())
        .shards(4)
        .lockstep_timeout(std::time::Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// Runs `plan` (one op-tag vector per logical thread, identical in every
/// variant) through a fresh MVEE on real OS threads, one port per
/// (variant, thread).  Returns the per-(variant, thread) success counts,
/// the monitor stats and the divergence report, if any.
fn run_plan(
    variants: usize,
    batch: usize,
    placement: &Placement,
    plan: &[Vec<u8>],
) -> (Vec<u64>, MonitorStats, Option<DivergenceReport>) {
    let mvee = Arc::new(build_mvee(variants, plan.len(), batch, placement));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let port = mvee.thread_port(variant, thread);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let ok = plan[thread]
                    .iter()
                    .filter(|&&tag| port.syscall(&req_for(tag)).is_ok())
                    .count() as u64;
                ((variant, thread), ok)
            }));
        }
    }
    let mut collected: Vec<((usize, usize), u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("plan thread panicked"))
        .collect();
    collected.sort_by_key(|(id, _)| *id);
    let oks = collected.into_iter().map(|(_, ok)| ok).collect();
    (oks, mvee.monitor_stats(), mvee.divergence())
}

proptest! {
    /// Clean plans: every placement succeeds on every call and agrees with
    /// the round-robin reference on every monitor counter, with the batch
    /// size (∈ {1, 8}) and placement policy part of the generated case.
    #[test]
    fn port_path_matches_index_path_on_clean_plans(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..10), 1..3),
        variants in 2usize..4,
        batch_sel in 0usize..2,
        placement_sel in 0usize..3,
    ) {
        let batch = [1usize, 8][batch_sel];
        let placement = placements()[placement_sel].clone();
        let (index_ok, index_stats, index_div) = run_plan(variants, batch, &REFERENCE, &plan);
        let (port_ok, port_stats, port_div) = run_plan(variants, batch, &placement, &plan);
        prop_assert!(index_div.is_none(), "reference run diverged: {index_div:?}");
        prop_assert!(port_div.is_none(), "port path diverged: {port_div:?}");
        prop_assert_eq!(&index_ok, &port_ok,
            "per-thread outcomes differ (batch={}, {})", batch, placement.name());
        prop_assert_eq!(index_stats, port_stats,
            "monitor stats differ (batch={}, {})", batch, placement.name());
    }
}

/// The injected-mismatch scenario: one thread, two variants, a mid-batch
/// divergent mprotect followed by a synchronous write that forces the flush.
/// Every placement must blame exactly the reference's (thread, sequence,
/// variant).
#[test]
fn port_and_index_paths_report_identical_mismatch_verdicts() {
    let mprotect = |len: i64| SyscallRequest::new(Sysno::Mprotect).with_int(len);
    let write = || {
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush")
    };
    let run = |batch: usize, placement: &Placement| {
        let mvee = build_mvee(2, 1, batch, placement);
        let slave = mvee.thread_port(1, 0);
        let slave = std::thread::spawn(move || {
            for len in [4096i64, 666, 4096] {
                slave.syscall(&mprotect(len))?;
            }
            slave.syscall(&write())
        });
        let master = mvee.thread_port(0, 0);
        let master = (|| {
            for _ in 0..3 {
                master.syscall(&mprotect(4096))?;
            }
            master.syscall(&write())
        })();
        let slave = slave.join().unwrap();
        assert!(master.is_err() || slave.is_err());
        mvee.divergence().expect("divergence report")
    };
    for batch in [1usize, 8] {
        let index = run(batch, &REFERENCE);
        assert_eq!(index.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(index.variant, 1);
        for placement in placements() {
            let port = run(batch, &placement);
            assert_eq!(
                index.sequence,
                port.sequence,
                "batch={batch} {}: first-mismatch slot differs",
                placement.name()
            );
            assert_eq!(index.thread, port.thread);
            assert_eq!(index.variant, port.variant, "blamed variant differs");
            assert_eq!(
                std::mem::discriminant(&index.kind),
                std::mem::discriminant(&port.kind),
                "divergence kind differs"
            );
        }
    }
}

/// The rendezvous-timeout scenario: only the master arrives at a compared
/// call.  Every placement must report the reference's timeout verdict and
/// counters, field for field.
#[test]
fn port_and_index_paths_report_identical_timeout_verdicts() {
    let open = SyscallRequest::new(Sysno::Open).with_path("/missing");
    let run = |placement: &Placement| {
        let mvee = Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .placement(placement.clone())
            .lockstep_timeout(std::time::Duration::from_millis(150))
            .manual_clock(true)
            .build();
        assert!(mvee.thread_port(0, 0).syscall(&open).is_err());
        (
            mvee.divergence().expect("divergence report"),
            mvee.monitor_stats(),
        )
    };
    let (index, index_stats) = run(&REFERENCE);
    for placement in placements() {
        let (port, port_stats) = run(&placement);
        assert_eq!(index, port, "{}: timeout verdict differs", placement.name());
        assert_eq!(
            index_stats,
            port_stats,
            "{}: stats differ",
            placement.name()
        );
    }
}

/// The `Send` half of the port's threading contract, checked at compile
/// time from outside the defining crate (the `!Sync` half is a
/// `compile_fail` doctest on `mvee_core::port`).
#[test]
fn thread_port_is_send_across_crates() {
    fn assert_send<T: Send>() {}
    assert_send::<mvee::core::port::ThreadPort>();
}

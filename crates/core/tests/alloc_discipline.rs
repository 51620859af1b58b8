//! Dynamic allocation-discipline check: after one warm-up pass, a recovery
//! session serves every destination with **zero** heap allocations, and a
//! seeded phase-2 tree is built and repaired with none either.
//!
//! This is the runtime counterpart of the static `alloc-discipline` rule in
//! `cargo xtask analyze` (see `crates/xtask/src/rules/alloc.rs`): the rule
//! proves the configured steady-state functions are lexically free of
//! allocating constructors, and this test proves the whole
//! [`RtrSession::recover_reusing`] call graph is transitively
//! allocation-free once its buffers reach their high-water marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rtr_core::RtrSession;
use rtr_obs::NoopSink;
use rtr_routing::{IncrementalSpt, RoutingTable, SptScratch};
use rtr_sim::ForwardingTrace;
use rtr_topology::{generate, CrossLinkTable, FailureScenario, FullView, NodeId};

/// [`System`] wrapped with an allocation counter. Deallocations are not
/// counted: freeing is fine in steady state (it cannot fail or syscall in
/// the common path); acquiring fresh memory is what the contract bans.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; the count is a side effect.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, delegated unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller passes a pointer previously
        // returned by `alloc` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`; the count is a side effect.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the `realloc`
        // contract on `ptr`, `layout`, and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// One test function only: the counter is process-global, and a second
/// test running in parallel would attribute its allocations to this one.
#[test]
fn steady_state_recovery_allocates_nothing() {
    // 3x3 grid, centre node dead; node 3 is the recovery initiator.
    let topo = generate::grid(3, 3, 10.0);
    let crosslinks = CrossLinkTable::new(&topo);
    let scenario = FailureScenario::from_parts(&topo, [NodeId(4)], []);
    let initiator = NodeId(3);
    let failed = topo
        .link_between(initiator, NodeId(4))
        .expect("grid neighbours share a link");

    let mut session = RtrSession::start(&topo, &crosslinks, &scenario, initiator, failed)
        .expect("phase 1 succeeds on the grid fixture");
    let mut trace = ForwardingTrace::default();
    let mut sink = NoopSink;

    // Warm-up: one full pass fills the per-destination path cache and
    // grows the trace's step buffer to its high-water mark.
    let mut delivered = 0usize;
    for dest in topo.node_ids() {
        if dest == initiator {
            continue;
        }
        if session.recover_reusing(dest, &mut trace, &mut sink)
            == rtr_core::DeliveryOutcome::Delivered
        {
            delivered += 1;
        }
    }
    assert!(delivered >= 5, "fixture recovers most destinations");

    // Steady state: repeated passes over every destination must not
    // touch the allocator at all.
    let before = allocs();
    for _ in 0..3 {
        for dest in topo.node_ids() {
            if dest == initiator {
                continue;
            }
            let _ = session.recover_reusing(dest, &mut trace, &mut sink);
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state recovery must perform zero heap allocations \
         (got {} across 3 passes)",
        after - before
    );

    // A seeded session start copies the initiator's converged tree into
    // warm buffers instead of running Dijkstra: after one warm-up, the
    // tree half of the start — seeding, the phase-2 removal, and handing
    // the buffers back — allocates nothing either.
    let table = RoutingTable::compute(&topo, &FullView);
    let removal = session.computer().removed_links().clone();
    let mut scratch = SptScratch::default();
    for _ in 0..2 {
        let mut spt = IncrementalSpt::seeded_in(&topo, initiator, table.tree(initiator), scratch);
        spt.remove_links(removal.iter());
        scratch = spt.into_scratch();
    }
    let before = allocs();
    for _ in 0..3 {
        let mut spt = IncrementalSpt::seeded_in(&topo, initiator, table.tree(initiator), scratch);
        spt.remove_links(removal.iter());
        assert!(spt.nodes_touched() > 0, "the removal repairs the tree");
        scratch = spt.into_scratch();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "a warm seeded tree must perform zero heap allocations \
         (got {} across 3 starts)",
        after - before
    );
}

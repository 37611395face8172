//! The live heap an elastic fleet holds per agent, counted rather than
//! timed: a ~100k-agent fleet shaped like perfbench's `fleet_1m_cohort`
//! (Poisson arrivals, exponential sessions, slot recycling, 1 % cohorts,
//! semi-sync rounds, coarse events) is built and stepped five rounds.
//!
//! * The world is built with room for its first joiners, so round 0's
//!   arrivals neither move nor copy the agent list.
//! * Each agent is stored once: the live bytes per agent stay under a
//!   bound that a mirrored column or a growth copy would exceed.
//!
//! This file is its own test binary because the byte count is
//! process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use comdml_core::{AggregationMode, ComDmlConfig, EventGranularity, FleetSim};
use comdml_simnet::{ArrivalProcess, FleetConfig, SessionLifetime};

/// The system allocator, counting the bytes it has handed out and not yet
/// had back, and the reallocations of one watched buffer.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The address of the buffer whose reallocations are counted.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static WATCHED_REALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter update, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        if ptr as usize == WATCHED.load(Ordering::Relaxed) {
            WATCHED_REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Live heap bytes per agent the stepped fleet may hold. One `AgentState`
/// (40 B) with an eighth of headroom, the departure time and its index,
/// the membership bitmap and the engine's per-round state come to ~86 B;
/// one mirrored `f64` column with its headroom adds 9 B.
const BYTES_PER_AGENT: f64 = 92.0;

#[test]
fn an_elastic_world_grows_in_place_and_stores_each_agent_once() {
    let agents = 100_000;
    let fleet = FleetConfig::new(agents, 42)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: agents as f64 / 10_000.0 })
        .lifetime(SessionLifetime::Exponential { mean_s: 10_000.0 })
        .samples_per_agent(500)
        .batch_size(100)
        .max_agents(2 * agents)
        .recycle_slots(true);
    let config = ComDmlConfig {
        churn: None,
        candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
        granularity: EventGranularity::Coarse,
        threads: 1,
        aggregation: AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX },
        sampling_rate: 0.01,
        ..ComDmlConfig::default()
    };

    let before = LIVE.load(Ordering::Relaxed);
    let mut sim = FleetSim::new(fleet, config);
    let base = sim.fleet().world().agents().as_ptr();
    WATCHED.store(base as usize, Ordering::Relaxed);
    for _ in 0..5 {
        sim.step();
    }
    let world = sim.fleet().world();
    assert!(world.num_agents() > agents, "no arrival joined the world in five rounds");
    assert_eq!(world.agents().as_ptr(), base, "the first joiners moved the world");
    // A large buffer can grow in place (`mremap`), so count reallocations
    // too: the agent list must not have been resized at all.
    assert_eq!(WATCHED_REALLOCS.load(Ordering::Relaxed), 0, "the first joiners grew the world");

    let live = LIVE.load(Ordering::Relaxed) - before;
    let per_agent = live as f64 / world.num_agents() as f64;
    assert!(
        per_agent <= BYTES_PER_AGENT,
        "{per_agent:.1} live heap bytes per agent (bound {BYTES_PER_AGENT}) in a world of {}",
        world.num_agents()
    );
}

//! Regression test for the zero-allocation steady-state frame path:
//! once the decode cache is warm and buffer capacities settled,
//! processing an active frame must not touch the heap at all.
//!
//! The counter is process-global, so the binary holds exactly one
//! `#[test]` that runs its cases in sequence: libtest runs separate
//! tests on parallel threads, and each would be charged the others'
//! allocations.

use activermt_apps::hh::HH_MONITOR_ASM;
use activermt_apps::lb::LB_ROUTE_ASM;
use activermt_bench::hotpath::{
    alloc_count, cache_query, nop_program, CountingAlloc, HotLoop, PooledLoop,
};
use activermt_client::asm::assemble;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frames_do_not_allocate() {
    reference_path_allocates_showing_the_counter_works();
    hot_loop_frames_do_not_allocate();
    one_fid_alternating_two_programs_hits_without_allocating();
    pooled_frames_do_not_allocate();
}

/// A FID mid-reallocation sends its old and new mutant side by side:
/// both stay resident under the one FID key, so every frame past the
/// two cold ones is a hit and none allocates.
fn one_fid_alternating_two_programs_hits_without_allocating() {
    let (a, b) = (cache_query(), nop_program(12));
    let mut hl = HotLoop::rotating(&[&a, &b], b"GET k");
    for _ in 0..16 {
        hl.step();
    }
    let (before, ds0) = (alloc_count(), hl.rt.decode_stats());
    assert_eq!((ds0.hits, ds0.misses), (14, 2));
    for _ in 0..256 {
        hl.step();
    }
    assert_eq!(alloc_count() - before, 0, "alternating programs allocate");
    let ds = hl.rt.decode_stats();
    assert_eq!((ds.hits, ds.misses, ds.evictions), (14 + 256, 2, 0));
    let snap = hl.telemetry.snapshot(0);
    assert_eq!(snap.counter("decode_cache.hits"), Some(14 + 256));
    assert_eq!(snap.counter("runtime.frames"), Some(16 + 256));
}

fn hot_loop_frames_do_not_allocate() {
    for (name, program, payload) in [
        ("cache_query", cache_query(), &b"GET k"[..]),
        ("nops_30", nop_program(30), &b""[..]),
        // The HASH opcode: two sketch rows (Listing 2) and one flow
        // hash (Listing 4).
        ("monitor", assemble(HH_MONITOR_ASM).unwrap(), &b""[..]),
        ("balancer", assemble(LB_ROUTE_ASM).unwrap(), &b""[..]),
    ] {
        let mut hl = HotLoop::new(&program, payload);
        // Warm-up: populate the decode cache, grow the output vector
        // and the frame buffer to their steady-state capacities.
        for _ in 0..16 {
            hl.step();
        }
        let before = alloc_count();
        for _ in 0..256 {
            hl.step();
        }
        let allocs = alloc_count() - before;
        assert_eq!(
            allocs, 0,
            "{name}: steady-state frames must be allocation-free, saw {allocs} allocations over 256 frames"
        );
        let ds = hl.rt.decode_stats();
        assert!(ds.hits >= 256, "{name}: decode cache must serve the loop");
        // The telemetry registry was live the whole time — the counters
        // the snapshot reads are the very cells the hot loop bumped, so
        // the 0-alloc figure above holds with observability enabled.
        let snap = hl.telemetry.snapshot(0);
        assert!(
            snap.counter("runtime.frames").unwrap_or(0) >= 272,
            "{name}: registry must observe the frames the loop processed"
        );
    }
}

/// The parallel path must hold the same bar: once batch containers,
/// outboxes and frame buffers are in circulation, a full
/// enqueue → dispatch → execute → drain → recycle round allocates
/// nothing — on the dispatcher *and* on every worker thread (the
/// counting allocator is process-wide, so worker-side allocations are
/// charged too).
fn pooled_frames_do_not_allocate() {
    const WORKERS: usize = 4;
    const ROUND: usize = 1_024;
    let mut pl = PooledLoop::new(WORKERS, 16, ROUND, &cache_query(), b"GET k");
    // Warm-up: warm the decode caches and settle capacities (the
    // batch-container pool is sized for a whole round in flight up
    // front — how deep an inbox gets depends on thread scheduling, so
    // no warm-up is sure to reach that mark). After the fixed rounds
    // keep warming until one full round runs allocation-free; a genuine
    // per-frame leak allocates every round and exhausts the cap, so
    // this cannot mask a regression.
    let mut rounds = 0u64;
    for _ in 0..8 {
        pl.round(ROUND);
        rounds += 1;
    }
    for i in 0.. {
        assert!(
            i < 64,
            "pooled warmup never reached an allocation-free round"
        );
        let before = alloc_count();
        pl.round(ROUND);
        rounds += 1;
        if alloc_count() == before {
            break;
        }
    }
    let ws0 = pl.worker_stats();
    let before = alloc_count();
    for _ in 0..8 {
        pl.round(ROUND);
        rounds += 1;
    }
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "pooled steady-state frames must be allocation-free, saw {allocs} \
         allocations over {} frames across {WORKERS} workers",
        8 * ROUND
    );
    let ws = pl.worker_stats();
    assert_eq!(ws.len(), WORKERS);
    for (k, s) in ws.iter().enumerate() {
        assert!(s.frames > 0, "worker {k} processed no frames");
        assert!(s.batches > 0, "worker {k} drained no batches");
    }
    let timed: u64 = ws.iter().zip(&ws0).map(|(a, b)| a.frames - b.frames).sum();
    assert_eq!(
        timed,
        8 * ROUND as u64,
        "every frame enqueued in the timed rounds was executed"
    );
    let total: u64 = ws.iter().map(|s| s.frames).sum();
    assert_eq!(
        total,
        rounds * ROUND as u64,
        "every enqueued frame was executed"
    );
    // Telemetry stayed bound throughout: the global and per-worker
    // counters the registry snapshots are the cells the loop bumped.
    let snap = pl.telemetry.snapshot(0);
    assert_eq!(
        snap.counter("runtime.frames").unwrap_or(0),
        total,
        "registry view must match the per-worker sum"
    );
    assert_eq!(snap.counter("worker.0.frames").unwrap_or(0), ws[0].frames);
}

fn reference_path_allocates_showing_the_counter_works() {
    let mut hl = HotLoop::new(&cache_query(), b"GET k");
    for _ in 0..4 {
        hl.step_reference();
    }
    let before = alloc_count();
    for _ in 0..64 {
        hl.step_reference();
    }
    assert!(
        alloc_count() - before >= 64,
        "the reference interpreter decodes into a fresh Vec per frame; \
         a zero here would mean the counter is broken"
    );
}

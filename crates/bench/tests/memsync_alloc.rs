//! Acknowledging a memsync frame costs a bounded number of heap
//! allocations, however many frames a population left outstanding: the
//! cache client decides whether population is done by counting the
//! unacknowledged frames, not by copying them.
//!
//! The counter is process-global, so the binary holds exactly one
//! `#[test]` (see `zero_alloc.rs`).

use activermt_bench::hotpath::{alloc_count, CountingAlloc};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_net::{
    CacheClientConfig, CacheClientHost, Host, KvServerHost, NetConfig, Phase, Simulation,
    SwitchNode,
};
use std::any::Any;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];
const CLIENT: [u8; 6] = [2, 0, 0, 0, 1, 1];

/// Allocations any one acknowledgement may cost, whatever the
/// population size (one at the time of writing; copying the outstanding
/// frames instead cost one per frame, 1 527 for 1 024 objects).
const PER_ACK_BOUND: u64 = 8;

/// A cache client whose frames are watched: for every frame that
/// acknowledges a memsync write, the allocations its handling made.
struct Watched {
    inner: CacheClientHost,
    acks: u64,
    worst: u64,
}

impl Host for Watched {
    fn mac(&self) -> [u8; 6] {
        self.inner.mac()
    }

    fn on_frame(&mut self, now_ns: u64, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let pending = self.inner.cache().pending_sync_count();
        let before = alloc_count();
        let out = self.inner.on_frame(now_ns, frame);
        let cost = alloc_count() - before;
        if self.inner.cache().pending_sync_count() < pending {
            self.acks += 1;
            self.worst = self.worst.max(cost);
        }
        out
    }

    fn on_tick(&mut self, now_ns: u64) -> Vec<Vec<u8>> {
        self.inner.on_tick(now_ns)
    }

    fn tick_interval(&self) -> Option<u64> {
        self.inner.tick_interval()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Populate `objects` objects; returns (acknowledged frames, the most
/// allocations one acknowledgement cost).
fn populate(objects: usize) -> (u64, u64) {
    let mut sim = Simulation::new(
        NetConfig::default(),
        SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit),
    );
    sim.add_host(Box::new(KvServerHost::new(SERVER, 50_000)));
    sim.add_host(Box::new(Watched {
        inner: CacheClientHost::new(CacheClientConfig {
            mac: CLIENT,
            switch_mac: SWITCH,
            server_mac: SERVER,
            fid: 101,
            start_ns: 0,
            monitor_ns: None,
            populate_top: objects,
            req_interval_ns: 1_000_000,
            keyspace: 4 * objects,
            zipf_alpha: 1.0,
            seed: 7,
            policy: MutantPolicy::MostConstrained,
            num_stages: 20,
            ingress_stages: 10,
            max_extra_recircs: 1,
        }),
        acks: 0,
        worst: 0,
    }));
    sim.run_until(200_000_000);
    let w = sim.host::<Watched>(CLIENT).unwrap();
    assert_eq!(w.inner.phase(), Phase::Serving, "{objects} objects");
    assert_eq!(w.inner.cache().pending_sync_count(), 0);
    (w.acks, w.worst)
}

#[test]
fn acknowledging_a_memsync_frame_costs_a_bounded_allocation_count() {
    let (few_acks, few_worst) = populate(16);
    let (many_acks, many_worst) = populate(1024);
    assert!(many_acks > 8 * few_acks, "{few_acks} vs {many_acks} acks");
    for (objects, worst) in [(16, few_worst), (1024, many_worst)] {
        assert!(
            worst <= PER_ACK_BOUND,
            "{objects} objects: one acknowledgement cost {worst} allocations"
        );
    }
}

//! `sim_tenants`: the only workload where event heap, hosts, shim
//! templates, switch node and controller run together.
//!
//! A `Simulation` around one `SwitchNode`, a `KvServerHost` and eight
//! `CacheClientHost`s whose start times are staggered so that later
//! arrivals reallocate earlier elastic caches under traffic (Figure
//! 10's shape). Closed loop in virtual time: each client ticks every
//! 10 µs. One op is one 250 µs-virtual `run_until` step.

use crate::harness::{Counts, SliceOut, Workload};
use crate::probe::Probe;
use crate::rig::{SERVER_MAC, SWITCH_MAC};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_net::apphosts::{CacheClientConfig, CacheClientHost};
use activermt_net::host::KvServerHost;
use activermt_net::{NetConfig, Phase, Simulation, SwitchNode};
use std::time::Instant;

/// Cache clients.
pub const CLIENTS: u16 = 8;
/// Virtual time between client arrivals, ns.
const STAGGER_NS: u64 = 10_000_000;
/// Virtual warm-up inside bring-up, ns.
const WARMUP_NS: u64 = 5_000_000;
/// Virtual length of the timed pass, ns.
const PASS_NS: u64 = 250_000_000;
/// One op: this much virtual time per `run_until` call, ns.
const STEP_NS: u64 = 250_000;
/// Distinct keys (and objects the server holds).
const KEYSPACE: usize = 10_000;
/// Objects each client writes into its cache.
const POPULATE_TOP: usize = 512;

/// The switch profile of the simulated switch: table updates at 1 µs
/// an entry and 16 Ki registers a stage, so all eight provisioning
/// rounds (three fresh grants, five that reallocate incumbents) finish
/// inside the pass.
pub fn switch_config() -> SwitchConfig {
    SwitchConfig {
        table_entry_update_ns: 1_000,
        regs_per_stage: 16_384,
        ..SwitchConfig::default()
    }
}

/// MAC of client `i` (1-based).
pub fn client_mac(i: u16) -> [u8; 6] {
    [2, 0, 0, 0, 1, i as u8]
}

/// The client configurations, a pure function of the seed.
pub fn client_configs(seed: u64) -> Vec<CacheClientConfig> {
    let cfg = switch_config();
    (1..=CLIENTS)
        .map(|i| CacheClientConfig {
            mac: client_mac(i),
            switch_mac: SWITCH_MAC,
            server_mac: SERVER_MAC,
            fid: 100 + i,
            start_ns: u64::from(i - 1) * STAGGER_NS,
            monitor_ns: None,
            populate_top: POPULATE_TOP,
            req_interval_ns: 10_000,
            keyspace: KEYSPACE,
            zipf_alpha: 1.2,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(i),
            policy: MutantPolicy::MostConstrained,
            num_stages: cfg.num_stages,
            ingress_stages: cfg.ingress_stages,
            max_extra_recircs: cfg.max_extra_recircs,
        })
        .collect()
}

/// Build the simulation from scratch.
pub fn build(clients: &[CacheClientConfig]) -> Simulation {
    let mut sim = Simulation::new(
        NetConfig::default(),
        SwitchNode::new(SWITCH_MAC, switch_config(), Scheme::WorstFit),
    );
    sim.add_host(Box::new(KvServerHost::new(SERVER_MAC, 2 * KEYSPACE as u64)));
    for c in clients {
        sim.add_host(Box::new(CacheClientHost::new(c.clone())));
    }
    sim
}

/// What the most recent slice left behind, for the per-layer table.
#[derive(Debug, Clone, Default)]
pub struct SimDetail {
    /// Frames the fabric lost.
    pub lost: u64,
    /// Provisioning rounds that reallocated at least one incumbent.
    pub realloc_rounds: u64,
    /// Mean virtual arrival → first-hit gap over the clients, ms.
    pub first_hit_virt_ms: f64,
    /// Requests the clients sent.
    pub requests: u64,
    /// The switch's telemetry at slice end.
    pub telemetry: Option<activermt_telemetry::TelemetrySnapshot>,
}

/// The workload.
#[derive(Debug)]
pub struct SimWorkload {
    clients: Vec<CacheClientConfig>,
    /// Detail of the most recent slice.
    pub detail: SimDetail,
}

impl SimWorkload {
    /// Inputs are the client configurations generated from the seed.
    pub fn new(seed: u64) -> SimWorkload {
        SimWorkload {
            clients: client_configs(seed),
            detail: SimDetail::default(),
        }
    }
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        "sim_tenants"
    }

    fn tail_pct(&self) -> f64 {
        0.99
    }

    fn slice<P: Probe>(&mut self, probe: &mut P, op_ns: &mut Vec<u64>) -> Result<SliceOut, String> {
        // ----- bring-up: build, then the first 5 virtual ms -----
        let t0 = Instant::now();
        let s = probe.begin("sim.build", 0);
        let mut sim = build(&self.clients);
        probe.end(s);
        let s = probe.begin("bench.warmup", 0);
        sim.run_until(WARMUP_NS);
        probe.end(s);
        let setup_s = t0.elapsed().as_secs_f64();

        // ----- timed pass: 1000 steps of 250 µs virtual -----
        let delivered0 = sim.delivered();
        let t1 = Instant::now();
        let mut now = WARMUP_NS;
        while now < WARMUP_NS + PASS_NS {
            now += STEP_NS;
            let root = probe.begin("op", 0);
            let s = probe.begin("sim.run_until", root);
            let t = Instant::now();
            sim.run_until(now);
            op_ns.push(t.elapsed().as_nanos() as u64);
            probe.end(s);
            probe.end(root);
        }
        let pass_s = t1.elapsed().as_secs_f64();

        // ----- untimed: accounting and correctness -----
        let delivered = sim.delivered() - delivered0;
        let (mut sent, mut hits, mut misses, mut value_errors) = (0u64, 0u64, 0u64, 0u64);
        let mut digest = 0u64;
        let mut gap_ms = 0.0;
        let mut not_serving = 0u64;
        for c in &self.clients {
            let h = sim
                .host::<CacheClientHost>(c.mac)
                .ok_or("client host missing")?;
            sent += h.sent;
            hits += h.hits;
            misses += h.misses;
            value_errors += h.value_errors;
            digest = digest.rotate_left(13) ^ h.hits ^ (h.misses << 20) ^ (h.sent << 40);
            if h.phase() != Phase::Serving || h.hits == 0 {
                not_serving += 1;
            }
            let first_hit = h.outcomes.points().iter().find(|p| p.1 > 0.5).map(|p| p.0);
            gap_ms += first_hit.map_or(0.0, |t| (t - c.start_ns) as f64 / 1e6);
        }
        let reports = sim.switch().reports();
        let rs = sim.switch().runtime_stats();
        let ds = sim.switch().runtime().decode_stats();
        let refused = reports.iter().filter(|(_, r)| r.failed).count() as u64;
        self.detail = SimDetail {
            lost: sim.lost(),
            realloc_rounds: reports.iter().filter(|(_, r)| r.victim_count > 0).count() as u64,
            first_hit_virt_ms: gap_ms / self.clients.len() as f64,
            requests: sent,
            telemetry: Some(sim.telemetry_snapshot()),
        };
        Ok(SliceOut {
            setup_s,
            pass_s,
            units: delivered,
            counts: Counts {
                attempted: sent,
                // A wrong value, a lost or undeliverable frame, a
                // refused admission, a client that never served.
                failed: value_errors
                    + sim.lost()
                    + sim.dropped_no_host()
                    + sim.dropped_runts()
                    + rs.malformed_drops
                    + rs.violation_drops
                    + refused
                    + not_serving,
                digest,
                layer: vec![
                    ("sim.delivered", delivered),
                    ("client.hits", hits),
                    ("client.misses", misses),
                    ("runtime.frames", rs.frames),
                    ("runtime.drops_malformed", rs.malformed_drops),
                    ("runtime.drops_violation", rs.violation_drops),
                    ("decode_cache.hits", ds.hits),
                    ("decode_cache.misses", ds.misses),
                    ("decode_cache.evictions", ds.evictions),
                    ("decode_cache.invalidations", ds.invalidations),
                    ("sim.realloc_rounds", self.detail.realloc_rounds),
                ],
            },
        })
    }
}

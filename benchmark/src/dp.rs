//! The data-plane workloads: `dp_short`, `dp_long`, `dp_pool`.
//!
//! Bring-up admits real client applications through the controller
//! (see [`crate::rig`]); the timed pass replays a seed-generated frame
//! trace through `SwitchRuntime::process_frames_into` in 64-frame
//! batches (`dp_short`, `dp_long`) or through
//! `ShardedExecutor::enqueue` + `drain_into` in 1024-frame rounds
//! (`dp_pool`, which consumes the `dp_short` trace byte for byte).

use crate::frames::{fnv1a, FrameTrace, BATCH, FNV_SEED};
use crate::harness::{Counts, SliceOut, Workload};
use crate::probe::{NoProbe, Probe};
use crate::rig::{AppKind, Plane, Rig, Tenant, SERVER_MAC};
use activermt_apps::lb::CheetahLb;
use activermt_apps::workload::{mix32, Zipf};
use activermt_core::runtime::{
    FrameBatch, ShardedExecutor, SwitchRuntime, TaggedOutput, WorkerStats,
};
use activermt_core::SwitchConfig;
use activermt_isa::constants::ETHERNET_HEADER_LEN;
use activermt_isa::wire::ActiveHeader;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Frames in a generated trace (a whole number of 1024-frame rounds).
pub const TRACE_FRAMES: usize = 32_768;
/// Frames per `dp_pool` round.
pub const ROUND: usize = 1024;
/// Distinct keys each tenant's requests are drawn from.
const KEYSPACE: usize = 10_000;
/// Objects each `dp_long` cache is populated with.
const CACHE_OBJECTS: usize = 1024;
/// Established flows per load balancer.
const LB_FLOWS: usize = 64;
/// `dp_long` payload sizes, drawn uniformly per frame.
const PAYLOAD_LENS: [usize; 5] = [64, 128, 256, 512, 1024];

/// Which data-plane workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpKind {
    /// Fixed per-frame cost: 24 empty caches, minimum-size frames.
    Short,
    /// Per-instruction cost: monitors, balancers, populated caches.
    Long,
    /// The `Short` trace through the worker pool.
    Pool,
}

/// Everything a slice needs, generated once from the seed.
#[derive(Debug, Clone)]
pub struct DpInputs {
    /// The switch profile.
    pub cfg: SwitchConfig,
    /// Tenants in admission order.
    pub tenants: Vec<(AppKind, u16)>,
    /// Objects written into each cache during bring-up.
    pub populate: Vec<(u16, Vec<(u64, u32)>)>,
    /// The frame trace one repetition replays.
    pub trace: FrameTrace,
    /// Repetitions of the trace in one timed pass.
    pub reps: usize,
    /// Worker threads (`dp_pool` only; 0 otherwise).
    pub workers: usize,
    /// Input generation wall time, s (`bench.gen_s`).
    pub gen_s: f64,
    /// Mean client-side cost of building one request packet, ns.
    pub request_ns: f64,
    /// Shim packet-template hits and misses while building the trace.
    pub template: (u64, u64),
}

/// `clamp(nproc − 1, 1, 4)`: the generator thread plus the workers
/// never exceed the cores.
pub fn pool_workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.saturating_sub(1).clamp(1, 4)
}

fn key_of(rank: usize, salt: u32) -> u64 {
    // The high half is never 0, so an empty bucket never matches.
    ((rank as u64 + 1) << 32) | u64::from(mix32(rank as u32 ^ salt))
}

fn population(kind: DpKind) -> Vec<(AppKind, u16)> {
    let kinds: Vec<AppKind> = match kind {
        DpKind::Short | DpKind::Pool => vec![AppKind::Cache; 24],
        // The largest mixed population that works, in one of the 4 (of
        // 210) admission orders that do: the real clients refuse grants
        // whose regions are not aligned across their stages (Listing 1
        // loads one $ADDR for all three), and a balancer's SYN program
        // is only translated correctly when no other region of its own
        // lies between its ADDR_MASK and the access it guards. Found by
        // trying every order of every multiset up to 2/4/4 with live
        // traffic; see README.
        DpKind::Long => {
            use AppKind::{Cache as C, HeavyHitter as H, LoadBalancer as L};
            vec![H, C, C, L, H, L, L]
        }
    };
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, 100 + i as u16))
        .collect()
}

/// Construct the system under test through its public path: compile
/// and admit every tenant, then populate the caches through the data
/// plane.
pub fn bring_up<P: Plane, T: Probe>(
    inp: &DpInputs,
    plane: P,
    probe: &mut T,
) -> Result<Rig<P>, String> {
    let mut rig = Rig::new(&inp.cfg, plane);
    for &(kind, fid) in &inp.tenants {
        rig.admit(kind, fid, &inp.cfg, probe);
    }
    for (fid, entries) in &inp.populate {
        let Some(Tenant::Cache(app)) = rig.tenants.get_mut(fid) else {
            return Err(format!("fid {fid} is not a cache"));
        };
        let frames = app.populate(entries);
        rig.send(frames, probe);
    }
    if rig.refused != 0 {
        return Err(format!("{} admissions refused in bring-up", rig.refused));
    }
    for (fid, t) in &rig.tenants {
        if !t.operational() || !t.synced() {
            return Err(format!("tenant {fid} not operational after bring-up"));
        }
    }
    Ok(rig)
}

/// Generate the inputs of `kind` from `seed`. `Pool` and `Short` share
/// one generator, so their traces are byte-identical.
pub fn generate(kind: DpKind, seed: u64, reps: usize) -> Result<DpInputs, String> {
    let t0 = Instant::now();
    let cfg = SwitchConfig::default();
    let tenants = population(kind);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD47A_0000);
    let populate = tenants
        .iter()
        .filter(|(k, _)| kind == DpKind::Long && *k == AppKind::Cache)
        .map(|&(_, fid)| {
            let salt = rng.next_u32();
            let entries = (0..CACHE_OBJECTS)
                .map(|r| {
                    let key = key_of(r, salt);
                    (key, mix32(key as u32) | 1)
                })
                .collect();
            (fid, entries)
        })
        .collect();
    let mut inp = DpInputs {
        cfg,
        tenants,
        populate,
        trace: FrameTrace::default(),
        reps,
        workers: if kind == DpKind::Pool {
            pool_workers()
        } else {
            0
        },
        gen_s: 0.0,
        request_ns: 0.0,
        template: (0, 0),
    };
    // A pilot bring-up yields the grants the requests are linked
    // against; bring-up is deterministic, so every slice's are the same.
    let mut rig = bring_up(&inp, SwitchRuntime::new(cfg), &mut NoProbe)?;
    let t_req = Instant::now();
    inp.trace = match kind {
        DpKind::Short | DpKind::Pool => short_trace(&mut rig, &mut rng)?,
        DpKind::Long => long_trace(&mut rig, &inp.populate, &mut rng)?,
    };
    inp.request_ns = t_req.elapsed().as_nanos() as f64 / inp.trace.len() as f64;
    inp.template = rig.tenants.values().fold((0, 0), |acc, t| {
        let (hits, misses, _) = t.shim().template_cache_stats();
        (acc.0 + hits, acc.1 + misses)
    });
    inp.gen_s = t0.elapsed().as_secs_f64();
    Ok(inp)
}

fn short_trace(rig: &mut Rig<SwitchRuntime>, rng: &mut SmallRng) -> Result<FrameTrace, String> {
    let zipf = Zipf::new(KEYSPACE, 1.0);
    let fids: Vec<u16> = rig.tenants.keys().copied().collect();
    let mut trace = FrameTrace::default();
    for _ in 0..TRACE_FRAMES {
        let fid = fids[rng.gen_range(0..fids.len())];
        let Some(Tenant::Cache(app)) = rig.tenants.get_mut(&fid) else {
            unreachable!("dp_short tenants are caches")
        };
        let key = key_of(zipf.sample(rng), u32::from(fid));
        let frame = app.get_frame(key, &[]).ok_or("cache not operational")?;
        trace.push(&frame);
    }
    Ok(trace)
}

fn long_trace(
    rig: &mut Rig<SwitchRuntime>,
    populate: &[(u16, Vec<(u64, u32)>)],
    rng: &mut SmallRng,
) -> Result<FrameTrace, String> {
    let zipf_keys = Zipf::new(KEYSPACE, 1.0);
    let by_kind = |rig: &Rig<SwitchRuntime>, want: fn(&Tenant) -> bool| -> Vec<u16> {
        rig.tenants
            .iter()
            .filter(|(_, t)| want(t))
            .map(|(&f, _)| f)
            .collect()
    };
    let hh = by_kind(rig, |t| matches!(t, Tenant::Hh(_)));
    let caches = by_kind(rig, |t| matches!(t, Tenant::Cache(_)));
    let lbs = by_kind(rig, |t| matches!(t, Tenant::Lb(_)));
    // Per cache: the keys it actually holds (collisions lose) and its
    // population write frames, replayed as the write share.
    let mut held: Vec<Vec<u64>> = Vec::new();
    let mut writes: Vec<Vec<Vec<u8>>> = Vec::new();
    for &fid in &caches {
        let Some(Tenant::Cache(app)) = rig.tenants.get_mut(&fid) else {
            unreachable!()
        };
        held.push(app.contents().keys().copied().collect());
        let entries = &populate
            .iter()
            .find(|(f, _)| *f == fid)
            .expect("populated")
            .1;
        writes.push(app.populate(entries));
    }
    let zipf_held: Vec<Zipf> = held.iter().map(|h| Zipf::new(h.len(), 1.0)).collect();
    // Per balancer: flows whose SYN already went through the switch.
    let mut flows: Vec<Vec<([u8; 9], u32)>> = Vec::new();
    let mut outs = Vec::new();
    for &fid in &lbs {
        let mut established = Vec::with_capacity(LB_FLOWS);
        for _ in 0..LB_FLOWS {
            let flow = flow_bytes(rng, 0x02);
            let Some(Tenant::Lb(app)) = rig.tenants.get_mut(&fid) else {
                unreachable!()
            };
            let syn = app
                .syn_frame(SERVER_MAC, &flow)
                .ok_or("lb not operational")?;
            outs.clear();
            rig.plane.run_frame(0, syn, &mut outs);
            let cookie = outs
                .first()
                .and_then(|o| CheetahLb::cookie_of(&o.frame))
                .ok_or("SYN produced no cookie")?;
            let mut data = flow;
            data[0] = 0x10; // same flow identity, ACK instead of SYN
            established.push((data, cookie));
        }
        flows.push(established);
    }
    let mut payload = vec![0u8; 1024];
    let mut trace = FrameTrace::default();
    for _ in 0..TRACE_FRAMES {
        let len = PAYLOAD_LENS[rng.gen_range(0..PAYLOAD_LENS.len())];
        rng.fill_bytes(&mut payload[..len]);
        let frame = match rng.gen_range(0..3u32) {
            0 => {
                let fid = hh[rng.gen_range(0..hh.len())];
                let Some(Tenant::Hh(app)) = rig.tenants.get_mut(&fid) else {
                    unreachable!()
                };
                let key = key_of(zipf_keys.sample(rng), u32::from(fid));
                app.monitor_frame(key, &payload[..len])
            }
            1 => {
                let c = rng.gen_range(0..caches.len());
                if rng.gen_bool(0.10) {
                    let w = &writes[c];
                    Some(w[rng.gen_range(0..w.len())].clone())
                } else {
                    let Some(Tenant::Cache(app)) = rig.tenants.get_mut(&caches[c]) else {
                        unreachable!()
                    };
                    let key = held[c][zipf_held[c].sample(rng)];
                    app.get_frame(key, &payload[..len])
                }
            }
            _ => {
                let l = rng.gen_range(0..lbs.len());
                let Some(Tenant::Lb(app)) = rig.tenants.get_mut(&lbs[l]) else {
                    unreachable!()
                };
                if rng.gen_bool(0.25) {
                    payload[..9].copy_from_slice(&flow_bytes(rng, 0x02));
                    app.syn_frame(SERVER_MAC, &payload[..len])
                } else {
                    let (flow, cookie) = flows[l][rng.gen_range(0..LB_FLOWS)];
                    payload[..9].copy_from_slice(&flow);
                    app.route_frame(SERVER_MAC, cookie, &payload[..len])
                }
            }
        };
        trace.push(&frame.ok_or("tenant refused to activate a request")?);
    }
    Ok(trace)
}

/// Transport-flags byte plus eight flow-identity bytes.
fn flow_bytes(rng: &mut SmallRng, flags: u8) -> [u8; 9] {
    let mut f = [0u8; 9];
    rng.fill_bytes(&mut f);
    f[0] = flags;
    f
}

/// The runtime's public counters a pass is accounted from.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneCounters {
    /// Frames the runtime saw.
    pub frames: u64,
    /// Malformed-frame drops.
    pub malformed: u64,
    /// Protection-violation drops.
    pub violations: u64,
    /// Decode-cache hits / misses / evictions / invalidations.
    pub decode: [u64; 4],
    /// Instructions executed.
    pub instructions: u64,
    /// Register-memory operations.
    pub memory_ops: u64,
    /// Recirculations charged by the traffic manager.
    pub recirculations: u64,
    /// Frames the traffic manager dropped.
    pub dropped: u64,
}

impl PlaneCounters {
    fn since(&self, base: &PlaneCounters) -> PlaneCounters {
        PlaneCounters {
            frames: self.frames - base.frames,
            malformed: self.malformed - base.malformed,
            violations: self.violations - base.violations,
            decode: std::array::from_fn(|i| self.decode[i] - base.decode[i]),
            instructions: self.instructions - base.instructions,
            memory_ops: self.memory_ops - base.memory_ops,
            recirculations: self.recirculations - base.recirculations,
            dropped: self.dropped - base.dropped,
        }
    }
}

/// Buffers a pass recycles: steady state allocates nothing.
#[derive(Debug, Default)]
pub struct PassIo {
    free: Vec<Vec<u8>>,
    bufs: Vec<Vec<u8>>,
    batch: FrameBatch,
    out: Vec<TaggedOutput>,
}

impl PassIo {
    fn load(&mut self, trace: &FrameTrace, first: usize, n: usize) {
        // Every buffer can hold the longest frame, so a recycled buffer
        // never regrows: the generator allocates nothing once warm.
        let cap = trace.max_len();
        for i in first..first + n {
            let mut buf = self.free.pop().unwrap_or_default();
            buf.clear();
            buf.reserve(cap);
            buf.extend_from_slice(trace.frame(i));
            self.bufs.push(buf);
        }
    }
}

/// A data plane a pass can drive one op at a time.
pub trait DpPlane: Plane + Sized {
    /// Frames per op: one 64-frame batch, or one 1024-frame round.
    const OP_FRAMES: usize;
    /// Is this the worker pool?
    const POOLED: bool;
    /// Bind the plane's counters to a telemetry hub.
    fn bind_hub(&self, hub: &activermt_telemetry::Telemetry);
    /// Build the plane (and its worker threads, if any).
    fn build(cfg: &SwitchConfig, workers: usize) -> Self;
    /// Run the frames in `io.bufs` to completion; outputs land in
    /// `io.out` in input order.
    fn run_op<T: Probe>(&mut self, io: &mut PassIo, probe: &mut T, parent: u32);
    /// The runtime's counters, summed over shards.
    fn counters(&self) -> PlaneCounters;
    /// A detached copy of each shard's runtime.
    fn shadows(&self) -> Vec<SwitchRuntime>;
    /// Per-worker statistics (empty for a single runtime).
    fn workers_stats(&self) -> Vec<WorkerStats>;
}

fn counters_of(
    stats: activermt_core::runtime::RuntimeStats,
    decode: activermt_core::runtime::DecodeCacheStats,
    stage: activermt_rmt::pipeline::StageStats,
    traffic: activermt_rmt::traffic::TrafficStats,
) -> PlaneCounters {
    PlaneCounters {
        frames: stats.frames,
        malformed: stats.malformed_drops,
        violations: stats.violation_drops,
        decode: [
            decode.hits,
            decode.misses,
            decode.evictions,
            decode.invalidations,
        ],
        instructions: stage.instructions,
        memory_ops: stage.memory_ops,
        recirculations: traffic.recirculations,
        dropped: traffic.dropped,
    }
}

impl DpPlane for SwitchRuntime {
    const OP_FRAMES: usize = BATCH;
    const POOLED: bool = false;

    fn bind_hub(&self, hub: &activermt_telemetry::Telemetry) {
        self.bind_telemetry(hub);
    }

    fn build(cfg: &SwitchConfig, _workers: usize) -> Self {
        SwitchRuntime::new(*cfg)
    }

    fn run_op<T: Probe>(&mut self, io: &mut PassIo, probe: &mut T, parent: u32) {
        for (tag, buf) in io.bufs.drain(..).enumerate() {
            io.batch.push(tag as u64, 0, buf);
        }
        let s = probe.begin("runtime.process_frames", parent);
        self.process_frames_into(&mut io.batch, &mut io.out);
        probe.end(s);
    }

    fn counters(&self) -> PlaneCounters {
        counters_of(
            self.stats(),
            self.decode_stats(),
            self.pipeline().total_stats(),
            self.traffic_stats(),
        )
    }

    fn shadows(&self) -> Vec<SwitchRuntime> {
        vec![self.clone()]
    }

    fn workers_stats(&self) -> Vec<WorkerStats> {
        Vec::new()
    }
}

impl DpPlane for ShardedExecutor {
    const OP_FRAMES: usize = ROUND;
    const POOLED: bool = true;

    fn bind_hub(&self, hub: &activermt_telemetry::Telemetry) {
        self.bind_telemetry(hub);
    }

    fn build(cfg: &SwitchConfig, workers: usize) -> Self {
        ShardedExecutor::new(*cfg, workers, BATCH)
    }

    fn run_op<T: Probe>(&mut self, io: &mut PassIo, probe: &mut T, parent: u32) {
        let s = probe.begin("pool.enqueue", parent);
        for buf in io.bufs.drain(..) {
            self.enqueue(0, buf);
        }
        probe.end(s);
        // The fence inside drain_into is what ends the op: no frame is
        // in flight when the clock stops.
        let s = probe.begin("pool.drain", parent);
        self.drain_into(&mut io.out);
        probe.end(s);
    }

    fn counters(&self) -> PlaneCounters {
        counters_of(
            self.stats(),
            self.decode_stats(),
            self.total_stage_stats(),
            self.traffic_stats(),
        )
    }

    fn shadows(&self) -> Vec<SwitchRuntime> {
        (0..self.workers())
            .map(|k| self.with_runtime(k, Clone::clone))
            .collect()
    }

    fn workers_stats(&self) -> Vec<WorkerStats> {
        self.worker_stats()
    }
}

/// What a pass left behind, for the per-layer table.
#[derive(Debug, Clone, Default)]
pub struct PassDetail {
    /// Per-worker deltas over the timed pass.
    pub workers: Vec<WorkerStats>,
    /// Protection-table entries installed after bring-up.
    pub protect_entries: u64,
    /// Allocator search time over the admissions' wall time.
    pub alloc_share: f64,
    /// Heap allocations during the timed pass (traced binary only;
    /// 0 where no counting allocator is installed).
    pub allocs: u64,
    /// Largest controller queue seen during bring-up.
    pub queue_len_max: u64,
    /// Incumbents reallocated during bring-up.
    pub victims: u64,
    /// Mean modelled table-update time per admission, ns (virtual).
    pub table_update_ns: f64,
    /// Programs the verifier accepted / rejected at admission.
    pub verify: (u64, u64),
    /// Verdict-memo hits / misses.
    pub optimizer_cache: (u64, u64),
    /// Allocator utilization after bring-up.
    pub utilization: f64,
}

/// One data-plane workload over plane type `P`.
#[derive(Debug)]
pub struct DpWorkload<P: DpPlane> {
    name: &'static str,
    tail_pct: f64,
    /// The generated inputs.
    pub inputs: DpInputs,
    io: PassIo,
    /// Detail of the most recent slice.
    pub detail: PassDetail,
    _plane: std::marker::PhantomData<P>,
}

impl<P: DpPlane> DpWorkload<P> {
    /// Wrap generated inputs.
    pub fn new(name: &'static str, tail_pct: f64, inputs: DpInputs) -> DpWorkload<P> {
        DpWorkload {
            name,
            tail_pct,
            inputs,
            io: PassIo::default(),
            detail: PassDetail::default(),
            _plane: std::marker::PhantomData,
        }
    }

    /// Ops in one timed pass.
    pub fn ops_per_pass(&self) -> usize {
        self.inputs.reps * self.inputs.trace.len() / P::OP_FRAMES
    }

    /// Untimed: replay the first eighth of the trace through the plane
    /// and, frame by frame, through `process_frame_reference_at` on a
    /// detached copy of the owning shard; every output must match byte
    /// for byte. Returns (full output digest, mismatches).
    fn differential(&mut self, plane: &mut P) -> (u64, u64) {
        let mut shadows = plane.shadows();
        let trace = &self.inputs.trace;
        let io = &mut self.io;
        let (mut digest, mut mismatches) = (FNV_SEED, 0u64);
        for op in 0..(trace.len() / 8).max(P::OP_FRAMES) / P::OP_FRAMES {
            let first = op * P::OP_FRAMES;
            io.load(trace, first, P::OP_FRAMES);
            plane.run_op(io, &mut NoProbe, 0);
            let mut got = io.out.drain(..);
            for i in first..first + P::OP_FRAMES {
                let frame = trace.frame(i);
                let fid = ActiveHeader::new_unchecked(&frame[ETHERNET_HEADER_LEN..]).fid();
                let shard = usize::from(fid) % shadows.len();
                for want in shadows[shard].process_frame_reference_at(0, frame.to_vec()) {
                    match got.next() {
                        Some(g)
                            if g.output.frame == want.frame && g.output.action == want.action =>
                        {
                            digest = fnv1a(digest, &g.output.frame);
                            io.free.push(g.output.frame);
                        }
                        _ => mismatches += 1,
                    }
                }
            }
            mismatches += got.count() as u64;
        }
        (digest, mismatches)
    }
}

/// Replay ops `ops` of the op sequence (the trace, repeated) through
/// `plane`, one timed call per op; outputs are folded into a cheap
/// digest and their buffers recycled. Returns (outputs, digest).
pub fn replay<P: DpPlane, T: Probe>(
    plane: &mut P,
    trace: &FrameTrace,
    io: &mut PassIo,
    ops: std::ops::Range<usize>,
    probe: &mut T,
    mut op_ns: Option<&mut Vec<u64>>,
) -> (u64, u64) {
    let per_trace = trace.len() / P::OP_FRAMES;
    let (mut outputs, mut light) = (0u64, 0u64);
    for op in ops {
        io.load(trace, (op % per_trace) * P::OP_FRAMES, P::OP_FRAMES);
        let root = probe.begin("op", 0);
        let t = Instant::now();
        plane.run_op(io, probe, root);
        let ns = t.elapsed().as_nanos() as u64;
        probe.end(root);
        if let Some(v) = op_ns.as_deref_mut() {
            v.push(ns);
        }
        outputs += io.out.len() as u64;
        for o in io.out.drain(..) {
            light = light.rotate_left(5)
                ^ (o.output.frame.len() as u64)
                ^ (u64::from(o.output.passes) << 32)
                ^ ((o.output.action as u64) << 48);
            io.free.push(o.output.frame);
        }
    }
    (outputs, light)
}

fn worker_delta(now: &[WorkerStats], base: &[WorkerStats]) -> Vec<WorkerStats> {
    now.iter()
        .zip(base)
        .map(|(a, b)| WorkerStats {
            frames: a.frames - b.frames,
            batches: a.batches - b.batches,
            handoffs: a.handoffs - b.handoffs,
            recirculations: a.recirculations - b.recirculations,
            busy_ns: a.busy_ns - b.busy_ns,
        })
        .collect()
}

impl<P: DpPlane> Workload for DpWorkload<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn tail_pct(&self) -> f64 {
        self.tail_pct
    }

    fn slice<T: Probe>(&mut self, probe: &mut T, op_ns: &mut Vec<u64>) -> Result<SliceOut, String> {
        let ops = self.ops_per_pass();
        // ----- bring-up (timed: one setup_s sample) -----
        let t0 = Instant::now();
        let plane = P::build(&self.inputs.cfg, self.inputs.workers);
        let mut rig = bring_up(&self.inputs, plane, probe)?;
        // Warm-up: the first eighth of the op sequence, so decode
        // cache, buffer pools and predictors are warm before the clock
        // of the pass starts.
        let s = probe.begin("bench.warmup", 0);
        replay(
            &mut rig.plane,
            &self.inputs.trace,
            &mut self.io,
            0..ops / 8,
            &mut NoProbe,
            None,
        );
        probe.end(s);
        let setup_s = t0.elapsed().as_secs_f64();

        // ----- timed pass -----
        let base = rig.plane.counters();
        let base_workers = rig.plane.workers_stats();
        let t1 = Instant::now();
        let allocs0 = crate::layers::alloc_count();
        let (outputs, light) = replay(
            &mut rig.plane,
            &self.inputs.trace,
            &mut self.io,
            0..ops,
            probe,
            Some(op_ns),
        );
        let pass_s = t1.elapsed().as_secs_f64();
        let allocs = crate::layers::alloc_count() - allocs0;

        // ----- untimed: accounting and correctness -----
        let c = rig.plane.counters().since(&base);
        let frames = (ops * P::OP_FRAMES) as u64;
        let (digest, mismatches) = self.differential(&mut rig.plane);
        let unanswered = frames.saturating_sub(outputs);
        self.detail = PassDetail {
            workers: worker_delta(&rig.plane.workers_stats(), &base_workers),
            protect_entries: rig.plane.protection().total_entries() as u64,
            alloc_share: rig.ctl.allocator().admit_time_histogram().sum() as f64
                / rig.admit_ns.max(1) as f64,
            allocs,
            queue_len_max: rig.queue_len_max as u64,
            victims: rig.reports.iter().map(|r| r.victim_count as u64).sum(),
            table_update_ns: rig.reports.iter().map(|r| r.table_update_ns).sum::<u64>() as f64
                / rig.reports.len().max(1) as f64,
            verify: rig.ctl.verify_counts(),
            optimizer_cache: rig.ctl.optimizer_cache_stats(),
            utilization: rig.ctl.allocator().utilization(),
        };
        // Join the worker threads before the next slice's bring-up.
        drop(rig);
        Ok(SliceOut {
            setup_s,
            pass_s,
            units: frames,
            counts: Counts {
                attempted: frames,
                failed: unanswered + c.malformed + c.violations + c.dropped + mismatches,
                digest: digest ^ light,
                layer: vec![
                    ("runtime.frames", c.frames),
                    ("runtime.outputs", outputs),
                    ("runtime.instructions", c.instructions),
                    ("runtime.mem_accesses", c.memory_ops),
                    ("runtime.recirculations", c.recirculations),
                    ("runtime.drops_malformed", c.malformed),
                    ("runtime.drops_violation", c.violations),
                    ("decode_cache.hits", c.decode[0]),
                    ("decode_cache.misses", c.decode[1]),
                    ("decode_cache.evictions", c.decode[2]),
                    ("decode_cache.invalidations", c.decode[3]),
                ],
            },
        })
    }
}

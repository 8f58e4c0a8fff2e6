//! Per-layer attribution from outside (traced run only).
//!
//! Every number here comes from timing calls into a layer's public
//! functions or from reading its public counters; no layer's source is
//! touched. Layers that do work per frame in tens of nanoseconds
//! (`isa`, `decode_cache`, `protect`, `interp`) are never timed per
//! call — the timer would measure itself — but by isolated batch loops
//! over the workload's own frames. Everything at handler granularity
//! (controller, client, pool, switch) is read off the spans.
//!
//! A metric whose layer a workload never reaches reads 0 there.

use crate::ctl::{CtlInputs, CtlWorkload};
use crate::dp::{self, DpKind, DpPlane, DpWorkload, PassIo};
use crate::estimate::{quantile_sorted, slice_percentiles_us};
use crate::frames::FrameTrace;
use crate::harness::{proc_status_kb, run, Budget, Counts, RunResult};
use crate::probe::{NoProbe, SelfTime};
use crate::rig::{service_of, AppKind, SERVER_MAC, SWITCH_MAC};
use crate::sim::{self, SimWorkload};
use activermt_analysis::{
    check_mutant_equivalence, pad_to_positions, verify, AnalysisContext, Assumptions,
};
use activermt_apps::cache::{CacheApp, CacheEvent};
use activermt_apps::kvstore::value_of;
use activermt_apps::workload::Zipf;
use activermt_core::alloc::{AllocOutcome, Allocator, AllocatorConfig, MutantPolicy, Scheme};
use activermt_core::controller::Controller;
use activermt_core::runtime::decode_cache::new_scratch;
use activermt_core::runtime::{DecodeCache, ProtectionTables, SwitchRuntime};
use activermt_core::SwitchConfig;
use activermt_isa::constants::ETHERNET_HEADER_LEN;
use activermt_isa::wire::{program_packet_layout, ActiveHeader, EthernetFrame};
use activermt_net::{CacheClientHost, SwitchNode};
use activermt_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

static ALLOC_COUNTER: OnceLock<fn() -> u64> = OnceLock::new();

/// The traced binary registers its counting allocator's reader here.
pub fn install_alloc_counter(read: fn() -> u64) {
    let _ = ALLOC_COUNTER.set(read);
}

/// Heap allocations so far; 0 in a binary without a counting allocator.
pub fn alloc_count() -> u64 {
    ALLOC_COUNTER.get().map_or(0, |read| read())
}

/// What the traced binary hands each workload after its runs.
#[derive(Debug)]
pub struct TraceContext<'a> {
    /// The seed the inputs came from.
    pub seed: u64,
    /// Per-name totals of the traced slices' spans.
    pub spans: &'a BTreeMap<&'static str, SelfTime>,
    /// How many slices were traced.
    pub traced_slices: usize,
    /// The untraced run made in the same process.
    pub reference: &'a RunResult,
}

impl TraceContext<'_> {
    fn span(&self, name: &str) -> SelfTime {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// A workload that can price its layers.
pub trait LayerSource {
    /// Called before any slice of a traced run.
    fn prepare_traced(&mut self) {}
    /// Fill in every per-layer metric this workload reaches.
    fn layers(&mut self, cx: &TraceContext<'_>, out: &mut Layers) -> Result<(), String>;
}

/// Handler-granularity spans → `*_us` metrics (mean per call).
fn span_means(cx: &TraceContext<'_>, out: &mut Layers) {
    for (span, metric) in [
        ("controller.request", "controller.request_us"),
        ("controller.poll", "controller.poll_us"),
        ("controller.snapshot_ack", "controller.snapshot_ack_us"),
        ("controller.reactivate_ack", "controller.reactivate_ack_us"),
        ("controller.dealloc", "controller.dealloc_us"),
        ("client.compile", "client.compile_us"),
        ("client.synthesize", "client.synthesize_us"),
    ] {
        out.insert(metric, cx.span(span).mean_ns() / 1e3);
    }
}

/// Best of five timings of `f`, ns.
fn best_of_5(mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The isolated sub-frame loops over `trace`: header parse, decode-cache
/// probe, protection lookup. ns per frame each.
fn frame_layers(trace: &FrameTrace, protect: &ProtectionTables, out: &mut Layers) {
    let n = trace.len() as f64;
    // isa: Ethernet + active header + program layout + the four args.
    let parse = best_of_5(|| {
        let mut acc = 0u32;
        for i in 0..trace.len() {
            let frame = trace.frame(i);
            let Ok(eth) = EthernetFrame::new_checked(frame) else {
                continue;
            };
            acc ^= u32::from(eth.ethertype());
            let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
                continue;
            };
            acc ^= u32::from(hdr.fid());
            let Ok(layout) = program_packet_layout(frame) else {
                continue;
            };
            for a in 0..4 {
                let off = layout.args_off + a * 4;
                acc ^= u32::from_be_bytes([
                    frame[off],
                    frame[off + 1],
                    frame[off + 2],
                    frame[off + 3],
                ]);
            }
        }
        black_box(acc);
    });
    out.insert("isa.parse_ns_per_frame", parse / n);

    // decode_cache: hash + byte-verify probe over the program bytes.
    let located: Vec<(u16, usize, usize, usize)> = (0..trace.len())
        .filter_map(|i| {
            let frame = trace.frame(i);
            let layout = program_packet_layout(frame).ok()?;
            let fid = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..])
                .ok()?
                .fid();
            Some((fid, i, layout.instr_off, layout.payload_off))
        })
        .collect();
    let mut cache = DecodeCache::new(4096);
    let mut scratch = new_scratch();
    let probe = best_of_5(|| {
        let mut acc = 0usize;
        for &(fid, i, from, to) in &located {
            if let Ok(p) = cache.lookup_or_decode(fid, &trace.frame(i)[from..to], &mut scratch) {
                acc ^= p.start_pc();
            }
        }
        black_box(acc);
    });
    out.insert("decode_cache.probe_ns", probe / located.len().max(1) as f64);

    // protect: slot resolution once per frame, then one slot-indexed
    // lookup per stage the FID holds.
    let stages: BTreeMap<u16, Vec<usize>> = protect
        .resident_fids()
        .into_iter()
        .map(|f| (f, protect.stages_of(f)))
        .collect();
    let per_frame: Vec<(u16, &[usize])> = located
        .iter()
        .map(|&(fid, ..)| (fid, stages.get(&fid).map_or(&[][..], Vec::as_slice)))
        .collect();
    let lookup = best_of_5(|| {
        let mut acc = 0u32;
        for &(fid, stages) in &per_frame {
            if let Some(slot) = protect.slot_of(fid) {
                for &s in stages {
                    if let Some(e) = protect.lookup_slot(s, slot) {
                        acc ^= e.lo;
                    }
                }
            }
        }
        black_box(acc);
    });
    out.insert("protect.lookup_ns", lookup / per_frame.len().max(1) as f64);
}

/// The allocator's share, measured by replaying the admission sequence
/// on a bare `Allocator`, and the verifier's, by calling `verify` on
/// each shipped program against the regions that replay granted.
#[derive(Debug, Default)]
struct BareReplay {
    admit_ns: Vec<u64>,
    verify_ns: Vec<u64>,
    mutants: u64,
    feasible: u64,
    victims: u64,
    rejected: u64,
    utilization: f64,
}

impl BareReplay {
    fn report(&mut self, out: &mut Layers) {
        let n = self.admit_ns.len().max(1) as f64;
        if !self.admit_ns.is_empty() {
            let (p50, tail) = slice_percentiles_us(&mut self.admit_ns, 0.90);
            out.insert("alloc.admit_us_p50", p50);
            out.insert("alloc.admit_us_tail", tail);
        }
        out.insert("alloc.mutants_considered", self.mutants as f64 / n);
        out.insert("alloc.feasible_candidates", self.feasible as f64 / n);
        out.insert("alloc.victims_per_admit", self.victims as f64 / n);
        out.insert("alloc.utilization", self.utilization);
        out.insert("alloc.rejected", self.rejected as f64);
        let v = self.verify_ns.len().max(1) as f64;
        out.insert(
            "analysis.verify_us",
            self.verify_ns.iter().sum::<u64>() as f64 / v / 1e3,
        );
    }
}

fn verify_outside(cfg: &SwitchConfig, kind: AppKind, outcome: &AllocOutcome) -> u64 {
    let program = &service_of(kind).spec.program;
    let t = Instant::now();
    if let Ok(padded) = pad_to_positions(program, &outcome.mutant.positions) {
        black_box(check_mutant_equivalence(program, &padded));
        let mut ctx =
            AnalysisContext::new(cfg.num_stages, cfg.ingress_stages, cfg.max_recirculations)
                .with_assumptions(Assumptions::admission());
        for p in &outcome.placements {
            let (start, end) = p.range.to_registers(cfg.block_regs);
            ctx = ctx.with_region(p.stage, start, end);
        }
        black_box(verify(padded.instructions(), &ctx).accepted());
    }
    t.elapsed().as_nanos() as u64
}

/// Replay `residents` (most-constrained) and then `script` on a bare
/// allocator. Measures the script's arrivals, or the residents' when
/// the script is empty.
fn bare_replay(cfg: &SwitchConfig, inputs: &CtlInputs) -> BareReplay {
    let mut alloc = Allocator::new(AllocatorConfig::from_switch(cfg, Scheme::WorstFit));
    let mut r = BareReplay::default();
    let mut residents: Vec<(AppKind, u16)> = Vec::new();
    let measure_residents = inputs.pairs.is_empty();
    let arrive = |alloc: &mut Allocator,
                  residents: &mut Vec<(AppKind, u16)>,
                  who: (AppKind, u16),
                  policy: MutantPolicy,
                  measured: bool,
                  r: &mut BareReplay| {
        let pattern = service_of(who.0).pattern.clone();
        let t = Instant::now();
        let res = alloc.admit(who.1, &pattern, policy);
        let ns = t.elapsed().as_nanos() as u64;
        match res {
            Ok(outcome) => {
                residents.push(who);
                if measured {
                    r.admit_ns.push(ns);
                    r.mutants += outcome.mutants_considered as u64;
                    r.feasible += outcome.feasible_candidates as u64;
                    r.victims += outcome.victims_by_fid().len() as u64;
                    r.verify_ns.push(verify_outside(cfg, who.0, &outcome));
                }
            }
            Err(_) => {
                if measured {
                    r.admit_ns.push(ns);
                    r.rejected += 1;
                }
            }
        }
    };
    for &who in &inputs.residents {
        arrive(
            &mut alloc,
            &mut residents,
            who,
            MutantPolicy::MostConstrained,
            measure_residents,
            &mut r,
        );
    }
    for pair in &inputs.pairs {
        if pair.depart < residents.len() {
            let (_, fid) = residents.swap_remove(pair.depart);
            let _ = alloc.release(fid);
        }
        arrive(
            &mut alloc,
            &mut residents,
            pair.arrive,
            inputs.policy,
            true,
            &mut r,
        );
    }
    r.utilization = alloc.utilization();
    r
}

fn admissions_only(residents: &[(AppKind, u16)]) -> CtlInputs {
    CtlInputs {
        policy: MutantPolicy::MostConstrained,
        residents: residents.to_vec(),
        pairs: Vec::new(),
    }
}

/// ns per frame of `reps` replays of `trace` through `plane`, best of 3.
fn replay_ns_per_frame<P: DpPlane>(plane: &mut P, trace: &FrameTrace, reps: usize) -> f64 {
    let mut io = PassIo::default();
    let ops = reps * trace.len() / P::OP_FRAMES;
    dp::replay(plane, trace, &mut io, 0..ops / 2, &mut NoProbe, None);
    (0..3)
        .map(|_| {
            let t = Instant::now();
            dp::replay(plane, trace, &mut io, 0..ops, &mut NoProbe, None);
            t.elapsed().as_nanos() as f64 / (ops * P::OP_FRAMES) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Plain Ethernet frames (not active): the runtime's L2 fast path.
fn passthrough_ns_per_frame(cfg: &SwitchConfig) -> f64 {
    let mut trace = FrameTrace::default();
    let mut frame = vec![0u8; 64];
    frame[..6].copy_from_slice(&SERVER_MAC);
    frame[6..12].copy_from_slice(&crate::rig::client_mac(1));
    frame[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    for i in 0..dp::ROUND {
        frame[14] = i as u8;
        trace.push(&frame);
    }
    replay_ns_per_frame(&mut SwitchRuntime::new(*cfg), &trace, 64)
}

fn vm_rss_bytes() -> f64 {
    proc_status_kb("VmRSS") * 1024.0
}

/// Copy the named exact counters of the untraced pass, and the
/// decode-cache hit ratio they imply.
fn copy_counts(c: &Counts, names: &[&'static str], out: &mut Layers) {
    for &name in names {
        out.insert(name, c.get(name) as f64);
    }
    let (hits, misses) = (c.get("decode_cache.hits"), c.get("decode_cache.misses"));
    out.insert(
        "decode_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

impl<P: DpPlane> LayerSource for DpWorkload<P> {
    fn layers(&mut self, cx: &TraceContext<'_>, out: &mut Layers) -> Result<(), String> {
        let cfg = self.inputs.cfg;
        let frames = cx.reference.units_per_slice as f64;
        let c = &cx.reference.counts;
        span_means(cx, out);

        // ----- counters of the untraced pass -----
        copy_counts(
            c,
            &[
                "decode_cache.hits",
                "decode_cache.misses",
                "decode_cache.evictions",
                "decode_cache.invalidations",
                "runtime.recirculations",
                "runtime.mem_accesses",
                "runtime.drops_malformed",
                "runtime.drops_violation",
            ],
            out,
        );
        let instrs_per_frame = c.get("runtime.instructions") as f64 / frames;
        out.insert("runtime.instrs_per_frame", instrs_per_frame);
        out.insert(
            "runtime.passes_per_frame",
            1.0 + c.get("runtime.recirculations") as f64 / frames,
        );
        out.insert(
            "runtime.allocs_per_frame",
            self.detail.allocs as f64 / frames,
        );
        out.insert("protect.entries", self.detail.protect_entries as f64);

        // ----- sub-frame layers: isolated loops over this trace -----
        let rig = dp::bring_up(&self.inputs, SwitchRuntime::new(cfg), &mut NoProbe)?;
        frame_layers(&self.inputs.trace, rig.plane.protection(), out);
        drop(rig);

        // ----- two-point fit: per-instruction slope, fixed intercept -----
        let point = |kind: DpKind, reps: usize| -> Result<(f64, f64), String> {
            let inp = dp::generate(kind, cx.seed, reps)?;
            let mut w = DpWorkload::<SwitchRuntime>::new("fit", 0.99, inp);
            let r = run(&mut w, &mut NoProbe, Budget::Slices(3))?;
            Ok((
                r.counts.get("runtime.instructions") as f64 / r.units_per_slice as f64,
                r.busy_ns_per_unit,
            ))
        };
        let (short_ipf, short_ns) = point(DpKind::Short, 8)?;
        let (long_ipf, long_ns) = point(DpKind::Long, 4)?;
        let ns_per_instr = (long_ns - short_ns) / (long_ipf - short_ipf);
        let fixed = short_ns - ns_per_instr * short_ipf;
        out.insert("interp.ns_per_instr", ns_per_instr);
        out.insert("runtime.fixed_ns_per_frame", fixed);
        out.insert(
            "runtime.passthrough_ns_per_frame",
            passthrough_ns_per_frame(&cfg),
        );

        // ----- the runtime's own time per frame on this workload -----
        let wall_ns = 1e9 / cx.reference.ops_per_s;
        let runtime_ns = if P::POOLED {
            self.detail.workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / frames
        } else {
            cx.reference.busy_ns_per_unit
        };
        out.insert("runtime.ns_per_frame", runtime_ns);
        out.insert(
            "bench.unexplained_ns_per_frame",
            runtime_ns
                - out["isa.parse_ns_per_frame"]
                - out["decode_cache.probe_ns"]
                - out["protect.lookup_ns"]
                - ns_per_instr * instrs_per_frame,
        );

        // ----- pool: dispatcher, handoff and wait -----
        if P::POOLED {
            let per_slice = cx.traced_slices.max(1) as f64;
            let enq = cx.span("pool.enqueue");
            let drain = cx.span("pool.drain");
            let workers = self.detail.workers.len().max(1) as f64;
            let busy: u64 = self.detail.workers.iter().map(|w| w.busy_ns).sum();
            // Warm-up rounds are not spanned, so spans cover passes only.
            out.insert(
                "pool.enqueue_ns_per_frame",
                enq.total_ns as f64 / per_slice / frames,
            );
            out.insert("pool.drain_wait_ns_per_round", drain.mean_ns());
            out.insert(
                "pool.worker_busy_share",
                busy as f64 / workers / (wall_ns * frames),
            );
            out.insert("pool.overhead_ns_per_frame", wall_ns - short_ns);
            out.insert(
                "pool.batches",
                self.detail.workers.iter().map(|w| w.batches).sum::<u64>() as f64,
            );
            out.insert(
                "pool.handoffs",
                self.detail.workers.iter().map(|w| w.handoffs).sum::<u64>() as f64,
            );
            let rss0 = vm_rss_bytes();
            let one = P::build(&cfg, 1);
            let rss1 = vm_rss_bytes();
            let two = P::build(&cfg, 2);
            let rss2 = vm_rss_bytes();
            drop((one, two));
            // Resident bytes a second worker adds on top of the first.
            out.insert(
                "pool.bytes_per_worker",
                ((rss2 - rss1) - (rss1 - rss0)).max(0.0),
            );
        }

        // ----- client -----
        out.insert("client.request_ns", self.inputs.request_ns);
        let (hits, misses) = self.inputs.template;
        out.insert(
            "client.template_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );

        // ----- allocator, verifier, controller (bring-up admissions) -----
        let mut bare = bare_replay(&cfg, &admissions_only(&self.inputs.tenants));
        out.insert("alloc.compute_share", self.detail.alloc_share);
        bare.report(out);
        out.insert("alloc.utilization", self.detail.utilization);
        out.insert("controller.verify_accepted", self.detail.verify.0 as f64);
        out.insert("controller.verify_rejected", self.detail.verify.1 as f64);
        out.insert(
            "controller.optimizer.cache_hits",
            self.detail.optimizer_cache.0 as f64,
        );
        out.insert(
            "controller.optimizer.cache_misses",
            self.detail.optimizer_cache.1 as f64,
        );
        out.insert("controller.table_update_ns", self.detail.table_update_ns);
        out.insert("controller.victims", self.detail.victims as f64);
        out.insert("controller.queue_len_max", self.detail.queue_len_max as f64);

        // ----- telemetry: the bill of keeping the registry bound -----
        let mut unbound = dp::bring_up(
            &self.inputs,
            P::build(&cfg, self.inputs.workers),
            &mut NoProbe,
        )?;
        let free = replay_ns_per_frame(&mut unbound.plane, &self.inputs.trace, 4);
        drop(unbound);
        let mut bound = dp::bring_up(
            &self.inputs,
            P::build(&cfg, self.inputs.workers),
            &mut NoProbe,
        )?;
        let hub = Telemetry::new();
        bound.plane.bind_hub(&hub);
        let billed = replay_ns_per_frame(&mut bound.plane, &self.inputs.trace, 4);
        out.insert("telemetry.bound_ns_per_frame", billed - free);
        let t = Instant::now();
        black_box(hub.snapshot(0).to_json());
        out.insert("telemetry.snapshot_us", t.elapsed().as_nanos() as f64 / 1e3);
        Ok(())
    }
}

/// A standalone switch with the sim's eight caches admitted and
/// populated, for pricing what the simulation's frames cost the switch
/// and the clients outside the event loop.
struct StandaloneSwitch {
    node: SwitchNode,
    apps: Vec<CacheApp>,
}

impl StandaloneSwitch {
    fn new() -> Result<StandaloneSwitch, String> {
        let cfg = sim::switch_config();
        let mut s = StandaloneSwitch {
            node: SwitchNode::new(SWITCH_MAC, cfg, Scheme::WorstFit),
            apps: Vec::new(),
        };
        let mut now = 0u64;
        for i in 1..=sim::CLIENTS {
            let mut app = CacheApp::new(
                100 + i,
                sim::client_mac(i),
                SWITCH_MAC,
                SERVER_MAC,
                MutantPolicy::MostConstrained,
                cfg.num_stages,
                cfg.ingress_stages,
                cfg.max_extra_recircs,
            );
            now += 1_000_000;
            let req = app.request_allocation(now);
            s.apps.push(app);
            s.pump(vec![req], &mut now);
            let top: Vec<(u64, u32)> = (1..=512u64).map(|k| (k, value_of(k))).collect();
            let writes = s.apps.last_mut().expect("just pushed").populate(&top);
            s.pump(writes, &mut now);
        }
        if s.apps
            .iter()
            .any(|a| !a.operational() || !a.pending_sync().is_empty())
        {
            return Err("standalone switch: a cache is not serving".into());
        }
        Ok(s)
    }

    /// Deliver `frames` to the switch and its emissions to the clients
    /// until nothing is in flight.
    fn pump(&mut self, frames: Vec<Vec<u8>>, now: &mut u64) {
        let mut to_switch = std::collections::VecDeque::from(frames);
        loop {
            while let Some(f) = to_switch.pop_front() {
                *now += 1_000;
                for e in self.node.handle_frame(*now, f) {
                    self.client_rx(&e.frame, *now, &mut to_switch);
                }
            }
            *now += 100_000;
            for e in self.node.poll(*now) {
                self.client_rx(&e.frame, *now, &mut to_switch);
            }
            if to_switch.is_empty() {
                break;
            }
        }
    }

    fn client_rx(
        &mut self,
        frame: &[u8],
        now: u64,
        to_switch: &mut std::collections::VecDeque<Vec<u8>>,
    ) {
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            return;
        };
        let dst = eth.dst();
        let Some(app) = self
            .apps
            .iter_mut()
            .find(|a| sim::client_mac(a.fid() - 100) == dst)
        else {
            return; // toward the server
        };
        let r = app.handle_frame(frame);
        to_switch.extend(r.frames);
        if r.event == Some(CacheEvent::SnapshotNeeded) {
            to_switch.push_back(app.snapshot_complete(now));
        }
    }
}

impl LayerSource for SimWorkload {
    fn layers(&mut self, cx: &TraceContext<'_>, out: &mut Layers) -> Result<(), String> {
        let c = &cx.reference.counts;
        let delivered = cx.reference.units_per_slice as f64;
        copy_counts(
            c,
            &[
                "decode_cache.hits",
                "decode_cache.misses",
                "decode_cache.evictions",
                "decode_cache.invalidations",
                "runtime.drops_malformed",
                "runtime.drops_violation",
                "sim.delivered",
                "sim.realloc_rounds",
            ],
            out,
        );
        out.insert("sim.lost", self.detail.lost as f64);
        out.insert("sim.first_hit_virt_ms", self.detail.first_hit_virt_ms);

        // ----- the switch and the clients outside the event loop -----
        let mut s = StandaloneSwitch::new()?;
        let mut rng = SmallRng::seed_from_u64(cx.seed);
        let zipf = Zipf::new(10_000, 1.2);
        const REQUESTS: usize = 32_768;
        let mut trace = FrameTrace::default();
        let payload = [0u8; 13];
        let t = Instant::now();
        for i in 0..REQUESTS {
            let app = &mut s.apps[i % sim::CLIENTS as usize];
            let key = zipf.sample(&mut rng) as u64 + 1;
            let frame = app
                .get_frame(key, &payload)
                .ok_or("standalone cache refused")?;
            trace.push(&frame);
        }
        let request_ns = t.elapsed().as_nanos() as f64 / REQUESTS as f64;
        out.insert("client.request_ns", request_ns);
        frame_layers(&trace, s.node.protection(), out);
        out.insert(
            "protect.entries",
            s.node.protection().total_entries() as f64,
        );
        let handle = best_of_5(|| {
            for i in 0..trace.len() {
                black_box(s.node.handle_frame(0, trace.frame(i).to_vec()));
            }
        }) / trace.len() as f64;
        out.insert("switch.handle_frame_ns", handle);
        out.insert("runtime.ns_per_frame", handle);
        let poll = best_of_5(|| {
            for i in 0..1000u64 {
                black_box(s.node.poll(i));
            }
        }) / 1000.0;
        out.insert("switch.poll_us", poll / 1e3);
        // Every delivered frame crossed the switch once; every request
        // was built once.
        let wall_ns = 1e9 / cx.reference.ops_per_s;
        let requests_per_frame = self.detail.requests as f64 / delivered.max(1.0);
        out.insert(
            "sim.overhead_ns_per_frame",
            wall_ns - handle - request_ns * requests_per_frame,
        );

        // ----- client shims, controller and allocator inside the sim -----
        let mut live = sim::build(&sim::client_configs(cx.seed));
        live.run_until(60_000_000);
        let (mut hits, mut misses) = (0u64, 0u64);
        for i in 1..=sim::CLIENTS {
            if let Some(h) = live.host::<CacheClientHost>(sim::client_mac(i)) {
                let (h_, m_, _) = h.cache().shim().template_cache_stats();
                hits += h_;
                misses += m_;
            }
        }
        out.insert(
            "client.template_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        if let Some(snap) = &self.detail.telemetry {
            let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
            out.insert(
                "controller.verify_accepted",
                counter("controller.verify_accepted"),
            );
            out.insert(
                "controller.verify_rejected",
                counter("controller.verify_rejected"),
            );
            out.insert(
                "controller.optimizer.cache_hits",
                counter("controller.optimizer.cache_hits"),
            );
            out.insert(
                "controller.optimizer.cache_misses",
                counter("controller.optimizer.cache_misses"),
            );
            let t = Instant::now();
            black_box(snap.to_json());
            out.insert("telemetry.snapshot_us", t.elapsed().as_nanos() as f64 / 1e3);
        }
        let residents: Vec<(AppKind, u16)> = (1..=sim::CLIENTS)
            .map(|i| (AppKind::Cache, 100 + i))
            .collect();
        let mut bare = bare_replay(&sim::switch_config(), &admissions_only(&residents));
        bare.report(out);
        let ctl = live.switch().controller();
        out.insert("alloc.utilization", ctl.allocator().utilization());
        let reports = live.switch().reports();
        out.insert(
            "controller.victims",
            reports.iter().map(|(_, r)| r.victim_count as f64).sum(),
        );
        out.insert(
            "controller.table_update_ns",
            reports
                .iter()
                .map(|(_, r)| r.table_update_ns as f64)
                .sum::<f64>()
                / reports.len().max(1) as f64,
        );
        Ok(())
    }
}

impl LayerSource for CtlWorkload {
    fn prepare_traced(&mut self) {
        self.keep_system = true;
    }

    fn layers(&mut self, cx: &TraceContext<'_>, out: &mut Layers) -> Result<(), String> {
        let cfg = SwitchConfig::default();
        span_means(cx, out);
        // Departures are not ops; their handler time is a layer metric.
        if !self.detail.depart_ns.is_empty() {
            let mut d = self.detail.depart_ns.clone();
            d.sort_unstable();
            out.insert(
                "controller.dealloc_us",
                quantile_sorted(&d, 0.5) as f64 / 1e3,
            );
        }
        let c = &cx.reference.counts;
        for name in [
            "controller.verify_accepted",
            "controller.verify_rejected",
            "controller.victims",
            "oplog.records",
            "protect.entries",
        ] {
            out.insert(name, c.get(name) as f64);
        }

        // ----- allocator and verifier, replayed bare -----
        let mut bare = bare_replay(&cfg, &self.inputs);
        out.insert("alloc.compute_share", self.detail.alloc_share);
        bare.report(out);

        // ----- the slice's final system: log, recovery, telemetry -----
        let sys = self
            .detail
            .system
            .as_mut()
            .ok_or("traced run kept no final system")?;
        let (hits, misses) = sys.ctl.optimizer_cache_stats();
        out.insert("controller.optimizer.cache_hits", hits as f64);
        out.insert("controller.optimizer.cache_misses", misses as f64);
        out.insert("controller.queue_len_max", sys.queue_len_max as f64);
        out.insert(
            "controller.table_update_ns",
            sys.reports
                .iter()
                .map(|r| r.table_update_ns as f64)
                .sum::<f64>()
                / sys.reports.len().max(1) as f64,
        );
        out.insert("alloc.utilization", sys.ctl.allocator().utilization());
        let records = sys.log.records();
        out.insert(
            "oplog.bytes",
            records
                .iter()
                .map(|r| r.encode_line().len() as f64 + 1.0)
                .sum(),
        );
        let log = sys.log.deep_clone();
        let t = Instant::now();
        let mut recovered = Controller::recover(&log, &cfg, Scheme::WorstFit);
        out.insert("oplog.recover_ms", t.elapsed().as_nanos() as f64 / 1e6);
        let t = Instant::now();
        black_box(recovered.reconcile(&mut sys.rt, u64::MAX / 2));
        out.insert("oplog.reconcile_us", t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        black_box(sys.telemetry.snapshot(0).to_json());
        out.insert("telemetry.snapshot_us", t.elapsed().as_nanos() as f64 / 1e3);
        let ds = sys.rt.decode_stats();
        out.insert("decode_cache.invalidations", ds.invalidations as f64);
        Ok(())
    }
}

/// The `dp_short` attribution table: isolated layer costs and
/// `interp.ns_per_instr × instrs` beside `runtime.ns_per_frame`, with
/// the unexplained remainder as its own row.
pub fn attribution_table(l: &Layers) -> String {
    let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let interp = get("interp.ns_per_instr") * get("runtime.instrs_per_frame");
    let rows = [
        ("isa.parse_ns_per_frame", get("isa.parse_ns_per_frame")),
        ("decode_cache.probe_ns", get("decode_cache.probe_ns")),
        ("protect.lookup_ns", get("protect.lookup_ns")),
        ("interp.ns_per_instr x instrs", interp),
        (
            "unexplained (writeback, output push, accounting)",
            get("bench.unexplained_ns_per_frame"),
        ),
        ("runtime.ns_per_frame", get("runtime.ns_per_frame")),
    ];
    let mut s = String::from("layer                                              ns/frame\n");
    for (name, v) in rows {
        s.push_str(&format!("{name:<50} {v:>8.1}\n"));
    }
    s
}

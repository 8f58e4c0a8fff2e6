//! Application hosts: the client machines of the Section 6 testbed.
//!
//! [`CacheClientHost`] reproduces the Section 6.3 case-study client: it
//! sends application-level GET requests continuously ("as fast as
//! possible" scaled to a configurable rate), and walks through the
//! service lifecycle — optionally a frequent-item monitoring phase
//! (deploy Listing 2, sketch the stream, extract the directory, context
//! switch), then cache allocation, population and serving. Hits come
//! back switch-turned; misses continue to the backend and return as
//! plain server responses. Every response is recorded as a timestamped
//! hit/miss sample, which is exactly what Figures 9a, 9b and 10 plot.
//!
//! [`LatencyProbeHost`] measures active-program RTTs for Figure 8b.

use crate::host::Host;
use crate::trace::Series;
use activermt_apps::cache::{CacheApp, CacheEvent};
use activermt_apps::hh::{HeavyHitterApp, HhEvent};
use activermt_apps::kvstore::{value_of, KvMessage, KvOp};
use activermt_apps::workload::Zipf;
use activermt_core::alloc::MutantPolicy;
use activermt_isa::wire::EthernetFrame;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;

/// Lifecycle phase of the case-study client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not yet started (before the staggered arrival time).
    Waiting,
    /// Monitor allocation requested.
    MonitorNegotiating,
    /// Frequent-item monitoring in progress.
    Monitoring,
    /// Extracting the monitor directory via memsync.
    Extracting,
    /// Cache allocation requested (after deallocating the monitor).
    CacheNegotiating,
    /// Writing objects into the cache.
    Populating,
    /// Steady-state serving.
    Serving,
    /// The shim's retransmission deadline expired without a switch
    /// answer; the client fell back to the server path (requests still
    /// flow, unaccelerated).
    Degraded,
}

/// Configuration for a [`CacheClientHost`].
#[derive(Debug, Clone)]
pub struct CacheClientConfig {
    /// Client MAC.
    pub mac: [u8; 6],
    /// Switch MAC (control traffic).
    pub switch_mac: [u8; 6],
    /// Backend server MAC.
    pub server_mac: [u8; 6],
    /// Service FID.
    pub fid: u16,
    /// When this client arrives (staggered in Figure 9b), ns.
    pub start_ns: u64,
    /// Run the monitor phase first for this long (Figure 9a), or skip
    /// straight to the cache (Figure 9b omits the monitor "for sake of
    /// brevity").
    pub monitor_ns: Option<u64>,
    /// Objects to populate (top-k of the monitor output, or of the
    /// known key popularity when the monitor is skipped).
    pub populate_top: usize,
    /// Request inter-arrival time, ns.
    pub req_interval_ns: u64,
    /// Number of distinct keys.
    pub keyspace: usize,
    /// Zipf exponent.
    pub zipf_alpha: f64,
    /// RNG seed.
    pub seed: u64,
    /// Allocation policy (Figure 9b uses most-constrained "to limit
    /// bandwidth inflation").
    pub policy: MutantPolicy,
    /// Pipeline dimensions (must match the switch).
    pub num_stages: usize,
    /// Ingress stages.
    pub ingress_stages: usize,
    /// Extra recirculations under the least-constrained policy.
    pub max_extra_recircs: u8,
}

/// The case-study client host.
pub struct CacheClientHost {
    cfg: CacheClientConfig,
    cache: CacheApp,
    monitor: Option<HeavyHitterApp>,
    zipf: Zipf,
    rng: SmallRng,
    phase: Phase,
    monitor_deadline: u64,
    last_sync_resend: u64,
    /// Pending snapshot acknowledgement: send at this time (models the
    /// data-plane state extraction of Section 4.3, which dominates the
    /// Figure 10 disruption window).
    snapshot_ready_at: Option<u64>,
    /// Memsync frames re-sent after the periodic timeout.
    sync_retransmits: u64,
    /// Hit/miss outcomes over time: sample 1.0 per hit, 0.0 per miss.
    pub outcomes: Series,
    /// Requests sent.
    pub sent: u64,
    /// Cache hits observed.
    pub hits: u64,
    /// Misses (server responses) observed.
    pub misses: u64,
    /// Hits whose value failed the integrity check (torn entries while
    /// population writes are still outstanding — see the lossy_e2e
    /// tests).
    pub value_errors: u64,
    /// When the last value error was observed.
    pub last_value_error_at: Option<u64>,
    /// When the client became fully operational (first population ack).
    pub serving_since: Option<u64>,
}

impl CacheClientHost {
    /// Build the client.
    pub fn new(cfg: CacheClientConfig) -> CacheClientHost {
        let cache = CacheApp::new(
            cfg.fid,
            cfg.mac,
            cfg.switch_mac,
            cfg.server_mac,
            cfg.policy,
            cfg.num_stages,
            cfg.ingress_stages,
            cfg.max_extra_recircs,
        );
        let monitor = cfg.monitor_ns.map(|_| {
            HeavyHitterApp::new(
                // The monitor is its own service instance: distinct FID.
                cfg.fid | 0x8000,
                cfg.mac,
                cfg.switch_mac,
                cfg.server_mac,
                cfg.policy,
                cfg.num_stages,
                cfg.ingress_stages,
                cfg.max_extra_recircs,
            )
        });
        CacheClientHost {
            zipf: Zipf::new(cfg.keyspace, cfg.zipf_alpha),
            rng: SmallRng::seed_from_u64(cfg.seed),
            cache,
            monitor,
            phase: Phase::Waiting,
            monitor_deadline: 0,
            last_sync_resend: 0,
            snapshot_ready_at: None,
            sync_retransmits: 0,
            outcomes: Series::new(),
            sent: 0,
            hits: 0,
            misses: 0,
            value_errors: 0,
            last_value_error_at: None,
            serving_since: None,
            cfg,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The cache service (inspection).
    pub fn cache(&self) -> &CacheApp {
        &self.cache
    }

    /// Observed hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Draw the next request key (1-based so key 0 never occurs — the
    /// monitor directory uses 0 as "empty").
    fn next_key(&mut self) -> u64 {
        self.zipf.sample(&mut self.rng) as u64 + 1
    }

    /// The known top-k popular keys with their canonical values.
    fn known_top(&self, k: usize) -> Vec<(u64, u32)> {
        (0..k.min(self.zipf.len()))
            .map(|rank| {
                let key = rank as u64 + 1;
                (key, value_of(key))
            })
            .collect()
    }

    fn request_payload(&mut self) -> Vec<u8> {
        let key = self.next_key();
        KvMessage {
            op: KvOp::Get,
            key,
            value: 0,
        }
        .encode()
    }

    /// One request, activated per the current phase.
    fn request_frame(&mut self, _now: u64) -> Option<Vec<u8>> {
        let payload = self.request_payload();
        let msg = KvMessage::decode(&payload).expect("own encoding");
        self.sent += 1;
        match self.phase {
            Phase::Monitoring => {
                if let Some(m) = self.monitor.as_mut() {
                    if let Some(f) = m.monitor_frame(msg.key, &payload) {
                        return Some(f);
                    }
                }
                Some(self.plain_frame(payload))
            }
            Phase::Serving | Phase::Populating => {
                if self.cache.operational() {
                    if let Some(f) = self.cache.get_frame(msg.key, &payload) {
                        return Some(f);
                    }
                }
                Some(self.plain_frame(payload))
            }
            _ => Some(self.plain_frame(payload)),
        }
    }

    fn plain_frame(&self, payload: Vec<u8>) -> Vec<u8> {
        let mut f = vec![0u8; 14];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut f[..]);
            eth.set_dst(self.cfg.server_mac);
            eth.set_src(self.cfg.mac);
            eth.set_ethertype(0x0800);
        }
        f.extend_from_slice(&payload);
        f
    }
}

impl Host for CacheClientHost {
    fn mac(&self) -> [u8; 6] {
        self.cfg.mac
    }

    fn fault_stats(&self) -> crate::host::HostFaultStats {
        let shim = self.cache.shim();
        let monitor = self
            .monitor
            .as_ref()
            .map(activermt_apps::HeavyHitterApp::shim);
        crate::host::HostFaultStats {
            malformed_frames: shim.malformed_frames()
                + monitor.map_or(0, activermt_client::shim::Shim::malformed_frames),
            retransmits: shim.retransmits()
                + monitor.map_or(0, activermt_client::shim::Shim::retransmits)
                + self.sync_retransmits,
        }
    }

    fn tick_interval(&self) -> Option<u64> {
        Some(self.cfg.req_interval_ns)
    }

    fn on_tick(&mut self, now: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        // Phase transitions driven by time.
        if self.phase == Phase::Waiting && now >= self.cfg.start_ns {
            match (&mut self.monitor, self.cfg.monitor_ns) {
                (Some(m), Some(dur)) => {
                    self.monitor_deadline = now + dur;
                    out.push(m.request_allocation(now));
                    self.phase = Phase::MonitorNegotiating;
                }
                _ => {
                    out.push(self.cache.request_allocation(now));
                    self.phase = Phase::CacheNegotiating;
                }
            }
        }
        // Drive the shims' retransmission timers (lost allocation
        // requests and snapshot acks are re-sent with backoff; past the
        // deadline the service degrades to the plain server path).
        let r = self.cache.poll(now);
        out.extend(r.frames);
        if r.event == Some(CacheEvent::Degraded) {
            self.phase = Phase::Degraded;
        }
        if let Some(m) = self.monitor.as_mut() {
            let (ev, frames) = m.poll(now);
            out.extend(frames);
            if ev == Some(HhEvent::Degraded) && self.phase == Phase::MonitorNegotiating {
                // Give up on the monitor; try the cache directly.
                out.push(self.cache.request_allocation(now));
                self.phase = Phase::CacheNegotiating;
            }
        }
        if self.phase == Phase::Monitoring && now >= self.monitor_deadline {
            if let Some(m) = self.monitor.as_mut() {
                // Section 6.3: "the client performs a memory
                // synchronization to retrieve the thresholds and their
                // corresponding keys".
                out.extend(m.extract_frames());
                self.phase = Phase::Extracting;
            }
        }
        // A pending snapshot extraction completed: acknowledge it.
        if let Some(ready) = self.snapshot_ready_at {
            if now >= ready {
                self.snapshot_ready_at = None;
                out.push(self.cache.snapshot_complete(now));
            }
        }
        // Retransmit unacknowledged memsync packets ("the client can
        // safely retransmit after a timeout") — in every phase: losses
        // can leave writes outstanding long after serving began (e.g.
        // repopulation after a reallocation).
        if now.saturating_sub(self.last_sync_resend) > 5_000_000 {
            self.last_sync_resend = now;
            let before = out.len();
            if let Some(m) = self.monitor.as_ref() {
                out.extend(m.pending_sync());
            }
            out.extend(self.cache.pending_sync());
            self.sync_retransmits += (out.len() - before) as u64;
        }
        // The request stream never stops.
        if self.phase != Phase::Waiting || now >= self.cfg.start_ns {
            if let Some(f) = self.request_frame(now) {
                out.push(f);
            }
        }
        out
    }

    fn on_frame(&mut self, now: u64, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        // Plain server responses are miss completions.
        if let Ok(eth) = EthernetFrame::new_checked(&frame[..]) {
            if eth.ethertype() != activermt_isa::constants::ACTIVE_ETHERTYPE {
                if KvMessage::decode(eth.payload()).is_some() {
                    self.misses += 1;
                    self.outcomes.push(now, 0.0);
                }
                return out;
            }
        }
        // Monitor-side traffic.
        if let Some(m) = self.monitor.as_mut() {
            match m.handle_frame(&frame) {
                Some(HhEvent::Allocated) => {
                    if self.phase == Phase::MonitorNegotiating {
                        self.phase = Phase::Monitoring;
                    }
                    return out;
                }
                Some(HhEvent::AllocationFailed) => {
                    // Fall back to the cache directly.
                    out.push(self.cache.request_allocation(now));
                    self.phase = Phase::CacheNegotiating;
                    return out;
                }
                Some(HhEvent::ExtractProgress { remaining }) => {
                    if remaining == 0 && self.phase == Phase::Extracting {
                        // Context switch (Section 6.3): deallocate the
                        // monitor, then request the cache allocation.
                        out.push(m.deallocate());
                        out.push(self.cache.request_allocation(now));
                        self.phase = Phase::CacheNegotiating;
                    }
                    return out;
                }
                Some(HhEvent::Degraded) | None => {}
            }
        }
        // Cache-side traffic.
        let reaction = self.cache.handle_frame(&frame);
        out.extend(reaction.frames);
        match reaction.event {
            Some(CacheEvent::Allocated) => {
                let top = match self.monitor.as_ref() {
                    Some(m) if self.cfg.monitor_ns.is_some() => {
                        let items = m.frequent_items();
                        items
                            .into_iter()
                            .take(self.cfg.populate_top)
                            .map(|it| (it.key, value_of(it.key)))
                            .collect()
                    }
                    _ => self.known_top(self.cfg.populate_top),
                };
                out.extend(self.cache.populate(&top));
                self.phase = Phase::Populating;
            }
            Some(CacheEvent::SnapshotNeeded) => {
                // Extract state through the data plane: one register per
                // bucket per stage at ~1 µs effective per register
                // (Section 4.3's packetized reads at line rate).
                let cost = self.cache.snapshot_cost_regs() / 3;
                self.snapshot_ready_at = Some(now + cost * 1_000);
            }
            Some(CacheEvent::Reallocated) => {
                // Repopulation frames were already emitted by the app.
            }
            Some(CacheEvent::SyncAcked) => {
                if self.phase == Phase::Populating && self.cache.pending_sync_count() == 0 {
                    self.phase = Phase::Serving;
                    self.serving_since.get_or_insert(now);
                }
            }
            Some(CacheEvent::Hit { key, value }) => {
                self.hits += 1;
                if value != value_of(key) {
                    self.value_errors += 1;
                    self.last_value_error_at = Some(now);
                }
                self.outcomes.push(now, 1.0);
            }
            Some(CacheEvent::AllocationFailed | CacheEvent::Degraded) | None => {}
        }
        out
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A latency probe: sends NOP+RTS programs of configurable length and
/// records switch-turned RTTs (Figure 8b).
pub struct LatencyProbeHost {
    mac: [u8; 6],
    far_mac: [u8; 6],
    fid: u16,
    /// Instructions per probe (NOPs + RTS + RETURN).
    pub program_len: usize,
    /// Payload padding to reach the paper's 256-byte packets.
    pub pad_to: usize,
    interval_ns: u64,
    seq: u16,
    in_flight: std::collections::HashMap<u16, u64>,
    malformed: u64,
    /// Completed RTT samples, ns.
    pub rtts: Vec<u64>,
}

impl LatencyProbeHost {
    /// A probe sending a `program_len`-instruction program every
    /// `interval_ns`.
    pub fn new(
        mac: [u8; 6],
        far_mac: [u8; 6],
        fid: u16,
        program_len: usize,
        interval_ns: u64,
    ) -> LatencyProbeHost {
        assert!(program_len >= 2, "need at least RTS + RETURN");
        LatencyProbeHost {
            mac,
            far_mac,
            fid,
            program_len,
            pad_to: 256,
            interval_ns,
            seq: 0,
            in_flight: std::collections::HashMap::new(),
            malformed: 0,
            rtts: Vec::new(),
        }
    }

    fn probe_program(&self) -> activermt_isa::Program {
        use activermt_isa::{Opcode, ProgramBuilder};
        let mut b = ProgramBuilder::new().op(Opcode::RTS);
        for _ in 0..self.program_len - 2 {
            b = b.op(Opcode::NOP);
        }
        b.op(Opcode::RETURN).build().expect("probe is valid")
    }
}

impl Host for LatencyProbeHost {
    fn mac(&self) -> [u8; 6] {
        self.mac
    }

    fn fault_stats(&self) -> crate::host::HostFaultStats {
        crate::host::HostFaultStats {
            malformed_frames: self.malformed,
            retransmits: 0,
        }
    }

    fn tick_interval(&self) -> Option<u64> {
        Some(self.interval_ns)
    }

    fn on_tick(&mut self, now: u64) -> Vec<Vec<u8>> {
        self.seq = self.seq.wrapping_add(1);
        let program = self.probe_program();
        let base = activermt_isa::wire::build_program_packet(
            self.far_mac,
            self.mac,
            self.fid,
            self.seq,
            &program,
            &vec![0u8; self.pad_to.saturating_sub(64)],
        );
        self.in_flight.insert(self.seq, now);
        vec![base]
    }

    fn on_frame(&mut self, now: u64, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let Some(body) = frame.get(14..) else {
            self.malformed += 1;
            return Vec::new();
        };
        match activermt_isa::wire::ActiveHeader::new_checked(body) {
            Ok(hdr) => {
                if hdr.fid() == self.fid {
                    if let Some(sent) = self.in_flight.remove(&hdr.seq()) {
                        self.rtts.push(now - sent);
                    }
                }
            }
            Err(_) => self.malformed += 1,
        }
        Vec::new()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

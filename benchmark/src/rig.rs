//! An in-process wire between client applications, the controller and
//! a data plane — what `SwitchNode` + `Simulation` do over a simulated
//! network, minus the network, so bring-up of the data-plane workloads
//! runs the real admission path (`Compiler`, shim synthesis,
//! `Controller::handle_request_with_program`, the Section 4.3
//! snapshot/reactivate protocol, memsync population through the data
//! plane) against either a `SwitchRuntime` or a `ShardedExecutor`.
//!
//! Every public call into a layer is wrapped in a span (see
//! [`crate::probe`]).

use crate::probe::Probe;
use activermt_apps::cache::{CacheApp, CacheEvent};
use activermt_apps::hh::HeavyHitterApp;
use activermt_apps::lb::CheetahLb;
use activermt_client::{CompiledService, Shim};
use activermt_core::alloc::{AccessPattern, MutantPolicy, Scheme};
use activermt_core::controller::{Controller, ControllerAction, ProvisioningReport};
use activermt_core::runtime::{
    DataPlane, OutputAction, ShardedExecutor, SwitchOutput, SwitchRuntime, TaggedOutput,
};
use activermt_core::SwitchConfig;
use activermt_isa::constants::{ALLOC_REQUEST_LEN, ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN};
use activermt_isa::wire::{
    build_alloc_response, build_control, ActiveHeader, AllocRequest, ControlOp, PacketType,
};
use activermt_isa::Program;
use std::collections::{BTreeMap, VecDeque};

/// The switch's MAC in every rig.
pub const SWITCH_MAC: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
/// The backend server's MAC (frames forwarded there leave the rig).
pub const SERVER_MAC: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];

/// The client MAC of tenant `fid`.
pub fn client_mac(fid: u16) -> [u8; 6] {
    [2, 0, 0, (fid >> 8) as u8, fid as u8, 1]
}

/// A data plane the rig can also push single frames through (memsync
/// population and configuration during bring-up).
pub trait Plane: DataPlane {
    /// Run one frame to completion, appending its outputs to `out`.
    fn run_frame(&mut self, now_ns: u64, frame: Vec<u8>, out: &mut Vec<SwitchOutput>);
}

impl Plane for SwitchRuntime {
    fn run_frame(&mut self, now_ns: u64, frame: Vec<u8>, out: &mut Vec<SwitchOutput>) {
        self.process_frame_into(now_ns, frame, out);
    }
}

impl Plane for ShardedExecutor {
    fn run_frame(&mut self, now_ns: u64, frame: Vec<u8>, out: &mut Vec<SwitchOutput>) {
        let mut tagged: Vec<TaggedOutput> = Vec::with_capacity(2);
        self.enqueue(now_ns, frame);
        self.drain_into(&mut tagged);
        out.extend(tagged.into_iter().map(|t| t.output));
    }
}

/// The three evaluation applications (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Elastic in-network cache (Listing 1).
    Cache,
    /// Inelastic heavy-hitter monitor (Listing 2).
    HeavyHitter,
    /// Inelastic Cheetah load balancer (Listing 3).
    LoadBalancer,
}

/// The compiled service definition of `kind`.
pub fn service_of(kind: AppKind) -> CompiledService {
    match kind {
        AppKind::Cache => CacheApp::service(),
        AppKind::HeavyHitter => HeavyHitterApp::service(),
        AppKind::LoadBalancer => CheetahLb::service(),
    }
}

/// One client application behind its shim.
#[derive(Debug)]
pub enum Tenant {
    /// A cache client.
    Cache(CacheApp),
    /// A heavy-hitter monitor client.
    Hh(HeavyHitterApp),
    /// A load-balancer client.
    Lb(CheetahLb),
}

impl Tenant {
    /// Compile the service and build the client (the `client.compile`
    /// span: each app constructor runs `Compiler::compile`).
    pub fn new(kind: AppKind, fid: u16, cfg: &SwitchConfig) -> Tenant {
        let mac = client_mac(fid);
        let policy = MutantPolicy::MostConstrained;
        let (n, ing, extra) = (cfg.num_stages, cfg.ingress_stages, cfg.max_extra_recircs);
        match kind {
            AppKind::Cache => Tenant::Cache(CacheApp::new(
                fid, mac, SWITCH_MAC, SERVER_MAC, policy, n, ing, extra,
            )),
            AppKind::HeavyHitter => Tenant::Hh(HeavyHitterApp::new(
                fid, mac, SWITCH_MAC, SERVER_MAC, policy, n, ing, extra,
            )),
            AppKind::LoadBalancer => Tenant::Lb(CheetahLb::new(
                fid,
                mac,
                SWITCH_MAC,
                0x5EED_0000 | u32::from(fid),
                (1..=8).collect(),
                policy,
                n,
                ing,
                extra,
            )),
        }
    }

    fn request_allocation(&mut self, now_ns: u64) -> Vec<u8> {
        match self {
            Tenant::Cache(a) => a.request_allocation(now_ns),
            Tenant::Hh(a) => a.request_allocation(now_ns),
            Tenant::Lb(a) => a.request_allocation(now_ns),
        }
    }

    /// The shim behind the application.
    pub fn shim(&self) -> &Shim {
        match self {
            Tenant::Cache(a) => a.shim(),
            Tenant::Hh(a) => a.shim(),
            Tenant::Lb(a) => a.shim(),
        }
    }

    /// Has every population/configuration write been acknowledged?
    pub fn synced(&self) -> bool {
        match self {
            Tenant::Cache(a) => a.pending_sync().is_empty(),
            Tenant::Hh(a) => a.pending_sync().is_empty(),
            Tenant::Lb(a) => a.pending_sync().is_empty(),
        }
    }

    /// Is the application allocated, synthesized and configured?
    pub fn operational(&self) -> bool {
        match self {
            Tenant::Cache(a) => a.operational(),
            Tenant::Hh(a) => a.operational(),
            Tenant::Lb(a) => a.operational(),
        }
    }

    /// Hand the application a frame from the switch; returns what it
    /// wants transmitted in response. A quiesced cache snapshots at once
    /// (its contents are client-side) and acknowledges.
    fn handle_frame(&mut self, frame: &[u8], now_ns: u64) -> Vec<Vec<u8>> {
        match self {
            Tenant::Cache(a) => {
                let r = a.handle_frame(frame);
                let mut frames = r.frames;
                if r.event == Some(CacheEvent::SnapshotNeeded) {
                    frames.push(a.snapshot_complete(now_ns));
                }
                frames
            }
            Tenant::Hh(a) => {
                a.handle_frame(frame);
                Vec::new()
            }
            Tenant::Lb(a) => a.handle_frame(frame).1,
        }
    }
}

/// Controller + data plane + tenants, wired back to back.
#[derive(Debug)]
pub struct Rig<P: Plane> {
    /// The data plane under test.
    pub plane: P,
    /// The controller driving it.
    pub ctl: Controller,
    /// Client applications by FID.
    pub tenants: BTreeMap<u16, Tenant>,
    /// Provisioning reports, in completion order.
    pub reports: Vec<ProvisioningReport>,
    /// Admissions the switch refused.
    pub refused: u64,
    /// Largest controller queue observed after any handler call.
    pub queue_len_max: usize,
    /// Wall time spent inside [`Rig::admit`], ns.
    pub admit_ns: u64,
    now_ns: u64,
    to_switch: VecDeque<Vec<u8>>,
    outs: Vec<SwitchOutput>,
}

impl<P: Plane> Rig<P> {
    /// Wire a fresh controller to `plane`.
    pub fn new(cfg: &SwitchConfig, plane: P) -> Rig<P> {
        Rig {
            plane,
            ctl: Controller::new(cfg, Scheme::WorstFit),
            tenants: BTreeMap::new(),
            reports: Vec::new(),
            refused: 0,
            queue_len_max: 0,
            admit_ns: 0,
            now_ns: 0,
            to_switch: VecDeque::new(),
            outs: Vec::with_capacity(2),
        }
    }

    /// Compile, request, and run the admission protocol (victim
    /// snapshots, reactivations, population/configuration writes) to
    /// quiescence.
    pub fn admit<T: Probe>(&mut self, kind: AppKind, fid: u16, cfg: &SwitchConfig, probe: &mut T) {
        let t = std::time::Instant::now();
        let root = probe.begin("rig.admit", 0);
        let s = probe.begin("client.compile", root);
        let mut tenant = Tenant::new(kind, fid, cfg);
        probe.end(s);
        self.now_ns += 1_000_000;
        self.to_switch
            .push_back(tenant.request_allocation(self.now_ns));
        self.tenants.insert(fid, tenant);
        self.pump(probe, root);
        probe.end(root);
        self.admit_ns += t.elapsed().as_nanos() as u64;
    }

    /// Send application frames (e.g. a cache population) toward the
    /// switch and run until nothing is in flight.
    pub fn send<T: Probe>(&mut self, frames: Vec<Vec<u8>>, probe: &mut T) {
        let root = probe.begin("rig.send", 0);
        self.to_switch.extend(frames);
        self.pump(probe, root);
        probe.end(root);
    }

    fn pump<T: Probe>(&mut self, probe: &mut T, parent: u32) {
        loop {
            while let Some(frame) = self.to_switch.pop_front() {
                self.now_ns += 1_000;
                self.switch_rx(frame, probe, parent);
            }
            let s = probe.begin("controller.poll", parent);
            let acts = self.ctl.poll(&mut self.plane, self.now_ns);
            probe.end(s);
            self.deliver(acts, probe, parent);
            if self.to_switch.is_empty() {
                break;
            }
        }
        assert!(
            !self.ctl.busy() && self.ctl.unacked_reactivations() == 0,
            "rig quiesced with the controller mid-protocol"
        );
    }

    /// The switch's port logic: digest control traffic up to the
    /// controller, run everything else through the data plane.
    fn switch_rx<T: Probe>(&mut self, frame: Vec<u8>, probe: &mut T, parent: u32) {
        let hdr = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..])
            .expect("tenants emit well-formed active frames");
        let fid = hdr.fid();
        let now = self.now_ns;
        let acts = match hdr.flags().packet_type() {
            PacketType::AllocRequest => {
                let flags = hdr.flags();
                let body = &frame[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..];
                let req = AllocRequest::new_checked(body).expect("well-formed request");
                let program = Program::decode_instructions(&body[ALLOC_REQUEST_LEN..])
                    .expect("shims ship decodable bytecode");
                let ingress = hdr.aux();
                let pattern = AccessPattern::from_request(
                    &req.accesses(),
                    u16::from(hdr.program_len()),
                    flags.elastic(),
                    (ingress != 0).then_some(ingress),
                )
                .expect("compiled patterns are valid");
                let policy = if flags.pinned() {
                    MutantPolicy::MostConstrained
                } else {
                    MutantPolicy::LeastConstrained
                };
                let s = probe.begin("controller.request", parent);
                let acts = self.ctl.handle_request_with_program(
                    &mut self.plane,
                    fid,
                    pattern,
                    policy,
                    Some(&program),
                    now,
                );
                probe.end(s);
                acts
            }
            PacketType::Control => match hdr.control_op() {
                Ok(ControlOp::SnapshotComplete) => {
                    let s = probe.begin("controller.snapshot_ack", parent);
                    let acts = self.ctl.handle_snapshot_complete_fenced(
                        &mut self.plane,
                        fid,
                        hdr.seq(),
                        now,
                    );
                    probe.end(s);
                    acts
                }
                Ok(ControlOp::ReactivateAck) => {
                    let s = probe.begin("controller.reactivate_ack", parent);
                    self.ctl.handle_reactivate_ack_fenced(fid, hdr.seq(), now);
                    probe.end(s);
                    Vec::new()
                }
                other => panic!("unexpected control op from a tenant: {other:?}"),
            },
            _ => {
                let s = probe.begin("runtime.process_frame", parent);
                self.outs.clear();
                self.plane.run_frame(now, frame, &mut self.outs);
                probe.end(s);
                // Only switch-turned frames come back to a tenant;
                // forwarded ones leave toward the server.
                for out in std::mem::take(&mut self.outs) {
                    if out.action == OutputAction::ToSender {
                        self.tenant_rx(fid, &out.frame);
                    }
                }
                Vec::new()
            }
        };
        self.queue_len_max = self.queue_len_max.max(self.ctl.queue_len());
        self.deliver(acts, probe, parent);
    }

    fn deliver<T: Probe>(&mut self, acts: Vec<ControllerAction>, probe: &mut T, parent: u32) {
        for act in acts {
            match act {
                ControllerAction::Respond {
                    fid,
                    regions,
                    failed,
                    ..
                } => {
                    if failed {
                        self.refused += 1;
                    }
                    let frame = build_alloc_response(
                        client_mac(fid),
                        SWITCH_MAC,
                        fid,
                        0,
                        (!failed).then_some(&regions[..]),
                    );
                    // The shim places the accesses on the granted
                    // stages and synthesizes the mutant here.
                    let s = probe.begin("client.synthesize", parent);
                    self.tenant_rx(fid, &frame);
                    probe.end(s);
                }
                ControllerAction::Deactivate { fid, fence, .. } => {
                    let frame = build_control(
                        client_mac(fid),
                        SWITCH_MAC,
                        fid,
                        fence,
                        ControlOp::DeactivateNotice,
                        true,
                    );
                    self.tenant_rx(fid, &frame);
                }
                ControllerAction::Reactivate { fid, fence, .. } => {
                    let frame = build_control(
                        client_mac(fid),
                        SWITCH_MAC,
                        fid,
                        fence,
                        ControlOp::ReactivateNotice,
                        true,
                    );
                    self.tenant_rx(fid, &frame);
                }
                ControllerAction::Report(r) => self.reports.push(r),
            }
        }
    }

    fn tenant_rx(&mut self, fid: u16, frame: &[u8]) {
        if let Some(t) = self.tenants.get_mut(&fid) {
            self.to_switch.extend(t.handle_frame(frame, self.now_ns));
        }
    }
}

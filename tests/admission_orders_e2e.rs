//! Every admission order of two monitors, two caches and three load
//! balancers (`H H C C L L L`: 210 distinct orders) brought up through
//! the real compiler, shim synthesis and controller, under both mutant
//! policies. In every order every balancer must come up operational, and
//! its SYN and route programs must run without a protection violation.
//!
//! A balancer's SYN program translates each address right before the
//! access it guards, and the shim may pad NOPs between the two when its
//! granted stages are out of access order — sometimes around another of
//! the balancer's own regions. The translation must still apply the
//! entry of the stage its access runs in.
//!
//! The harness wires clients, controller and data plane back to back in
//! process, with no network in between.

use activermt::apps::cache::{CacheApp, CacheEvent};
use activermt::apps::hh::HeavyHitterApp;
use activermt::apps::lb::CheetahLb;
use activermt::core::alloc::{AccessPattern, MutantPolicy, Scheme};
use activermt::core::controller::{Controller, ControllerAction};
use activermt::core::runtime::{OutputAction, SwitchRuntime};
use activermt::core::SwitchConfig;
use activermt_isa::constants::{ALLOC_REQUEST_LEN, ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN};
use activermt_isa::wire::{
    build_alloc_response, build_control, ActiveHeader, AllocRequest, ControlOp, PacketType,
};
use activermt_isa::Program;
use std::collections::{BTreeMap, VecDeque};

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];

fn client_mac(fid: u16) -> [u8; 6] {
    [2, 0, 0, (fid >> 8) as u8, fid as u8, 1]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Monitor,
    Cache,
    Balancer,
}

enum Tenant {
    Cache(CacheApp),
    Monitor(HeavyHitterApp),
    Balancer(CheetahLb),
}

impl Tenant {
    fn new(kind: Kind, fid: u16, policy: MutantPolicy, cfg: &SwitchConfig) -> Tenant {
        let mac = client_mac(fid);
        let (n, ing, extra) = (cfg.num_stages, cfg.ingress_stages, cfg.max_extra_recircs);
        match kind {
            Kind::Cache => Tenant::Cache(CacheApp::new(
                fid, mac, SWITCH, SERVER, policy, n, ing, extra,
            )),
            Kind::Monitor => Tenant::Monitor(HeavyHitterApp::new(
                fid, mac, SWITCH, SERVER, policy, n, ing, extra,
            )),
            Kind::Balancer => Tenant::Balancer(CheetahLb::new(
                fid,
                mac,
                SWITCH,
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
            Tenant::Monitor(a) => a.request_allocation(now_ns),
            Tenant::Balancer(a) => a.request_allocation(now_ns),
        }
    }

    /// Hand the client a frame; returns what it transmits in response.
    /// A quiesced cache snapshots at once (its contents are client-side).
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
            Tenant::Monitor(a) => {
                a.handle_frame(frame);
                Vec::new()
            }
            Tenant::Balancer(a) => a.handle_frame(frame).1,
        }
    }
}

/// Clients, controller and data plane, back to back.
struct Wire {
    rt: SwitchRuntime,
    ctl: Controller,
    tenants: BTreeMap<u16, Tenant>,
    now_ns: u64,
    to_switch: VecDeque<Vec<u8>>,
}

impl Wire {
    fn new(cfg: &SwitchConfig) -> Wire {
        Wire {
            rt: SwitchRuntime::new(*cfg),
            ctl: Controller::new(cfg, Scheme::WorstFit),
            tenants: BTreeMap::new(),
            now_ns: 0,
            to_switch: VecDeque::new(),
        }
    }

    /// Compile, request, and run the admission protocol to quiescence.
    fn admit(&mut self, kind: Kind, fid: u16, policy: MutantPolicy, cfg: &SwitchConfig) {
        let mut tenant = Tenant::new(kind, fid, policy, cfg);
        self.now_ns += 1_000_000;
        self.to_switch
            .push_back(tenant.request_allocation(self.now_ns));
        self.tenants.insert(fid, tenant);
        loop {
            while let Some(frame) = self.to_switch.pop_front() {
                self.now_ns += 1_000;
                self.switch_rx(frame);
            }
            let acts = self.ctl.poll(&mut self.rt, self.now_ns);
            self.deliver(acts);
            if self.to_switch.is_empty() {
                break;
            }
        }
    }

    /// The switch's port logic: control traffic to the controller,
    /// everything else through the data plane; turned-around frames go
    /// back to their client.
    fn switch_rx(&mut self, frame: Vec<u8>) {
        let hdr = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..])
            .expect("clients emit well-formed active frames");
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
                self.ctl.handle_request_with_program(
                    &mut self.rt,
                    fid,
                    pattern,
                    policy,
                    Some(&program),
                    now,
                )
            }
            PacketType::Control => match hdr.control_op() {
                Ok(ControlOp::SnapshotComplete) => {
                    self.ctl
                        .handle_snapshot_complete_fenced(&mut self.rt, fid, hdr.seq(), now)
                }
                Ok(ControlOp::ReactivateAck) => {
                    self.ctl.handle_reactivate_ack_fenced(fid, hdr.seq(), now);
                    Vec::new()
                }
                other => panic!("unexpected control op from a client: {other:?}"),
            },
            _ => {
                for out in self.rt.process_frame_at(now, frame) {
                    if out.action == OutputAction::ToSender {
                        self.tenant_rx(fid, &out.frame);
                    }
                }
                Vec::new()
            }
        };
        self.deliver(acts);
    }

    fn deliver(&mut self, acts: Vec<ControllerAction>) {
        for act in acts {
            let (fid, frame) = match act {
                ControllerAction::Respond {
                    fid,
                    regions,
                    failed,
                    ..
                } => {
                    let granted = (!failed).then_some(&regions[..]);
                    let frame = build_alloc_response(client_mac(fid), SWITCH, fid, 0, granted);
                    (fid, frame)
                }
                ControllerAction::Deactivate { fid, fence, .. } => {
                    let op = ControlOp::DeactivateNotice;
                    let frame = build_control(client_mac(fid), SWITCH, fid, fence, op, true);
                    (fid, frame)
                }
                ControllerAction::Reactivate { fid, fence, .. } => {
                    let op = ControlOp::ReactivateNotice;
                    let frame = build_control(client_mac(fid), SWITCH, fid, fence, op, true);
                    (fid, frame)
                }
                ControllerAction::Report(_) => continue,
            };
            self.tenant_rx(fid, &frame);
        }
    }

    fn tenant_rx(&mut self, fid: u16, frame: &[u8]) {
        if let Some(t) = self.tenants.get_mut(&fid) {
            self.to_switch.extend(t.handle_frame(frame, self.now_ns));
        }
    }
}

/// Every distinct ordering of the multiset `kinds`.
fn distinct_orders(kinds: &mut Vec<Kind>) -> Vec<Vec<Kind>> {
    fn go(left: &mut Vec<Kind>, prefix: &mut Vec<Kind>, out: &mut Vec<Vec<Kind>>) {
        if left.is_empty() {
            out.push(prefix.clone());
            return;
        }
        let mut seen: Vec<Kind> = Vec::new();
        for i in 0..left.len() {
            let k = left[i];
            if seen.contains(&k) {
                continue;
            }
            seen.push(k);
            left.remove(i);
            prefix.push(k);
            go(left, prefix, out);
            prefix.pop();
            left.insert(i, k);
        }
    }
    let mut out = Vec::new();
    go(kinds, &mut Vec::new(), &mut out);
    out
}

/// Bring `order` up and run one SYN and one route frame per balancer.
fn check_order(order: &[Kind], policy: MutantPolicy) -> Result<(), String> {
    let cfg = SwitchConfig::default();
    let mut wire = Wire::new(&cfg);
    for (i, &kind) in order.iter().enumerate() {
        wire.admit(kind, 100 + i as u16, policy, &cfg);
    }
    let balancers: Vec<u16> = wire
        .tenants
        .iter()
        .filter(|(_, t)| matches!(t, Tenant::Balancer(_)))
        .map(|(&fid, _)| fid)
        .collect();
    for fid in balancers {
        let Some(Tenant::Balancer(lb)) = wire.tenants.get_mut(&fid) else {
            unreachable!()
        };
        if !lb.operational() {
            return Err(format!(
                "balancer {fid} is not operational (shim {:?}, {} config writes unacked, \
                 {} violation drops)",
                lb.shim().state(),
                lb.pending_sync().len(),
                wire.rt.stats().violation_drops
            ));
        }
        let flow = [0x02, 1, 2, 3, 4, 5, 6, 7, 8];
        let syn = lb.syn_frame(SERVER, &flow).expect("operational");
        let out = wire.rt.process_frame(syn);
        let cookie = out
            .first()
            .and_then(|o| CheetahLb::cookie_of(&o.frame))
            .ok_or_else(|| format!("balancer {fid}'s SYN produced no output"))?;
        let route = lb.route_frame(SERVER, cookie, &flow).expect("operational");
        if wire.rt.process_frame(route).is_empty() {
            return Err(format!("balancer {fid}'s route frame produced no output"));
        }
    }
    match wire.rt.stats().violation_drops {
        0 => Ok(()),
        n => Err(format!("{n} violation drops")),
    }
}

fn every_order_brings_up_every_balancer(policy: MutantPolicy) {
    use Kind::{Balancer as L, Cache as C, Monitor as H};
    let orders = distinct_orders(&mut vec![H, H, C, C, L, L, L]);
    assert_eq!(orders.len(), 210);
    let failures: Vec<String> = orders
        .iter()
        .filter_map(|order| {
            check_order(order, policy)
                .err()
                .map(|e| format!("{order:?}: {e}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of 210 orders failed under {policy:?}, e.g. {:?}",
        failures.len(),
        &failures[..failures.len().min(3)]
    );
}

#[test]
fn every_order_brings_up_every_balancer_most_constrained() {
    every_order_brings_up_every_balancer(MutantPolicy::MostConstrained);
}

#[test]
fn every_order_brings_up_every_balancer_least_constrained() {
    every_order_brings_up_every_balancer(MutantPolicy::LeastConstrained);
}

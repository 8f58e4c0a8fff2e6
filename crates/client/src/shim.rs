//! The shim layer (Sections 3.3 and 5).
//!
//! "We use a state-machine model to keep track of what state a given
//! service and its constituent programs are in: this could be an
//! operational state (when active programs are injected into packets
//! being sent over the wire), a negotiating state (when an allocation is
//! being requested/released) or a memory-management state (when state
//! extraction is being performed). Active transmissions are paused when
//! the client is negotiating or responding to a memory reallocation."
//!
//! The [`Shim`] wraps one service instance (one FID): it emits
//! allocation requests, reacts to controller signalling, synthesizes the
//! granted mutant via the [`Compiler`], and "activates" application
//! payloads by prepending active headers.

use crate::compiler::{CompiledService, Compiler};
use activermt_core::alloc::{place, MutantPolicy, MutantSpace};
use activermt_isa::wire::{
    build_alloc_request_with_program, build_control, ActiveHeader, AllocResponse, ControlOp,
    PacketType, ProgramTemplate, RegionEntry,
};
use activermt_isa::Program;

/// The shim's service-level state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShimState {
    /// No allocation; not transmitting active packets.
    Idle,
    /// An allocation request is outstanding.
    Negotiating,
    /// Allocated and transmitting.
    Operational,
    /// Deactivated by the switch; extracting state from the snapshot.
    MemoryManagement,
    /// The switch stopped answering within the retransmission deadline;
    /// active transmission is abandoned and the application should fall
    /// back to the server path. [`Shim::request_allocation`] re-enters
    /// negotiation.
    Degraded,
}

/// First retransmission delay for control traffic (allocation requests
/// and snapshot acks).
pub const RETX_INITIAL_NS: u64 = 200_000;
/// Cap on the exponential retransmission backoff.
pub const RETX_MAX_BACKOFF_NS: u64 = 5_000_000;
/// Give up and surface [`ShimEvent::Degraded`] after this long without
/// an answer from the switch. Generous on purpose: an allocation
/// request is only answered after the whole reallocation protocol runs
/// (victim snapshots alone take tens of milliseconds), so the deadline
/// must clear a worst-case reallocation with margin.
pub const RETX_DEADLINE_NS: u64 = 1_000_000_000;

/// Events surfaced to the application by [`Shim::handle_frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShimEvent {
    /// The switch granted an allocation; the mutant has been
    /// synthesized and activation may begin.
    Allocated {
        /// Per-stage register regions, ascending by stage.
        regions: Vec<(usize, RegionEntry)>,
    },
    /// The switch could not satisfy the request.
    AllocationFailed,
    /// Unsolicited region update (this service was reallocated); the
    /// mutant has been re-synthesized for the new stages.
    RegionsUpdated {
        /// The new per-stage regions.
        regions: Vec<(usize, RegionEntry)>,
    },
    /// The switch quiesced this FID pending reallocation; the
    /// application should extract state (Section 4.3) and then call
    /// [`Shim::snapshot_complete`].
    MustSnapshot,
    /// The switch resumed processing for this FID.
    Reactivated,
    /// An RTS'd program packet of ours came back (e.g. a cache hit or a
    /// memsync acknowledgement).
    ProgramReturned {
        /// The returned frame, verbatim.
        frame: Vec<u8>,
    },
    /// The retransmission deadline expired without a switch answer; the
    /// shim gave up and the application should fall back to the server
    /// path (surfaced by [`Shim::poll`]).
    Degraded,
}

/// Which reliable control packet is awaiting an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetxKind {
    /// An allocation request; answered by an `AllocResponse`.
    AllocRequest,
    /// A snapshot-complete ack; answered by the post-reallocation
    /// `AllocResponse` or `ReactivateNotice`.
    SnapshotAck,
}

/// Retransmission state for the one in-flight reliable control packet.
#[derive(Debug, Clone)]
struct Retx {
    kind: RetxKind,
    frame: Vec<u8>,
    next_ns: u64,
    backoff_ns: u64,
    deadline_ns: u64,
}

/// One service instance's client-side endpoint.
#[derive(Debug)]
pub struct Shim {
    fid: u16,
    mac: [u8; 6],
    switch_mac: [u8; 6],
    state: ShimState,
    seq: u16,
    service: CompiledService,
    policy: MutantPolicy,
    space: MutantSpace,
    regions: Vec<(usize, RegionEntry)>,
    program: Option<Program>,
    /// Pre-encoded program packet prefix for the current mutant and
    /// destination; rebuilding it per send would re-encode the whole
    /// instruction stream on the per-packet hot path. Invalidated
    /// whenever the mutant changes (resynthesis, deallocation) or the
    /// destination differs.
    template: Option<([u8; 6], ProgramTemplate)>,
    /// Frames the shim wants transmitted (retransmissions, acks);
    /// drained by [`Shim::take_outgoing`].
    outgoing: Vec<Vec<u8>>,
    retx: Option<Retx>,
    /// Fence token carried by the latest Deactivate/Reactivate notice
    /// (in the wire `seq` field); echoed in our SnapshotComplete and
    /// ReactivateAck so a restarted controller can reject answers to
    /// signals a dead predecessor sent.
    notice_fence: u16,
    malformed: u64,
    retransmits: u64,
    /// Packet-template cache accounting: sends served from the cached
    /// prefix, rebuilds, and stale-template invalidations.
    template_hits: activermt_telemetry::Counter,
    template_misses: activermt_telemetry::Counter,
    template_invalidations: activermt_telemetry::Counter,
}

impl Shim {
    /// Create a shim for `service`, speaking to the switch at
    /// `switch_mac` from `mac`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fid: u16,
        mac: [u8; 6],
        switch_mac: [u8; 6],
        service: CompiledService,
        policy: MutantPolicy,
        num_stages: usize,
        ingress_stages: usize,
        max_extra_recircs: u8,
    ) -> Shim {
        Shim {
            fid,
            mac,
            switch_mac,
            state: ShimState::Idle,
            seq: 0,
            service,
            policy,
            space: MutantSpace {
                num_stages,
                ingress_stages,
                max_extra_recircs,
            },
            regions: Vec::new(),
            program: None,
            template: None,
            outgoing: Vec::new(),
            retx: None,
            notice_fence: 0,
            malformed: 0,
            retransmits: 0,
            template_hits: activermt_telemetry::Counter::new(),
            template_misses: activermt_telemetry::Counter::new(),
            template_invalidations: activermt_telemetry::Counter::new(),
        }
    }

    /// Adopt this shim's template-cache counters into `telemetry`'s
    /// registry, namespaced by FID so several shims can share a hub.
    pub fn bind_telemetry(&self, telemetry: &activermt_telemetry::Telemetry) {
        let reg = telemetry.registry();
        let fid = self.fid;
        reg.register_counter(&format!("shim.fid{fid}.template_hits"), &self.template_hits);
        reg.register_counter(
            &format!("shim.fid{fid}.template_misses"),
            &self.template_misses,
        );
        reg.register_counter(
            &format!("shim.fid{fid}.template_invalidations"),
            &self.template_invalidations,
        );
    }

    /// Template-cache accounting:
    /// `(hits, misses, invalidations)`.
    pub fn template_cache_stats(&self) -> (u64, u64, u64) {
        (
            self.template_hits.get(),
            self.template_misses.get(),
            self.template_invalidations.get(),
        )
    }

    /// The service identifier.
    pub fn fid(&self) -> u16 {
        self.fid
    }

    /// Current state.
    pub fn state(&self) -> ShimState {
        self.state
    }

    /// Current per-stage regions (empty before allocation).
    pub fn regions(&self) -> &[(usize, RegionEntry)] {
        &self.regions
    }

    /// The synthesized (mutant) program, once allocated.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// The compiled service definition.
    pub fn service(&self) -> &CompiledService {
        &self.service
    }

    /// Logical stages on the target pipeline.
    pub fn num_stages(&self) -> usize {
        self.space.num_stages
    }

    fn next_seq(&mut self) -> u16 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Frames this shim retransmitted so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Frames addressed to this shim that could not be parsed.
    pub fn malformed_frames(&self) -> u64 {
        self.malformed
    }

    /// Frames the shim wants transmitted now (acks queued by
    /// [`Shim::handle_frame`], retransmissions queued by
    /// [`Shim::poll`]).
    pub fn take_outgoing(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.outgoing)
    }

    fn arm_retx(&mut self, kind: RetxKind, frame: Vec<u8>, now_ns: u64) {
        self.retx = Some(Retx {
            kind,
            frame,
            next_ns: now_ns + RETX_INITIAL_NS,
            backoff_ns: RETX_INITIAL_NS,
            deadline_ns: now_ns + RETX_DEADLINE_NS,
        });
    }

    fn cancel_retx(&mut self) {
        self.retx = None;
    }

    /// Drive the retransmission timer. Re-queues the in-flight control
    /// packet with exponential backoff while unanswered; past the
    /// deadline the shim gives up, enters [`ShimState::Degraded`] and
    /// surfaces [`ShimEvent::Degraded`] so the application falls back to
    /// the server path. Retransmitted frames appear in
    /// [`Shim::take_outgoing`].
    pub fn poll(&mut self, now_ns: u64) -> Option<ShimEvent> {
        let r = self.retx.as_mut()?;
        if now_ns >= r.deadline_ns {
            self.retx = None;
            self.state = ShimState::Degraded;
            return Some(ShimEvent::Degraded);
        }
        if now_ns >= r.next_ns {
            self.outgoing.push(r.frame.clone());
            self.retransmits += 1;
            r.backoff_ns = (r.backoff_ns * 2).min(RETX_MAX_BACKOFF_NS);
            r.next_ns = now_ns + r.backoff_ns;
        }
        None
    }

    /// Build an allocation request and enter `Negotiating`. The request
    /// is retransmitted with exponential backoff (driven by
    /// [`Shim::poll`]) until the response arrives; "the client can
    /// safely retransmit after a timeout" — admission is idempotent on
    /// the switch.
    pub fn request_allocation(&mut self, now_ns: u64) -> Vec<u8> {
        self.state = ShimState::Negotiating;
        let seq = self.next_seq();
        let pattern = &self.service.pattern;
        // Ship the compact bytecode with the request so the switch can
        // statically verify the program before granting memory.
        let frame = build_alloc_request_with_program(
            self.switch_mac,
            self.mac,
            self.fid,
            seq,
            &pattern.to_descriptors(),
            pattern.prog_len as u8,
            pattern.elastic,
            self.policy == MutantPolicy::MostConstrained,
            pattern.ingress_positions.first().copied().unwrap_or(0),
            &self.service.spec.program.encode_instructions(),
        )
        .expect("compiled patterns have <= 8 accesses");
        self.arm_retx(RetxKind::AllocRequest, frame.clone(), now_ns);
        frame
    }

    /// Build the snapshot-complete control packet and resume
    /// (the switch reactivates us once the new allocation is applied).
    /// Retransmitted until the post-reallocation response or reactivate
    /// notice arrives. The `seq` field echoes the deactivate notice's
    /// fence token, not our own sequence, so the controller can tell
    /// this round's answer from a predecessor round's.
    pub fn snapshot_complete(&mut self, now_ns: u64) -> Vec<u8> {
        let frame = build_control(
            self.switch_mac,
            self.mac,
            self.fid,
            self.notice_fence,
            ControlOp::SnapshotComplete,
            false,
        );
        self.arm_retx(RetxKind::SnapshotAck, frame.clone(), now_ns);
        frame
    }

    /// Build a deallocation control packet and go `Idle`.
    pub fn deallocate(&mut self) -> Vec<u8> {
        self.state = ShimState::Idle;
        self.regions.clear();
        self.program = None;
        if self.template.take().is_some() {
            self.template_invalidations.inc();
        }
        self.cancel_retx();
        let seq = self.next_seq();
        build_control(
            self.switch_mac,
            self.mac,
            self.fid,
            seq,
            ControlOp::Deallocate,
            false,
        )
    }

    /// Activate an application payload: wrap it with the synthesized
    /// program and the given argument values. Returns `None` unless
    /// `Operational` ("active transmissions are paused when the client
    /// is negotiating or responding to a memory reallocation").
    pub fn activate(&mut self, dst: [u8; 6], args: [u32; 4], payload: &[u8]) -> Option<Vec<u8>> {
        if self.state != ShimState::Operational {
            return None;
        }
        if self.template.as_ref().map(|&(d, _)| d) == Some(dst) {
            self.template_hits.inc();
        } else {
            let program = self.program.as_ref()?;
            self.template_misses.inc();
            self.template = Some((dst, ProgramTemplate::new(dst, self.mac, self.fid, program)));
        }
        let seq = self.next_seq();
        let (_, template) = self.template.as_ref()?;
        Some(template.build(seq, &args, payload))
    }

    /// Dispatch an incoming frame addressed to this shim. Frames for
    /// other FIDs or non-active frames return `None`; frames for this
    /// FID that cannot be parsed are counted malformed and dropped.
    /// Check [`Shim::take_outgoing`] afterwards: control signalling may
    /// queue acknowledgement frames.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Option<ShimEvent> {
        use activermt_isa::constants::{ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN};
        let eth = activermt_isa::wire::EthernetFrame::new_checked(frame).ok()?;
        if eth.ethertype() != activermt_isa::constants::ACTIVE_ETHERTYPE {
            return None;
        }
        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            self.malformed += 1;
            return None;
        };
        if hdr.fid() != self.fid {
            return None;
        }
        match hdr.flags().packet_type() {
            PacketType::AllocResponse => {
                if hdr.flags().failed() {
                    if self.state != ShimState::Negotiating {
                        return None; // duplicate of an already-handled failure
                    }
                    self.cancel_retx();
                    self.state = ShimState::Idle;
                    return Some(ShimEvent::AllocationFailed);
                }
                let body = frame.get(ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..)?;
                let Ok(resp) = AllocResponse::new_checked(body) else {
                    self.malformed += 1;
                    return None;
                };
                let regions: Vec<(usize, RegionEntry)> = resp
                    .allocated_stages()
                    .into_iter()
                    .map(|s| (s, resp.region(s)))
                    .collect();
                let solicited = self.state == ShimState::Negotiating;
                // Any response for our FID means the switch received
                // whatever we were retransmitting (the request, or the
                // snapshot ack that gates the controller's re-send).
                self.cancel_retx();
                if !solicited && self.state == ShimState::Operational && regions == self.regions {
                    // Duplicate of a re-sent response we already applied;
                    // re-applying would needlessly churn the application
                    // (e.g. a cache repopulation storm).
                    return None;
                }
                self.apply_regions(regions.clone());
                Some(if solicited {
                    ShimEvent::Allocated { regions }
                } else {
                    ShimEvent::RegionsUpdated { regions }
                })
            }
            PacketType::Control => match hdr.control_op() {
                Ok(ControlOp::DeactivateNotice) => {
                    // Adopt the notice's fence even on a duplicate: a
                    // restarted controller re-issues the signal with a
                    // fresh token, and only an echo of the *latest* one
                    // is accepted.
                    self.notice_fence = hdr.seq();
                    if self.state == ShimState::MemoryManagement {
                        // Re-sent notice: we are already snapshotting (or
                        // our snapshot ack is in retransmission).
                        return None;
                    }
                    self.state = ShimState::MemoryManagement;
                    Some(ShimEvent::MustSnapshot)
                }
                Ok(ControlOp::ReactivateNotice) => {
                    // Always acknowledge — the controller re-sends the
                    // notice until it sees the ack — echoing the
                    // notice's fence token.
                    self.notice_fence = hdr.seq();
                    self.outgoing.push(build_control(
                        self.switch_mac,
                        self.mac,
                        self.fid,
                        hdr.seq(),
                        ControlOp::ReactivateAck,
                        false,
                    ));
                    if matches!(
                        self.retx,
                        Some(Retx {
                            kind: RetxKind::SnapshotAck,
                            ..
                        })
                    ) {
                        self.cancel_retx();
                    }
                    if self.program.is_some() {
                        self.state = ShimState::Operational;
                    }
                    Some(ShimEvent::Reactivated)
                }
                Ok(_) => None,
                Err(_) => {
                    self.malformed += 1;
                    None
                }
            },
            PacketType::Program => {
                if hdr.flags().from_switch() {
                    Some(ShimEvent::ProgramReturned {
                        frame: frame.to_vec(),
                    })
                } else {
                    None
                }
            }
            PacketType::AllocRequest => None,
        }
    }

    /// Adopt a region set: place the accesses onto the granted stages
    /// and synthesize the mutant (Section 4.1's client-side half).
    ///
    /// Every grant is placed afresh: [`place`] walks the mutant lattice
    /// restricted to the granted stages, a few microseconds per grant.
    fn apply_regions(&mut self, regions: Vec<(usize, RegionEntry)>) {
        // The mutant (and thus the encoded instruction stream) is about
        // to change; the cached packet prefix is stale either way.
        if self.template.take().is_some() {
            self.template_invalidations.inc();
        }
        let granted: Vec<usize> = regions.iter().map(|&(s, _)| s).collect();
        let chosen = place(&self.space, &self.service.pattern, self.policy, &granted);
        match chosen {
            Some(m) => match Compiler::synthesize_at(&self.service, &m.positions) {
                Ok(p) => {
                    self.program = Some(p);
                    self.regions = regions;
                    self.state = ShimState::Operational;
                }
                Err(_) => {
                    self.program = None;
                    self.state = ShimState::Idle;
                }
            },
            None => {
                // A grant we cannot realize (should not happen with a
                // consistent switch): stay safe and idle.
                self.program = None;
                self.state = ShimState::Idle;
            }
        }
    }

    /// Swap in a new compiled service (a program upgrade). If the shim
    /// is operational the new program is re-placed against the current
    /// grant immediately; a program whose pattern cannot realize the
    /// granted stages drops safely to `Idle` (renegotiate with
    /// [`Shim::request_allocation`]).
    pub fn replace_service(&mut self, service: CompiledService) {
        self.service = service;
        if self.template.take().is_some() {
            self.template_invalidations.inc();
        }
        if self.state == ShimState::Operational && !self.regions.is_empty() {
            let regions = std::mem::take(&mut self.regions);
            self.apply_regions(regions);
        } else {
            self.program = None;
        }
    }

    /// The region granted in `stage`, if any.
    pub fn region_in(&self, stage: usize) -> Option<RegionEntry> {
        self.regions
            .iter()
            .find(|&&(s, _)| s == stage)
            .map(|&(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::compiler::ServiceSpec;
    use activermt_isa::wire::build_alloc_response;

    const CLIENT: [u8; 6] = [2, 0, 0, 0, 0, 1];
    const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
    const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 2];

    fn cache_shim() -> Shim {
        let program = assemble(
            "MAR_LOAD $3\nMEM_READ\nMBR_EQUALS_DATA_1\nCRET\nMEM_READ\nMBR_EQUALS_DATA_2\nCRET\nRTS\nMEM_READ\nMBR_STORE $2\nRETURN",
        )
        .unwrap();
        let service = Compiler::compile(ServiceSpec {
            name: "cache".into(),
            program,
            demands: vec![0, 0, 0],
            elastic: true,
            aliases: vec![],
        })
        .unwrap();
        Shim::new(
            7,
            CLIENT,
            SWITCH,
            service,
            MutantPolicy::MostConstrained,
            20,
            10,
            1,
        )
    }

    fn grant(stages: &[usize]) -> Vec<u8> {
        let regions: Vec<(usize, RegionEntry)> = stages
            .iter()
            .map(|&s| {
                (
                    s,
                    RegionEntry {
                        start: 0,
                        end: 65_536,
                    },
                )
            })
            .collect();
        build_alloc_response(CLIENT, SWITCH, 7, 1, Some(&regions))
    }

    #[test]
    fn negotiation_round_trip() {
        let mut shim = cache_shim();
        assert_eq!(shim.state(), ShimState::Idle);
        assert!(shim.activate(SERVER, [0; 4], b"x").is_none(), "idle: no tx");
        let req = shim.request_allocation(0);
        assert_eq!(shim.state(), ShimState::Negotiating);
        // The request carries the paper's constraint vectors.
        let hdr = ActiveHeader::new_checked(&req[14..]).unwrap();
        assert_eq!(hdr.flags().packet_type(), PacketType::AllocRequest);
        assert!(hdr.flags().elastic());
        assert!(hdr.flags().pinned());
        assert_eq!(hdr.program_len(), 11);
        assert_eq!(hdr.aux(), 8, "RTS position travels in aux");
        assert!(
            shim.activate(SERVER, [0; 4], b"x").is_none(),
            "negotiating: no tx"
        );

        let ev = shim.handle_frame(&grant(&[1, 4, 8])).unwrap();
        assert!(matches!(ev, ShimEvent::Allocated { .. }));
        assert_eq!(shim.state(), ShimState::Operational);
        // The compact placement needs no NOPs.
        assert_eq!(shim.program().unwrap().len(), 11);
        assert!(shim.activate(SERVER, [0; 4], b"x").is_some());
    }

    #[test]
    fn shifted_grant_synthesizes_a_mutant() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[3, 6, 10])).unwrap();
        let p = shim.program().unwrap();
        assert_eq!(p.memory_access_positions(), vec![4, 7, 11]);
        assert_eq!(p.len(), 13, "two NOPs inserted");
        assert_eq!(shim.region_in(6).unwrap().len(), 65_536);
        assert!(shim.region_in(5).is_none());
    }

    #[test]
    fn failed_allocation_returns_to_idle() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        let fail = build_alloc_response(CLIENT, SWITCH, 7, 1, None);
        assert_eq!(shim.handle_frame(&fail), Some(ShimEvent::AllocationFailed));
        assert_eq!(shim.state(), ShimState::Idle);
    }

    #[test]
    fn reallocation_protocol_pauses_transmission() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        // Switch quiesces us.
        let notice = build_control(CLIENT, SWITCH, 7, 9, ControlOp::DeactivateNotice, true);
        assert_eq!(shim.handle_frame(&notice), Some(ShimEvent::MustSnapshot));
        assert_eq!(shim.state(), ShimState::MemoryManagement);
        assert!(shim.activate(SERVER, [0; 4], b"x").is_none(), "paused");
        // We finish the snapshot; new regions arrive unsolicited.
        let done = shim.snapshot_complete(0);
        let hdr = ActiveHeader::new_checked(&done[14..]).unwrap();
        assert_eq!(hdr.control_op().unwrap(), ControlOp::SnapshotComplete);
        let ev = shim.handle_frame(&grant(&[2, 5, 9])).unwrap();
        assert!(matches!(ev, ShimEvent::RegionsUpdated { .. }));
        let reactivate = build_control(CLIENT, SWITCH, 7, 10, ControlOp::ReactivateNotice, true);
        assert_eq!(shim.handle_frame(&reactivate), Some(ShimEvent::Reactivated));
        assert_eq!(shim.state(), ShimState::Operational);
        assert!(shim.activate(SERVER, [0; 4], b"x").is_some());
    }

    #[test]
    fn frames_for_other_fids_are_ignored() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        let other = build_alloc_response(CLIENT, SWITCH, 8, 1, None);
        assert_eq!(shim.handle_frame(&other), None);
        assert_eq!(shim.state(), ShimState::Negotiating);
    }

    #[test]
    fn returned_program_packets_surface() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        let pkt = shim.activate(SERVER, [1, 2, 3, 4], b"payload").unwrap();
        // Pretend the switch RTS'd it back.
        let mut back = pkt.clone();
        {
            let mut h = ActiveHeader::new_unchecked(&mut back[14..]);
            let mut f = h.flags();
            f.set_from_switch(true);
            f.set_rts_done(true);
            h.set_flags(f);
        }
        let ev = shim.handle_frame(&back).unwrap();
        assert!(matches!(ev, ShimEvent::ProgramReturned { .. }));
        // Our own outgoing packet (not from switch) is not an event.
        assert_eq!(shim.handle_frame(&pkt), None);
    }

    #[test]
    fn deallocate_resets() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        let frame = shim.deallocate();
        let hdr = ActiveHeader::new_checked(&frame[14..]).unwrap();
        assert_eq!(hdr.control_op().unwrap(), ControlOp::Deallocate);
        assert_eq!(shim.state(), ShimState::Idle);
        assert!(shim.program().is_none());
        assert!(shim.regions().is_empty());
    }

    #[test]
    fn request_is_retransmitted_with_backoff_until_answered() {
        let mut shim = cache_shim();
        let req = shim.request_allocation(0);
        // Nothing to do before the first timeout.
        assert_eq!(shim.poll(RETX_INITIAL_NS - 1), None);
        assert!(shim.take_outgoing().is_empty());
        // First retransmission fires at the initial timeout...
        assert_eq!(shim.poll(RETX_INITIAL_NS), None);
        assert_eq!(shim.take_outgoing(), vec![req.clone()]);
        assert_eq!(shim.retransmits(), 1);
        // ...and the next one backs off to double the interval.
        assert_eq!(shim.poll(RETX_INITIAL_NS + RETX_INITIAL_NS * 2 - 1), None);
        assert!(shim.take_outgoing().is_empty());
        shim.poll(RETX_INITIAL_NS + RETX_INITIAL_NS * 2);
        assert_eq!(shim.take_outgoing(), vec![req]);
        assert_eq!(shim.retransmits(), 2);
        // The response cancels retransmission.
        shim.handle_frame(&grant(&[1, 4, 8])).unwrap();
        assert_eq!(shim.poll(u64::MAX - 1), None);
        assert!(shim.take_outgoing().is_empty());
        assert_eq!(shim.state(), ShimState::Operational);
    }

    #[test]
    fn unanswered_request_degrades_at_the_deadline() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        assert_eq!(shim.poll(RETX_DEADLINE_NS), Some(ShimEvent::Degraded));
        assert_eq!(shim.state(), ShimState::Degraded);
        assert!(
            shim.activate(SERVER, [0; 4], b"x").is_none(),
            "degraded: no tx"
        );
        // Degraded is terminal until the application re-negotiates.
        assert_eq!(shim.poll(u64::MAX - 1), None);
        shim.request_allocation(RETX_DEADLINE_NS);
        assert_eq!(shim.state(), ShimState::Negotiating);
    }

    #[test]
    fn snapshot_ack_is_retransmitted_until_reactivation() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        let notice = build_control(CLIENT, SWITCH, 7, 9, ControlOp::DeactivateNotice, true);
        shim.handle_frame(&notice);
        let done = shim.snapshot_complete(1_000);
        // Lost: the shim re-sends it.
        shim.poll(1_000 + RETX_INITIAL_NS);
        assert_eq!(shim.take_outgoing(), vec![done]);
        // A re-sent deactivate notice while snapshotting is swallowed.
        assert_eq!(shim.handle_frame(&notice), None);
        // The reactivate notice cancels the retransmission and is acked.
        let reactivate = build_control(CLIENT, SWITCH, 7, 10, ControlOp::ReactivateNotice, true);
        assert_eq!(shim.handle_frame(&reactivate), Some(ShimEvent::Reactivated));
        let out = shim.take_outgoing();
        assert_eq!(out.len(), 1);
        let hdr = ActiveHeader::new_checked(&out[0][14..]).unwrap();
        assert_eq!(hdr.control_op().unwrap(), ControlOp::ReactivateAck);
        assert_eq!(shim.poll(u64::MAX - 1), None, "retx cancelled");
    }

    #[test]
    fn control_acks_echo_the_notice_fence() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        // The deactivate notice carries the round's fence token in the
        // wire seq field; our SnapshotComplete must echo it verbatim.
        let notice = build_control(CLIENT, SWITCH, 7, 42, ControlOp::DeactivateNotice, true);
        shim.handle_frame(&notice);
        let done = shim.snapshot_complete(0);
        let hdr = ActiveHeader::new_checked(&done[14..]).unwrap();
        assert_eq!(hdr.seq(), 42, "snapshot ack echoes the fence");
        // Same for the reactivate notice and its ack.
        let reactivate = build_control(CLIENT, SWITCH, 7, 57, ControlOp::ReactivateNotice, true);
        shim.handle_frame(&reactivate);
        let out = shim.take_outgoing();
        let hdr = ActiveHeader::new_checked(&out[0][14..]).unwrap();
        assert_eq!(hdr.control_op().unwrap(), ControlOp::ReactivateAck);
        assert_eq!(hdr.seq(), 57, "reactivate ack echoes the fence");
        // A re-sent notice with a fresh token (e.g. from a restarted
        // controller) refreshes the stored fence even while we are
        // already snapshotting, although the duplicate is swallowed.
        assert!(shim.handle_frame(&notice).is_some(), "fresh quiesce");
        let renotice = build_control(CLIENT, SWITCH, 7, 58, ControlOp::DeactivateNotice, true);
        assert_eq!(shim.handle_frame(&renotice), None, "duplicate swallowed");
        let done = shim.snapshot_complete(0);
        let hdr = ActiveHeader::new_checked(&done[14..]).unwrap();
        assert_eq!(hdr.seq(), 58, "latest notice fence wins");
    }

    #[test]
    fn duplicate_region_updates_are_swallowed() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        // A re-sent copy of an unsolicited response we already applied
        // must not churn the application...
        let update = grant(&[2, 5, 9]);
        assert!(matches!(
            shim.handle_frame(&update),
            Some(ShimEvent::RegionsUpdated { .. })
        ));
        assert_eq!(shim.handle_frame(&update), None, "duplicate swallowed");
        // ...but a genuinely different grant still applies.
        assert!(matches!(
            shim.handle_frame(&grant(&[3, 6, 10])),
            Some(ShimEvent::RegionsUpdated { .. })
        ));
    }

    #[test]
    fn malformed_frames_are_counted_not_crashed() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        // Truncate an otherwise valid response below the active header.
        let mut short = grant(&[1, 4, 8]);
        short.truncate(16);
        assert_eq!(shim.handle_frame(&short), None);
        assert_eq!(shim.malformed_frames(), 1);
        assert_eq!(shim.state(), ShimState::Negotiating, "still waiting");
    }

    #[test]
    fn cached_template_matches_fresh_builds_and_tracks_resynthesis() {
        use activermt_isa::wire::build_program_packet;
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        // Repeated activations reuse the cached prefix but must be
        // byte-identical to encoding the mutant from scratch.
        for (seq, args) in [(2u16, [1u32, 2, 3, 4]), (3, [9, 8, 7, 6])] {
            let pkt = shim.activate(SERVER, args, b"payload").unwrap();
            let mut program = shim.program().unwrap().clone();
            for (i, a) in args.iter().enumerate() {
                program.set_arg(i, *a).unwrap();
            }
            let fresh = build_program_packet(SERVER, CLIENT, 7, seq, &program, b"payload");
            assert_eq!(pkt, fresh);
        }
        // An unsolicited reallocation resynthesizes the mutant (two
        // NOPs inserted); the stale template must not leak through.
        shim.handle_frame(&grant(&[3, 6, 10])).unwrap();
        let pkt = shim.activate(SERVER, [0; 4], b"x").unwrap();
        let layout = activermt_isa::wire::program_packet_layout(&pkt).unwrap();
        assert_eq!((layout.payload_off - layout.instr_off) / 2, 13 + 1);
        // A different destination also forces a rebuild.
        let other = shim.activate([9; 6], [0; 4], b"x").unwrap();
        assert_eq!(other[0..6], [9; 6]);
        assert!(shim.activate(SERVER, [0; 4], b"x").is_some());
    }

    #[test]
    fn activation_embeds_args_and_payload() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[1, 4, 8]));
        let pkt = shim
            .activate(SERVER, [0xA, 0xB, 0, 42], b"GET key")
            .unwrap();
        let layout = activermt_isa::wire::program_packet_layout(&pkt).unwrap();
        assert_eq!(&pkt[layout.payload_off..], b"GET key");
        let a0 = u32::from_be_bytes(
            pkt[layout.args_off..layout.args_off + 4]
                .try_into()
                .unwrap(),
        );
        assert_eq!(a0, 0xA);
    }

    #[test]
    fn program_change_runs_the_new_program_on_the_current_grant() {
        let mut shim = cache_shim();
        shim.request_allocation(0);
        shim.handle_frame(&grant(&[3, 6, 10])).unwrap();
        // Upgrade to a program with the same access pattern but a
        // different instruction stream (the two comparison opcodes
        // swapped places).
        let upgraded = assemble(
            "MAR_LOAD $3\nMEM_READ\nMBR_EQUALS_DATA_2\nCRET\nMEM_READ\nMBR_EQUALS_DATA_1\nCRET\nRTS\nMEM_READ\nMBR_STORE $2\nRETURN",
        )
        .unwrap();
        let service = Compiler::compile(ServiceSpec {
            name: "cache-v2".into(),
            program: upgraded,
            demands: vec![0, 0, 0],
            elastic: true,
            aliases: vec![],
        })
        .unwrap();
        shim.replace_service(service);
        assert_eq!(shim.state(), ShimState::Operational);
        // Placed on stages 3, 6 and 10: two NOPs before the first read
        // put the accesses at positions 4, 7 and 11.
        let placed = assemble(
            "MAR_LOAD $3\nNOP\nNOP\nMEM_READ\nMBR_EQUALS_DATA_2\nCRET\nMEM_READ\nMBR_EQUALS_DATA_1\nCRET\nRTS\nMEM_READ\nMBR_STORE $2\nRETURN",
        )
        .unwrap()
        .encode_instructions();
        assert_eq!(shim.program().unwrap().encode_instructions(), placed);
        // The packets it sends carry those bytes.
        let pkt = shim.activate(SERVER, [0; 4], b"x").unwrap();
        let layout = activermt_isa::wire::program_packet_layout(&pkt).unwrap();
        assert_eq!(pkt[layout.instr_off..layout.payload_off], placed[..]);
    }
}

//! The Cheetah load balancer (Appendix B.2).
//!
//! Two active programs implement the service:
//!
//! * **Server selection** runs on TCP SYNs: it reads the VIP pool size
//!   mask, round-robins a stateful counter, indirects through a page
//!   table to the VIP pool, reads the chosen server id, sets it as the
//!   packet's destination, and stores an obfuscating *cookie* —
//!   `H(5-tuple, salt) XOR server` — into the packet for the client to
//!   echo on subsequent packets.
//! * **Flow routing** runs on every other packet of the flow and is
//!   completely *stateless*: it recomputes the same hash and XORs it
//!   with the echoed cookie to recover the server id.
//!
//! The two programs must compute identical hashes, which is why the
//! HASH instruction's function selector exists (both use `%0`). The
//! service's switch state — size mask, round-robin counter, page table
//! and VIP pool — is **inelastic** (Section 6.1: a load balancer's
//! demand is "based on the number of VIPs it balances among") and is
//! initialized by the client through memsync writes after allocation.

use activermt_client::asm::assemble;
use activermt_client::compiler::{CompiledService, Compiler, ServiceSpec};
use activermt_client::memsync::{MemSync, SyncOp};
use activermt_client::shim::{Shim, ShimEvent, ShimState};
use activermt_core::alloc::MutantPolicy;
use activermt_rmt::hash::{selector_seed, Crc32};

/// Server-selection program (SYN packets): Listing 3's structure with
/// explicit per-region re-translation. Each `MAR_LOAD $0; ADDR_MASK;
/// ADDR_OFFSET` resolves slot 0 of the region of the memory access that
/// follows it, wherever the shim places that access: the switch binds a
/// translation to the stage its access runs in.
pub const LB_SYN_ASM: &str = r"
    COPY_HASHDATA_5TUPLE  // load the flow 5-tuple
    MAR_LOAD $0           // slot 0:
    ADDR_MASK             //   of the pool-size region
    ADDR_OFFSET
    MEM_READ              // MBR = pool size mask (size - 1)
    COPY_MBR2_MBR         // MBR2 = mask
    MAR_LOAD $0           // slot 0:
    ADDR_MASK             //   of the counter region
    ADDR_OFFSET
    MEM_INCREMENT         // MBR = ++counter (round robin)
    COPY_MAR_MBR          // MAR = counter
    COPY_MBR_MBR2         // MBR = mask
    BIT_AND_MAR_MBR       // MAR = counter & mask = rr offset
    COPY_MBR_MAR          // MBR = offset
    COPY_MBR2_MBR         // MBR2 = offset
    MAR_LOAD $0           // slot 0:
    ADDR_MASK             //   of the page-table region
    ADDR_OFFSET
    MEM_READ              // MBR = physical base of the VIP pool
    MAR_MBR_ADD_MBR2      // MAR = base + offset
    MEM_READ              // MBR = server id
    SET_DST               // route to the server
    COPY_MBR2_MBR         // MBR2 = server id
    MBR_LOAD $1           // MBR = salt
    COPY_HASHDATA_MBR     // hash over (5-tuple, salt)
    HASH %0
    COPY_MBR_MAR          // MBR = hash
    MBR_EQUALS_MBR2       // MBR = hash ^ server = cookie
    MBR_STORE $2          // cookie into the packet
    RETURN
";

/// Flow-routing program (non-SYN packets): Listing 4. Stateless — no
/// memory accesses at all.
pub const LB_ROUTE_ASM: &str = r"
    COPY_HASHDATA_5TUPLE  // load the flow 5-tuple
    MBR_LOAD $1           // salt
    COPY_HASHDATA_MBR
    HASH %0               // MAR = H(5-tuple, salt)
    MBR_LOAD $2           // cookie from the packet
    COPY_MBR2_MBR         // MBR2 = cookie
    COPY_MBR_MAR          // MBR = hash
    MBR_EQUALS_MBR2       // MBR = hash ^ cookie = server id
    SET_DST               // route to the server
    RETURN
";

/// Default VIP pool demand in blocks (2 blocks = 512 VIPs at 1 KB
/// granularity — Section 6.1's "2 blocks, enough to manage 512 active
/// virtual IPs").
pub const POOL_BLOCKS: u16 = 2;

/// Events surfaced by [`CheetahLb::handle_frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum LbEvent {
    /// Allocation granted; configuration writes were emitted and must
    /// be acknowledged before the balancer is operational.
    Allocated,
    /// Allocation failed.
    AllocationFailed,
    /// A configuration write batch was acknowledged; `remaining`
    /// batches outstanding.
    ConfigProgress {
        /// Outstanding configuration packets.
        remaining: usize,
    },
    /// The shim's retransmission deadline expired without a switch
    /// answer; the balancer is abandoned.
    Degraded,
}

/// The Cheetah load-balancer client.
#[derive(Debug)]
pub struct CheetahLb {
    shim: Shim,
    mac: [u8; 6],
    route_program: activermt_isa::Program,
    sync: MemSync,
    crc: Crc32,
    salt: u32,
    servers: Vec<u32>,
    geometry: Option<Geometry>,
    configured: bool,
    seq: u16,
}

#[derive(Debug, Clone, Copy)]
struct Geometry {
    size_stage: usize,
    size_addr: u32,
    counter_stage: usize,
    counter_addr: u32,
    page_stage: usize,
    page_addr: u32,
    pool_stage: usize,
    pool_start: u32,
}

impl CheetahLb {
    /// Compile the stateful (SYN) service definition.
    pub fn service() -> CompiledService {
        Compiler::compile(ServiceSpec {
            name: "cheetah-lb".into(),
            program: assemble(LB_SYN_ASM).expect("Listing 3 is valid"),
            demands: vec![1, 1, 1, POOL_BLOCKS],
            elastic: false,
            aliases: vec![],
        })
        .expect("cheetah service compiles")
    }

    /// Create a balancer for `servers` (opaque ids the network resolves
    /// to hosts), with a switch-specific `salt`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fid: u16,
        mac: [u8; 6],
        switch_mac: [u8; 6],
        salt: u32,
        servers: Vec<u32>,
        policy: MutantPolicy,
        num_stages: usize,
        ingress_stages: usize,
        max_extra_recircs: u8,
    ) -> CheetahLb {
        assert!(
            servers.len().is_power_of_two(),
            "Appendix B.2 assumes pool sizes to be a power of two"
        );
        CheetahLb {
            mac,
            shim: Shim::new(
                fid,
                mac,
                switch_mac,
                Self::service(),
                policy,
                num_stages,
                ingress_stages,
                max_extra_recircs,
            ),
            route_program: assemble(LB_ROUTE_ASM).expect("Listing 4 is valid"),
            sync: MemSync::new(fid, mac, switch_mac, num_stages),
            crc: Crc32::new(),
            salt,
            servers,
            geometry: None,
            configured: false,
            seq: 0,
        }
    }

    /// The underlying shim.
    pub fn shim(&self) -> &Shim {
        &self.shim
    }

    /// Is the balancer configured and ready?
    pub fn operational(&self) -> bool {
        self.shim.state() == ShimState::Operational && self.configured
    }

    /// Build the allocation request (retransmitted via
    /// [`CheetahLb::poll`] until answered).
    pub fn request_allocation(&mut self, now_ns: u64) -> Vec<u8> {
        self.shim.request_allocation(now_ns)
    }

    /// Drive the shim's retransmission timer: returns an event (if the
    /// shim gave up) and frames to send (retries).
    pub fn poll(&mut self, now_ns: u64) -> (Option<LbEvent>, Vec<Vec<u8>>) {
        let event = match self.shim.poll(now_ns) {
            Some(ShimEvent::Degraded) => Some(LbEvent::Degraded),
            _ => None,
        };
        (event, self.shim.take_outgoing())
    }

    /// Activate a SYN: attach the server-selection program. `flow`
    /// bytes lead the payload and stand in for the TCP 5-tuple.
    pub fn syn_frame(&mut self, dst: [u8; 6], flow: &[u8]) -> Option<Vec<u8>> {
        if !self.operational() {
            return None;
        }
        self.shim.activate(dst, [0, self.salt, 0, 0], flow)
    }

    /// Activate a data packet: attach the flow-routing program with the
    /// echoed `cookie`.
    pub fn route_frame(&mut self, dst: [u8; 6], cookie: u32, flow: &[u8]) -> Option<Vec<u8>> {
        if !self.operational() {
            return None;
        }
        let mut program = self.route_program.clone();
        program.set_arg(1, self.salt).ok()?;
        program.set_arg(2, cookie).ok()?;
        self.seq = self.seq.wrapping_add(1);
        Some(activermt_isa::wire::build_program_packet(
            dst,
            self.mac,
            self.shim.fid(),
            self.seq,
            &program,
            flow,
        ))
    }

    /// Extract the cookie a returned/observed SYN carries (data field 2).
    pub fn cookie_of(frame: &[u8]) -> Option<u32> {
        let layout = activermt_isa::wire::program_packet_layout(frame).ok()?;
        let off = layout.args_off + 8;
        Some(u32::from_be_bytes(frame[off..off + 4].try_into().ok()?))
    }

    /// Predict the server the switch will select for a given flow
    /// cookie (client-side verification: `H(5t, salt) ^ cookie`).
    pub fn server_of_cookie(&self, five_tuple_digest: u32, cookie: u32) -> u32 {
        let h = self
            .crc
            .hash_words(selector_seed(0), &[five_tuple_digest, self.salt]);
        h ^ cookie
    }

    /// Unacknowledged configuration frames for retransmission.
    pub fn pending_sync(&self) -> Vec<Vec<u8>> {
        self.sync.pending_frames()
    }

    /// Handle an incoming frame.
    pub fn handle_frame(&mut self, frame: &[u8]) -> (Option<LbEvent>, Vec<Vec<u8>>) {
        if self.sync.handle_response(frame).is_some() {
            if self.sync.pending_count() == 0 {
                self.configured = true;
            }
            return (
                Some(LbEvent::ConfigProgress {
                    remaining: self.sync.pending_count(),
                }),
                Vec::new(),
            );
        }
        let (event, mut frames) = match self.shim.handle_frame(frame) {
            Some(ShimEvent::Allocated { regions } | ShimEvent::RegionsUpdated { regions }) => {
                self.geometry = self.derive_geometry(&regions);
                let frames = self.configure();
                (Some(LbEvent::Allocated), frames)
            }
            Some(ShimEvent::AllocationFailed) => (Some(LbEvent::AllocationFailed), Vec::new()),
            _ => (None, Vec::new()),
        };
        // Control signalling may queue acks that must reach the switch.
        let mut out = self.shim.take_outgoing();
        out.append(&mut frames);
        (event, out)
    }

    /// Write the switch state: size mask, zeroed counter, page-table
    /// entry (the *physical* base of the pool region) and the VIP pool
    /// itself.
    fn configure(&mut self) -> Vec<Vec<u8>> {
        let Some(g) = self.geometry else {
            return Vec::new();
        };
        self.configured = false;
        let mut ops = vec![
            SyncOp::Write {
                stage: g.size_stage,
                addr: g.size_addr,
                value: self.servers.len() as u32 - 1, // the mask
            },
            SyncOp::Write {
                stage: g.counter_stage,
                addr: g.counter_addr,
                value: 0,
            },
            SyncOp::Write {
                stage: g.page_stage,
                addr: g.page_addr,
                value: g.pool_start,
            },
        ];
        for (i, &server) in self.servers.iter().enumerate() {
            ops.push(SyncOp::Write {
                stage: g.pool_stage,
                addr: g.pool_start + i as u32,
                value: server,
            });
        }
        self.sync.submit(&ops)
    }

    fn derive_geometry(
        &self,
        regions: &[(usize, activermt_isa::wire::RegionEntry)],
    ) -> Option<Geometry> {
        let program = self.shim.program()?;
        let positions = program.memory_access_positions();
        if positions.len() != 4 {
            return None;
        }
        let n = self.shim.num_stages();
        let stage = |i: usize| (positions[i] - 1) % n;
        let find = |s: usize| regions.iter().find(|&&(rs, _)| rs == s).map(|&(_, r)| r);
        let size = find(stage(0))?;
        let counter = find(stage(1))?;
        let page = find(stage(2))?;
        let pool = find(stage(3))?;
        Some(Geometry {
            size_stage: stage(0),
            size_addr: size.start,
            counter_stage: stage(1),
            counter_addr: counter.start,
            page_stage: stage(2),
            page_addr: page.start,
            pool_stage: stage(3),
            pool_start: pool.start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_service_shape() {
        let s = CheetahLb::service();
        assert_eq!(s.pattern.min_positions, vec![5, 10, 19, 21]);
        assert_eq!(s.pattern.prog_len, 30);
        assert!(!s.pattern.elastic);
        // SET_DST is not ingress-bound: no position constraints.
        assert!(s.pattern.ingress_positions.is_empty());
        assert_eq!(s.pattern.demands, vec![1, 1, 1, POOL_BLOCKS]);
    }

    #[test]
    fn route_program_is_stateless() {
        let p = assemble(LB_ROUTE_ASM).unwrap();
        assert_eq!(p.len(), 10, "Listing 4 has 10 instructions");
        assert!(p.memory_access_positions().is_empty());
    }

    #[test]
    fn both_programs_share_hash_selector_zero() {
        for src in [LB_SYN_ASM, LB_ROUTE_ASM] {
            let p = assemble(src).unwrap();
            let sels: Vec<u8> = p
                .instructions()
                .iter()
                .filter(|i| i.opcode == activermt_isa::Opcode::HASH)
                .map(|i| i.flags.operand)
                .collect();
            assert_eq!(sels, vec![0]);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_pools_are_rejected() {
        CheetahLb::new(
            1,
            [2; 6],
            [3; 6],
            7,
            vec![1, 2, 3],
            MutantPolicy::MostConstrained,
            20,
            10,
            1,
        );
    }

    #[test]
    fn unconfigured_balancer_refuses_traffic() {
        let mut lb = CheetahLb::new(
            1,
            [2; 6],
            [3; 6],
            7,
            vec![10, 20, 30, 40],
            MutantPolicy::MostConstrained,
            20,
            10,
            1,
        );
        assert!(!lb.operational());
        assert!(lb.syn_frame([9; 6], b"flow").is_none());
        assert!(lb.route_frame([9; 6], 0, b"flow").is_none());
    }

    #[test]
    fn cookie_algebra_is_involutive() {
        let lb = CheetahLb::new(
            1,
            [2; 6],
            [3; 6],
            0xBEEF,
            vec![10, 20],
            MutantPolicy::MostConstrained,
            20,
            10,
            1,
        );
        let digest = 0x1234_5678;
        let crc = Crc32::new();
        let h = crc.hash_words(selector_seed(0), &[digest, 0xBEEF]);
        let cookie = h ^ 20;
        assert_eq!(lb.server_of_cookie(digest, cookie), 20);
    }
}

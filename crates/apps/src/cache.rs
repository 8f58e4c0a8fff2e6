//! The in-network object cache (Sections 3.4 and 6.3).
//!
//! The service stores 8-byte keys and 4-byte values in hash buckets
//! spread over three stages: one stage holds the first key half, one
//! the second, one the value, all at the same bucket index. The query
//! program is Listing 1 verbatim: locate the bucket, compare both key
//! halves (terminating early on a miss, which forwards the request to
//! the backend server), and on a hit return the value to the sender
//! via RTS.
//!
//! ## Alignment
//!
//! Listing 1 loads a single `$ADDR` and uses it in all three stages, so
//! the three regions must sit at the *same offset* in each stage. The
//! allocator's deterministic layout gives exactly that whenever the
//! instance's three stages host the same tenant set (always true in the
//! paper's case-study scenarios, where cache instances either own their
//! stages or share all three with the same co-tenant — Figure 9b). The
//! client verifies alignment from the allocation response and refuses
//! to operate otherwise.
//!
//! Population and repopulation use the Appendix C memsync primitives;
//! the reallocation handler required by Section 4.3 is
//! [`CacheApp::handle_frame`]'s `RegionsUpdated` path: it recomputes the
//! bucket layout for the new (possibly smaller) regions and rewrites
//! the retained objects.

use crate::kvstore::{join_key, key_halves};
use activermt_client::asm::assemble;
use activermt_client::compiler::{CompiledService, Compiler, ServiceSpec};
use activermt_client::memsync::{MemSync, SyncOp};
use activermt_client::shim::{Shim, ShimEvent, ShimState};
use activermt_core::alloc::MutantPolicy;
use activermt_rmt::hash::Crc32;
use std::collections::BTreeMap;

/// Listing 1: the active program for querying an object cache.
pub const CACHE_QUERY_ASM: &str = r"
    MAR_LOAD $3        // locate bucket
    MEM_READ           // first 4 bytes
    MBR_EQUALS_DATA_1  // compare bytes
    CRET               // partial match?
    MEM_READ           // next 4 bytes
    MBR_EQUALS_DATA_2  // compare bytes
    CRET               // full match?
    RTS                // create reply
    MEM_READ           // read the value
    MBR_STORE $2       // write to packet
    RETURN             // fin.
";

/// Events surfaced by [`CacheApp::handle_frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEvent {
    /// The allocation was granted; the cache is operational (and empty).
    Allocated,
    /// The switch reallocated us; contents were repopulated.
    Reallocated,
    /// The switch rejected the allocation request.
    AllocationFailed,
    /// A query hit the cache: the value came back switch-turned.
    Hit {
        /// The requested key.
        key: u64,
        /// The cached value.
        value: u32,
    },
    /// A population write batch was acknowledged.
    SyncAcked,
    /// The switch quiesced us pending reallocation; the application
    /// must extract state and then send [`CacheApp::snapshot_complete`]
    /// (Section 4.3). [`CacheApp::snapshot_cost_regs`] sizes the
    /// data-plane extraction.
    SnapshotNeeded,
    /// The shim's retransmission deadline expired without a switch
    /// answer: the cache is out of service and requests should fall
    /// back to the backend server.
    Degraded,
}

/// What to do after handling a frame.
#[derive(Debug, Default)]
pub struct Reaction {
    /// Event for the application, if any.
    pub event: Option<CacheEvent>,
    /// Frames the client should transmit now.
    pub frames: Vec<Vec<u8>>,
}

/// One cache service instance (one FID).
#[derive(Debug)]
pub struct CacheApp {
    shim: Shim,
    sync: MemSync,
    server_mac: [u8; 6],
    crc: Crc32,
    /// Client-side copy of populated contents (the paper's clients know
    /// what they populated; extraction on reallocation is therefore
    /// local — Section 6.3 populates "based on known request patterns").
    contents: BTreeMap<u64, u32>,
    geometry: Option<Geometry>,
}

#[derive(Debug, Clone)]
struct Geometry {
    /// Stages holding (key0, key1, value), in access order.
    stages: [usize; 3],
    /// Common region start (register index) — the alignment invariant.
    start: u32,
    /// Buckets available (the smallest region length).
    buckets: u32,
}

impl CacheApp {
    /// Compile the cache service definition (elastic; Section 6.1).
    pub fn service() -> CompiledService {
        Compiler::compile(ServiceSpec {
            name: "cache".into(),
            program: assemble(CACHE_QUERY_ASM).expect("Listing 1 is valid"),
            demands: vec![0, 0, 0],
            elastic: true,
            aliases: vec![],
        })
        .expect("cache service compiles")
    }

    /// Create a cache client.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fid: u16,
        mac: [u8; 6],
        switch_mac: [u8; 6],
        server_mac: [u8; 6],
        policy: MutantPolicy,
        num_stages: usize,
        ingress_stages: usize,
        max_extra_recircs: u8,
    ) -> CacheApp {
        CacheApp {
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
            sync: MemSync::new(fid, mac, server_mac, num_stages),
            server_mac,
            crc: Crc32::new(),
            contents: BTreeMap::new(),
            geometry: None,
        }
    }

    /// The underlying shim (state inspection).
    pub fn shim(&self) -> &Shim {
        &self.shim
    }

    /// The service identifier.
    pub fn fid(&self) -> u16 {
        self.shim.fid()
    }

    /// Is the cache operational (allocated, aligned, populated or not)?
    pub fn operational(&self) -> bool {
        self.shim.state() == ShimState::Operational && self.geometry.is_some()
    }

    /// Bucket capacity of the current allocation.
    pub fn capacity(&self) -> u32 {
        self.geometry.as_ref().map_or(0, |g| g.buckets)
    }

    /// Build the allocation request (retransmitted via
    /// [`CacheApp::poll`] until answered).
    pub fn request_allocation(&mut self, now_ns: u64) -> Vec<u8> {
        self.shim.request_allocation(now_ns)
    }

    /// Drive the shim's retransmission timer: returns frames to send
    /// (retries) and [`CacheEvent::Degraded`] once the shim gives up.
    pub fn poll(&mut self, now_ns: u64) -> Reaction {
        let event = match self.shim.poll(now_ns) {
            Some(ShimEvent::Degraded) => Some(CacheEvent::Degraded),
            _ => None,
        };
        Reaction {
            event,
            frames: self.shim.take_outgoing(),
        }
    }

    /// Build the deallocation control packet (context switches in
    /// Section 6.3 deallocate the monitor before allocating the cache).
    pub fn deallocate(&mut self) -> Vec<u8> {
        self.geometry = None;
        self.contents.clear();
        self.shim.deallocate()
    }

    /// The bucket index a key maps to (client-side hashing; Section 3.4
    /// uses hash-based addressing with client-computed `$ADDR`).
    pub fn bucket_of(&self, key: u64) -> Option<u32> {
        let g = self.geometry.as_ref()?;
        Some(crate::workload::mix32(self.crc.checksum(&key.to_be_bytes())) % g.buckets)
    }

    /// Activate a GET request for `key` toward the server: on a cache
    /// hit the switch turns it around; on a miss it continues to the
    /// backend.
    pub fn get_frame(&mut self, key: u64, payload: &[u8]) -> Option<Vec<u8>> {
        let g = self.geometry.clone()?;
        let bucket = self.bucket_of(key)?;
        let (k0, k1) = key_halves(key);
        self.shim
            .activate(self.server_mac, [k0, k1, 0, g.start + bucket], payload)
    }

    /// Populate the cache with the given objects (most-frequent items
    /// from the monitor, Section 6.3). On hash collisions the earlier
    /// (higher-ranked) entry wins. Returns the memsync write frames.
    pub fn populate(&mut self, entries: &[(u64, u32)]) -> Vec<Vec<u8>> {
        let Some(g) = self.geometry.clone() else {
            return Vec::new();
        };
        let mut taken: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
        for &(key, value) in entries {
            let bucket = crate::workload::mix32(self.crc.checksum(&key.to_be_bytes())) % g.buckets;
            taken.entry(bucket).or_insert((key, value));
        }
        self.contents = taken.values().copied().collect();
        let mut ops = Vec::with_capacity(taken.len() * 3);
        for (&bucket, &(key, value)) in &taken {
            let (k0, k1) = key_halves(key);
            let addr = g.start + bucket;
            ops.push(SyncOp::Write {
                stage: g.stages[0],
                addr,
                value: k0,
            });
            ops.push(SyncOp::Write {
                stage: g.stages[1],
                addr,
                value: k1,
            });
            ops.push(SyncOp::Write {
                stage: g.stages[2],
                addr,
                value,
            });
        }
        self.sync.submit(&ops)
    }

    /// The client-side copy of the populated contents.
    pub fn contents(&self) -> &BTreeMap<u64, u32> {
        &self.contents
    }

    /// Registers a full data-plane snapshot of the current allocation
    /// would read (one register per bucket per stage) — what bounds the
    /// Figure 10 disruption window.
    pub fn snapshot_cost_regs(&self) -> u64 {
        self.shim
            .regions()
            .iter()
            .map(|(_, r)| u64::from(r.len()))
            .sum()
    }

    /// Signal the controller that state extraction finished
    /// (Section 4.3). Retransmitted via [`CacheApp::poll`] until the
    /// post-reallocation response arrives.
    pub fn snapshot_complete(&mut self, now_ns: u64) -> Vec<u8> {
        self.shim.snapshot_complete(now_ns)
    }

    /// Unacknowledged memsync frames for retransmission.
    pub fn pending_sync(&self) -> Vec<Vec<u8>> {
        self.sync.pending_frames()
    }

    /// How many memsync frames are unacknowledged (no copies made).
    pub fn pending_sync_count(&self) -> usize {
        self.sync.pending_count()
    }

    /// Handle an incoming frame (allocation responses, control
    /// signalling, returned program packets).
    pub fn handle_frame(&mut self, frame: &[u8]) -> Reaction {
        // Memsync acknowledgements first: they are program packets of
        // our FID in the sync sequence space.
        if self.sync.handle_response(frame).is_some() {
            return Reaction {
                event: Some(CacheEvent::SyncAcked),
                frames: Vec::new(),
            };
        }
        let event = self.shim.handle_frame(frame);
        let mut reaction = self.react(event);
        // Control signalling may queue acks (e.g. ReactivateAck) that
        // must reach the switch.
        let mut shim_out = self.shim.take_outgoing();
        shim_out.extend(std::mem::take(&mut reaction.frames));
        reaction.frames = shim_out;
        reaction
    }

    fn react(&mut self, event: Option<ShimEvent>) -> Reaction {
        let Some(event) = event else {
            return Reaction::default();
        };
        match event {
            ShimEvent::Allocated { regions } => {
                self.geometry = Self::derive_geometry(&regions, &self.shim);
                Reaction {
                    event: Some(CacheEvent::Allocated),
                    frames: Vec::new(),
                }
            }
            ShimEvent::RegionsUpdated { regions } => {
                self.geometry = Self::derive_geometry(&regions, &self.shim);
                // Writes still outstanding against the *old* regions can
                // never be acknowledged (they now violate protection);
                // abandon them before re-planning.
                self.sync.reset();
                // Reallocation handler: repopulate the retained objects
                // into the new (possibly smaller) regions.
                let retained: Vec<(u64, u32)> =
                    self.contents.iter().map(|(&k, &v)| (k, v)).collect();
                let frames = self.populate(&retained);
                Reaction {
                    event: Some(CacheEvent::Reallocated),
                    frames,
                }
            }
            ShimEvent::AllocationFailed => Reaction {
                event: Some(CacheEvent::AllocationFailed),
                frames: Vec::new(),
            },
            ShimEvent::MustSnapshot => Reaction {
                event: Some(CacheEvent::SnapshotNeeded),
                frames: Vec::new(),
            },
            ShimEvent::Reactivated => Reaction::default(),
            ShimEvent::Degraded => Reaction {
                event: Some(CacheEvent::Degraded),
                frames: Vec::new(),
            },
            ShimEvent::ProgramReturned { frame } => {
                let Ok(layout) = activermt_isa::wire::program_packet_layout(&frame) else {
                    return Reaction::default();
                };
                let arg = |i: usize| {
                    let off = layout.args_off + i * 4;
                    u32::from_be_bytes(frame[off..off + 4].try_into().expect("bounds checked"))
                };
                Reaction {
                    event: Some(CacheEvent::Hit {
                        key: join_key(arg(0), arg(1)),
                        value: arg(2),
                    }),
                    frames: Vec::new(),
                }
            }
        }
    }

    fn derive_geometry(
        regions: &[(usize, activermt_isa::wire::RegionEntry)],
        shim: &Shim,
    ) -> Option<Geometry> {
        if regions.len() != 3 {
            return None;
        }
        // Access order = the synthesized program's stage order.
        let program = shim.program()?;
        let positions = program.memory_access_positions();
        let n = shim.num_stages();
        let mut stages = [0usize; 3];
        for (i, &pos) in positions.iter().enumerate().take(3) {
            stages[i] = (pos - 1) % n;
        }
        let find = |s: usize| regions.iter().find(|&&(rs, _)| rs == s).map(|&(_, r)| r);
        let r0 = find(stages[0])?;
        let r1 = find(stages[1])?;
        let r2 = find(stages[2])?;
        // The alignment invariant Listing 1 requires.
        if r0.start != r1.start || r1.start != r2.start {
            return None;
        }
        Some(Geometry {
            stages,
            start: r0.start,
            buckets: r0.len().min(r1.len()).min(r2.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_matches_listing1_constraints() {
        let s = CacheApp::service();
        assert_eq!(s.pattern.min_positions, vec![2, 5, 9]);
        assert_eq!(s.pattern.min_gaps(), vec![1, 3, 4]);
        assert!(s.pattern.elastic);
        assert_eq!(s.pattern.ingress_positions, vec![8]);
        assert_eq!(s.pattern.prog_len, 11);
    }

    #[test]
    fn unallocated_cache_refuses_to_operate() {
        let mut app = CacheApp::new(
            1,
            [2; 6],
            [3; 6],
            [4; 6],
            MutantPolicy::MostConstrained,
            20,
            10,
            1,
        );
        assert!(!app.operational());
        assert!(app.get_frame(42, b"").is_none());
        assert!(app.populate(&[(1, 2)]).is_empty());
        assert_eq!(app.bucket_of(5), None);
        assert_eq!(app.capacity(), 0);
    }
}

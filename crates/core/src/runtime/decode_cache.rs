//! The program-decode cache and the fixed-size instruction scratch.
//!
//! The paper's hardware decodes each instruction with a pre-installed
//! exact-match SRAM table — decoding costs nothing at line rate. Our
//! software runtime used to re-parse the instruction words of every
//! active frame into a fresh `Vec<Instruction>`, a per-packet heap
//! allocation Packet Transactions-style datapaths design out. Two
//! mechanisms remove it:
//!
//! * a fixed-size [`InstrScratch`] (capacity [`MAX_INSTRS`]) that decode
//!   fills in place — no per-frame `Vec`;
//! * a [`DecodeCache`] keeping, per FID, the short list of programs
//!   that FID currently sends, so steady-state flows (which re-send the
//!   same program bytes on every packet) skip parsing entirely.
//!
//! The cache is keyed by the FID alone — the one key the paper's switch
//! matches on entry — and a probe is that lookup plus a length check
//! and `memcmp` against the FID's one-to-few residents. There is no
//! digest of the program bytes to compute per frame and none to
//! collide: a hit *is* the byte-for-byte comparison. Two bounds keep it
//! soft state: [`MAX_RESIDENTS_PER_FID`] programs per FID (the oldest
//! is replaced, so a FID spraying distinct programs lengthens neither
//! its own scan nor anyone else's) and a whole-cache flush at the
//! configured capacity. Every control-plane touch of a FID
//! (deactivation, reactivation, region install/revoke, privilege
//! changes) drops all of its residents in one removal — any of these
//! may coincide with the client resynthesizing its program, and a stale
//! decode must never outlive the allocation that shaped it.

use crate::types::{Fid, FidMap};
use activermt_isa::constants::MAX_PROGRAM_LEN;
use activermt_isa::{Instruction, Opcode};
use activermt_telemetry::{Counter, Registry};

/// Maximum decoded instructions per program (the one-byte program-length
/// field bounds the encodable length).
pub const MAX_INSTRS: usize = MAX_PROGRAM_LEN;

/// Fixed-size decode scratch; lives in the runtime, reused per frame.
pub type InstrScratch = [Instruction; MAX_INSTRS];

/// A freshly zeroed scratch (NOP-filled; only the decoded prefix is
/// ever read).
pub fn new_scratch() -> Box<InstrScratch> {
    Box::new([Instruction::new(Opcode::NOP); MAX_INSTRS])
}

/// The instruction stream could not be decoded: an invalid opcode
/// word, a missing EOF terminator, or more than [`MAX_INSTRS`]
/// instructions. The frame carrying it must be counted malformed and
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedProgram;

/// Decode an EOF-terminated instruction stream into `scratch`.
///
/// Returns `(instruction_count, executed_prefix)` — the number of
/// decoded instructions before EOF and the length of the
/// already-executed prefix (the resume `pc`). An undecodable word, a
/// missing EOF, or a stream longer than [`MAX_INSTRS`] is a malformed
/// program: the caller must count and drop the frame rather than
/// compacting the stream around the bad word (compaction would misalign
/// `pc` against the executed-flags prefix written back into the frame).
pub fn decode_into(
    bytes: &[u8],
    scratch: &mut InstrScratch,
) -> Result<(usize, usize), MalformedProgram> {
    let mut executed_prefix = 0usize;
    let mut in_prefix = true;
    // Every chunk before EOF stores exactly one instruction, so the
    // chunk index doubles as the instruction count.
    for (count, chunk) in bytes.chunks_exact(2).enumerate() {
        let ins = Instruction::from_bytes(chunk[0], chunk[1]).map_err(|_| MalformedProgram)?;
        if ins.opcode == Opcode::EOF {
            return Ok((count, executed_prefix));
        }
        if count >= MAX_INSTRS {
            return Err(MalformedProgram);
        }
        if in_prefix && ins.flags.executed {
            executed_prefix += 1;
        } else {
            in_prefix = false;
        }
        scratch[count] = ins;
    }
    Err(MalformedProgram) // no EOF terminator
}

/// Programs one FID may keep resident at once. A client sends one
/// program per service (two while a reallocation swaps mutants), so the
/// bound only ever bites a FID that sprays distinct programs.
pub const MAX_RESIDENTS_PER_FID: usize = 8;

/// One memoized decode.
#[derive(Debug, Clone)]
pub struct CachedProgram {
    /// The exact wire bytes this entry was decoded from: a hit is a
    /// byte-for-byte match against these, nothing weaker.
    bytes: Box<[u8]>,
    /// Decoded instructions (EOF excluded).
    instrs: Box<[Instruction]>,
    /// Executed-prefix length: the `pc` execution resumes at.
    start_pc: usize,
    /// Does any instruction read the flow digest
    /// (`COPY_HASHDATA_5TUPLE`)? Frames of programs that do not never
    /// pay for computing it.
    reads_flow_digest: bool,
}

impl CachedProgram {
    /// The decoded instructions.
    #[inline]
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// The resume program counter (already-executed prefix).
    #[inline]
    pub fn start_pc(&self) -> usize {
        self.start_pc
    }

    /// Does the program read the flow ("5-tuple") digest?
    #[inline]
    pub(crate) fn reads_flow_digest(&self) -> bool {
        self.reads_flow_digest
    }
}

/// Decode-cache telemetry (a point-in-time view of the live counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Frames served from the cache without parsing.
    pub hits: u64,
    /// Frames that had to be decoded (and were then memoized).
    pub misses: u64,
    /// Entries dropped by control-plane invalidation.
    pub invalidations: u64,
    /// Whole-cache flushes after reaching capacity, plus residents
    /// replaced at the per-FID bound.
    pub evictions: u64,
}

/// The live counter cells behind [`DecodeCacheStats`]. Registry-
/// adoptable handles; `Clone` detaches (deep-copies the values) so a
/// cloned runtime — the differential tests clone the optimized/
/// reference pair — never shares cells with the original.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
}

impl Clone for CacheCounters {
    fn clone(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.detached_copy(),
            misses: self.misses.detached_copy(),
            invalidations: self.invalidations.detached_copy(),
            evictions: self.evictions.detached_copy(),
        }
    }
}

/// The `fid → resident decoded programs` table.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    /// Oldest resident first; a list is never left empty.
    map: FidMap<Vec<CachedProgram>>,
    /// Residents across all FIDs.
    len: usize,
    capacity: usize,
    stats: CacheCounters,
}

impl DecodeCache {
    /// A cache bounded at `capacity` entries (flushed wholesale when
    /// full — steady state never gets near the bound; churny FID mixes
    /// simply re-decode) and [`MAX_RESIDENTS_PER_FID`] per FID.
    pub fn new(capacity: usize) -> DecodeCache {
        DecodeCache {
            map: FidMap::default(),
            len: 0,
            capacity: capacity.max(1),
            stats: CacheCounters::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DecodeCacheStats {
        DecodeCacheStats {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
            invalidations: self.stats.invalidations.get(),
            evictions: self.stats.evictions.get(),
        }
    }

    /// Adopt the cache's live counters into a metrics registry.
    pub fn bind(&self, registry: &Registry) {
        registry.register_counter("decode_cache.hits", &self.stats.hits);
        registry.register_counter("decode_cache.misses", &self.stats.misses);
        registry.register_counter("decode_cache.invalidations", &self.stats.invalidations);
        registry.register_counter("decode_cache.evictions", &self.stats.evictions);
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The resident decode of exactly `bytes` for `fid`, if any. Counts
    /// nothing: the runtime tallies its hits in a plain integer and
    /// publishes them once per call ([`DecodeCache::add_hits`]).
    #[inline]
    pub(crate) fn resident(&self, fid: Fid, bytes: &[u8]) -> Option<&CachedProgram> {
        self.find(fid, bytes).map(|(residents, i)| &residents[i])
    }

    /// The one probe both entry points share: `fid`'s residents and the
    /// position among them of the decode of exactly `bytes`.
    #[inline]
    fn find(&self, fid: Fid, bytes: &[u8]) -> Option<(&[CachedProgram], usize)> {
        let residents = self.map.get(&fid)?;
        let i = residents.iter().position(|c| *c.bytes == *bytes)?;
        Some((residents, i))
    }

    /// Publish `n` hits the runtime found through
    /// [`DecodeCache::resident`].
    #[inline]
    pub(crate) fn add_hits(&self, n: u64) {
        self.stats.hits.add(n);
    }

    /// The miss path: parse `bytes` into `scratch`, make the decode
    /// `fid`'s newest resident and count the miss. A malformed stream
    /// is memoized nowhere.
    pub(crate) fn decode_and_insert(
        &mut self,
        fid: Fid,
        bytes: &[u8],
        scratch: &mut InstrScratch,
    ) -> Result<&CachedProgram, MalformedProgram> {
        let (count, start_pc) = decode_into(bytes, scratch)?;
        self.stats.misses.inc();
        let instrs: Box<[Instruction]> = scratch[..count].into();
        let entry = CachedProgram {
            bytes: bytes.into(),
            reads_flow_digest: instrs
                .iter()
                .any(|i| i.opcode == Opcode::COPY_HASHDATA_5TUPLE),
            instrs,
            start_pc,
        };
        if self.len >= self.capacity {
            self.map.clear();
            self.len = 0;
            self.stats.evictions.inc();
        }
        let residents = self.map.entry(fid).or_default();
        if residents.len() >= MAX_RESIDENTS_PER_FID {
            residents.remove(0);
            self.stats.evictions.inc();
        } else {
            self.len += 1;
        }
        residents.push(entry);
        Ok(&residents[residents.len() - 1])
    }

    /// Look up the decode of `bytes` for `fid`, parsing into `scratch`
    /// and memoizing on miss. [`MalformedProgram`] means the caller
    /// counts a malformed drop. Counts its hit or miss per call.
    pub fn lookup_or_decode(
        &mut self,
        fid: Fid,
        bytes: &[u8],
        scratch: &mut InstrScratch,
    ) -> Result<&CachedProgram, MalformedProgram> {
        // Found by position and re-indexed: returning the probe's own
        // borrow from one arm would hold `self` through the miss arm.
        match self.find(fid, bytes).map(|(_, i)| i) {
            Some(i) => {
                self.stats.hits.inc();
                Ok(&self.map[&fid][i])
            }
            None => self.decode_and_insert(fid, bytes, scratch),
        }
    }

    /// Re-attach this cache's counters to `other`'s cells (the opposite
    /// of `Clone`, which detaches). Shard replicas in the parallel
    /// executor share decode-cache counters so `decode_cache.*` metrics
    /// aggregate across workers.
    pub(crate) fn adopt_counters(&mut self, other: &DecodeCache) {
        self.stats = CacheCounters {
            hits: Counter::clone(&other.stats.hits),
            misses: Counter::clone(&other.stats.misses),
            invalidations: Counter::clone(&other.stats.invalidations),
            evictions: Counter::clone(&other.stats.evictions),
        };
    }

    /// FIDs with at least one resident entry, sorted. The invariant
    /// engine compares this set against the protection tables: a cached
    /// decode for a FID the control plane no longer protects is a
    /// missed invalidation.
    pub fn cached_fids(&self) -> Vec<Fid> {
        let mut fids: Vec<Fid> = self.map.keys().copied().collect();
        fids.sort_unstable();
        fids
    }

    /// Drop every entry belonging to `fid` (control-plane touch): one
    /// removal, whatever else is resident.
    pub fn invalidate(&mut self, fid: Fid) {
        if let Some(residents) = self.map.remove(&fid) {
            self.len -= residents.len();
            self.stats.invalidations.add(residents.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(ops: &[Opcode]) -> Vec<u8> {
        let mut b = Vec::new();
        for &op in ops {
            b.extend_from_slice(&Instruction::new(op).to_bytes());
        }
        b.extend_from_slice(&Instruction::new(Opcode::EOF).to_bytes());
        b
    }

    #[test]
    fn decode_matches_stream_and_reports_prefix() {
        let mut scratch = new_scratch();
        let bytes = encode(&[Opcode::NOP, Opcode::MEM_READ, Opcode::RETURN]);
        let (n, pc) = decode_into(&bytes, &mut scratch).unwrap();
        assert_eq!(n, 3);
        assert_eq!(pc, 0);
        assert_eq!(scratch[1].opcode, Opcode::MEM_READ);
        // Mark the first word executed: resume pc moves to 1.
        let mut bytes2 = bytes.clone();
        bytes2[1] |= 0x80;
        let (n2, pc2) = decode_into(&bytes2, &mut scratch).unwrap();
        assert_eq!((n2, pc2), (3, 1));
    }

    #[test]
    fn executed_prefix_stops_at_first_gap() {
        let mut scratch = new_scratch();
        let mut bytes = encode(&[Opcode::NOP, Opcode::NOP, Opcode::NOP]);
        bytes[1] |= 0x80; // word 0 executed
        bytes[5] |= 0x80; // word 2 executed, word 1 not: not a prefix
        let (_, pc) = decode_into(&bytes, &mut scratch).unwrap();
        assert_eq!(pc, 1);
    }

    #[test]
    fn undecodable_word_is_an_error_not_a_compaction() {
        let mut scratch = new_scratch();
        let mut bytes = encode(&[Opcode::NOP, Opcode::MEM_READ]);
        bytes[2] = 0xFF; // invalid opcode in the middle
        assert!(decode_into(&bytes, &mut scratch).is_err());
    }

    #[test]
    fn missing_eof_is_an_error() {
        let mut scratch = new_scratch();
        let bytes = Instruction::new(Opcode::NOP).to_bytes().to_vec();
        assert!(decode_into(&bytes, &mut scratch).is_err());
    }

    #[test]
    fn cache_hits_skip_decode_and_misses_memoize() {
        let mut cache = DecodeCache::new(16);
        let mut scratch = new_scratch();
        let bytes = encode(&[Opcode::NOP, Opcode::RETURN]);
        let c = cache.lookup_or_decode(7, &bytes, &mut scratch).unwrap();
        assert_eq!(c.instrs().len(), 2);
        assert_eq!(cache.stats().misses, 1);
        cache.lookup_or_decode(7, &bytes, &mut scratch).unwrap();
        assert_eq!(cache.stats().hits, 1);
        // A different FID with the same bytes is a distinct entry.
        cache.lookup_or_decode(8, &bytes, &mut scratch).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn invalidation_is_per_fid() {
        let mut cache = DecodeCache::new(16);
        let mut scratch = new_scratch();
        let bytes = encode(&[Opcode::RETURN]);
        cache.lookup_or_decode(7, &bytes, &mut scratch).unwrap();
        cache.lookup_or_decode(8, &bytes, &mut scratch).unwrap();
        cache.invalidate(7);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        cache.lookup_or_decode(8, &bytes, &mut scratch).unwrap();
        assert_eq!(cache.stats().hits, 1, "fid 8 survived the invalidation");
    }

    /// The `i`-th of 1024 distinct valid programs: ten words, each NOP
    /// or MBR_NOT by the bits of `i`.
    fn sprayed(i: usize) -> Vec<u8> {
        let ops: Vec<Opcode> = (0..10)
            .map(|b| [Opcode::NOP, Opcode::MBR_NOT][(i >> b) & 1])
            .collect();
        encode(&ops)
    }

    #[test]
    fn hostile_fid_is_bounded_and_cannot_evict_its_neighbour() {
        let (sprayer, neighbour) = (7, 8);
        let mut cache = DecodeCache::new(4096);
        let mut scratch = new_scratch();
        let steady = encode(&[Opcode::MEM_READ, Opcode::RETURN]);
        for i in 0..1000 {
            cache
                .lookup_or_decode(sprayer, &sprayed(i), &mut scratch)
                .unwrap();
            cache
                .lookup_or_decode(neighbour, &steady, &mut scratch)
                .unwrap();
            assert!(cache.map[&sprayer].len() <= MAX_RESIDENTS_PER_FID);
            assert!(cache.len() <= MAX_RESIDENTS_PER_FID + 1);
        }
        let st = cache.stats();
        // The sprayer never hits; the neighbour misses once, ever.
        assert_eq!(st.hits, 1000 - 1);
        assert_eq!(st.misses, 1000 + 1);
        // Every sprayed program past the bound replaced the oldest one.
        assert_eq!(st.evictions, (1000 - MAX_RESIDENTS_PER_FID) as u64);
        // The survivors are the newest eight, oldest first.
        assert_eq!(*cache.map[&sprayer][0].bytes, *sprayed(992));
        assert_eq!(cache.len(), MAX_RESIDENTS_PER_FID + 1);
    }

    #[test]
    fn whole_cache_bound_holds_across_many_fids() {
        let mut cache = DecodeCache::new(16);
        let mut scratch = new_scratch();
        for i in 0..200usize {
            cache
                .lookup_or_decode((i % 5) as Fid, &sprayed(i), &mut scratch)
                .unwrap();
            assert!(cache.len() <= 16);
            let resident: usize = cache.map.values().map(Vec::len).sum();
            assert_eq!(cache.len(), resident);
            assert!(cache.map.values().all(|r| !r.is_empty()));
        }
        assert!(cache.stats().evictions >= 200 / 16);
    }

    #[test]
    fn invalidation_drops_every_resident_of_the_fid_and_counts_them() {
        let mut cache = DecodeCache::new(64);
        let mut scratch = new_scratch();
        for i in 0..3 {
            cache
                .lookup_or_decode(7, &sprayed(i), &mut scratch)
                .unwrap();
        }
        // Same bytes under another FID are that FID's own resident.
        cache
            .lookup_or_decode(8, &sprayed(0), &mut scratch)
            .unwrap();
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.cached_fids(), vec![7, 8]);
        cache.invalidate(7);
        assert_eq!(cache.stats().invalidations, 3);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.cached_fids(), vec![8]);
        cache.invalidate(7); // nothing left: counts nothing
        assert_eq!(cache.stats().invalidations, 3);
        cache
            .lookup_or_decode(8, &sprayed(0), &mut scratch)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        // A malformed stream leaves no (empty) list behind.
        assert!(cache.lookup_or_decode(9, &[0xFF, 0], &mut scratch).is_err());
        assert_eq!(cache.cached_fids(), vec![8]);
    }

    #[test]
    fn decode_records_whether_the_program_reads_the_flow_digest() {
        let mut cache = DecodeCache::new(16);
        let mut scratch = new_scratch();
        let with = encode(&[Opcode::COPY_HASHDATA_5TUPLE, Opcode::HASH, Opcode::RETURN]);
        let without = encode(&[Opcode::COPY_HASHDATA_MBR, Opcode::HASH, Opcode::RETURN]);
        assert!(cache
            .lookup_or_decode(7, &with, &mut scratch)
            .unwrap()
            .reads_flow_digest());
        assert!(!cache
            .lookup_or_decode(7, &without, &mut scratch)
            .unwrap()
            .reads_flow_digest());
        // Remembered on the hit path too.
        assert!(cache.resident(7, &with).unwrap().reads_flow_digest());
    }

    #[test]
    fn bound_registry_sees_live_counts_but_clones_detach() {
        let reg = activermt_telemetry::Registry::new();
        let mut cache = DecodeCache::new(16);
        cache.bind(&reg);
        let mut scratch = new_scratch();
        let bytes = encode(&[Opcode::RETURN]);
        cache.lookup_or_decode(7, &bytes, &mut scratch).unwrap();
        cache.lookup_or_decode(7, &bytes, &mut scratch).unwrap();
        assert_eq!(reg.counter("decode_cache.hits").get(), 1);
        assert_eq!(reg.counter("decode_cache.misses").get(), 1);
        // A cloned cache keeps its values but detaches from the
        // registry: further hits on the clone must not leak in.
        let mut twin = cache.clone();
        twin.lookup_or_decode(7, &bytes, &mut scratch).unwrap();
        assert_eq!(twin.stats().hits, 2);
        assert_eq!(reg.counter("decode_cache.hits").get(), 1);
    }

    #[test]
    fn capacity_bound_flushes() {
        let mut cache = DecodeCache::new(2);
        let mut scratch = new_scratch();
        for fid in 0..3u16 {
            cache
                .lookup_or_decode(fid, &encode(&[Opcode::RETURN]), &mut scratch)
                .unwrap();
        }
        assert!(cache.len() <= 2);
        assert_eq!(cache.stats().evictions, 1);
    }
}

//! The controller's verification memo, keyed by program and allocation
//! shape.
//!
//! Static verification is a deterministic function of the canonical
//! instruction stream, the mutant's access positions and the geometry
//! of the granted regions. Depart-then-arrive churn re-admits the same
//! program onto the same shapes, so the controller fronts the proof
//! with a small exact-match cache of accepted verdicts. Traced, it hits
//! 563 of 640 verifications at `ctl_churn_mc` and 26 of 160 at
//! `ctl_churn_lc`.
//!
//! Keys pair a 64-bit FNV-1a digest of the encoded instruction stream
//! with the sorted `(stage, start, end)` region triples, so a program
//! upgrade or any geometric change misses naturally. Eviction is FIFO
//! with a bounded capacity: the cache is soft state and never
//! authoritative — a miss merely recomputes.

use std::collections::{BTreeMap, VecDeque};

use activermt_isa::Program;

/// The controller cache's capacity: generous for a churn's working
/// set, small enough to be harmless.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 64;

/// 64-bit FNV-1a digest of a program's encoded instruction stream.
/// Stable across runs (unlike `std`'s hasher) so digests can appear in
/// telemetry and logs.
fn program_digest(program: &Program) -> u64 {
    fnv1a(&program.encode_instructions())
}

/// FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An allocation shape: sorted, canonicalized `(stage, start, end)`
/// words. Two grants with the same shape are interchangeable inputs to
/// verification.
fn shape_words(regions: &[(usize, u32, u32)]) -> Vec<u64> {
    let mut sorted: Vec<(usize, u32, u32)> = regions.to_vec();
    sorted.sort_unstable();
    sorted
        .into_iter()
        .flat_map(|(stage, start, end)| [stage as u64, u64::from(start), u64::from(end)])
        .collect()
}

/// Cache key: program digest × allocation shape.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CacheKey {
    digest: u64,
    shape: Vec<u64>,
}

impl CacheKey {
    /// Build a key from a program and its granted-region geometry.
    pub(crate) fn new(program: &Program, regions: &[(usize, u32, u32)]) -> CacheKey {
        CacheKey {
            digest: program_digest(program),
            shape: shape_words(regions),
        }
    }

    /// Fold extra discriminating words into the digest half of the key
    /// (e.g. the mutant access positions a verdict was proven for, so
    /// the same grant with a differently-padded mutant misses).
    pub(crate) fn salted(mut self, words: &[u16]) -> CacheKey {
        let mut bytes = self.digest.to_be_bytes().to_vec();
        for w in words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        self.digest = fnv1a(&bytes);
        self
    }
}

/// A bounded exact-match memo table.
#[derive(Debug, Clone)]
pub(crate) struct MutantCache<V> {
    entries: BTreeMap<CacheKey, V>,
    order: VecDeque<CacheKey>,
    capacity: usize,
}

impl<V: Clone> MutantCache<V> {
    /// An empty cache holding at most `capacity` entries (at least 1).
    pub(crate) fn new(capacity: usize) -> MutantCache<V> {
        MutantCache {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Look up a key, cloning the cached value on a hit.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<V> {
        self.entries.get(key).cloned()
    }

    /// Insert (or refresh) an entry, evicting the oldest insertion once
    /// the capacity is exceeded.
    pub(crate) fn insert(&mut self, key: CacheKey, value: V) {
        if self.entries.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.entries.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activermt_isa::{Instruction, Opcode};

    fn program(ops: &[Opcode]) -> Program {
        let instrs: Vec<Instruction> = ops.iter().map(|&o| Instruction::new(o)).collect();
        Program::new(instrs, [0; 4]).unwrap()
    }

    #[test]
    fn digest_tracks_instruction_stream() {
        let a = program(&[Opcode::MAR_LOAD, Opcode::MEM_READ, Opcode::RETURN]);
        let b = program(&[Opcode::MAR_LOAD, Opcode::MEM_READ, Opcode::RETURN]);
        let c = program(&[Opcode::MAR_LOAD, Opcode::MEM_WRITE, Opcode::RETURN]);
        assert_eq!(program_digest(&a), program_digest(&b));
        assert_ne!(program_digest(&a), program_digest(&c));
    }

    #[test]
    fn shape_is_order_insensitive_but_geometry_sensitive() {
        let a = shape_words(&[(1, 0, 64), (4, 128, 256)]);
        let b = shape_words(&[(4, 128, 256), (1, 0, 64)]);
        let c = shape_words(&[(1, 0, 64), (4, 128, 512)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hit_miss_and_fifo_eviction() {
        let p = program(&[Opcode::MAR_LOAD, Opcode::MEM_READ, Opcode::RETURN]);
        let mut cache: MutantCache<u32> = MutantCache::new(2);
        let k1 = CacheKey::new(&p, &[(1, 0, 64)]);
        let k2 = CacheKey::new(&p, &[(2, 0, 64)]);
        let k3 = CacheKey::new(&p, &[(3, 0, 64)]);
        assert!(cache.get(&k1).is_none());
        cache.insert(k1.clone(), 10);
        cache.insert(k2.clone(), 20);
        assert_eq!(cache.get(&k1), Some(10));
        cache.insert(k3.clone(), 30);
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.get(&k1).is_none(), "oldest entry evicted");
        assert_eq!(cache.get(&k2), Some(20));
        assert_eq!(cache.get(&k3), Some(30));
    }

    #[test]
    fn reinsert_refreshes_value_without_duplicating() {
        let p = program(&[Opcode::NOP, Opcode::RETURN]);
        let mut cache: MutantCache<u32> = MutantCache::new(2);
        let k = CacheKey::new(&p, &[]);
        cache.insert(k.clone(), 1);
        cache.insert(k.clone(), 2);
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.get(&k), Some(2));
    }
}

//! CRC hash primitives.
//!
//! The Tofino exposes CRC-based hash units; ActiveRMT's HASH instruction
//! feeds the PHV hash-data words through the stage's hash unit and stores
//! the result in MAR. Stages are given distinct seeds so that successive
//! HASH instructions in different stages yield (approximately)
//! independent functions — exactly what the count-min sketch of Listing 2
//! requires for its two rows.
//!
//! Section 7.2 notes these hashes are *not* cryptographically secure;
//! they are CRC-32 (reflected, polynomial 0xEDB88320) and CRC-16/CCITT,
//! implemented locally with table-driven updates.

/// A table-driven CRC-32 engine (IEEE 802.3 reflected polynomial).
#[derive(Debug, Clone)]
pub struct Crc32 {
    table: [u32; 256],
}

impl Crc32 {
    /// Build the lookup table for the standard reflected polynomial.
    pub fn new() -> Crc32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        Crc32 { table }
    }

    /// Fold `data` into the running (pre-final-XOR) register `c`.
    fn update(&self, mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = self.table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// CRC-32 of `data` with the conventional init/final XOR.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        self.update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Hash a sequence of 32-bit PHV words with a per-stage seed.
    ///
    /// The seed is mixed in as a 4-byte prefix, which is how the runtime
    /// derives per-stage-independent functions from one hash unit design.
    /// Equal to [`Crc32::checksum`] over the seed's then the words'
    /// big-endian bytes, computed without a buffer: HASH is on the
    /// per-frame path, which must not allocate.
    pub fn hash_words(&self, seed: u32, words: &[u32]) -> u32 {
        let mut c = self.update(0xFFFF_FFFF, &seed.to_be_bytes());
        for w in words {
            c = self.update(c, &w.to_be_bytes());
        }
        c ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// The seed for hash-function selector `sel`.
///
/// ActiveRMT's HASH instruction carries a 6-bit selector in its flag
/// byte choosing among pre-configured hash functions (the Tofino offers
/// multiple CRC units with configurable polynomials). Two HASH
/// instructions with the same selector compute the same function
/// wherever they execute — which the Cheetah load balancer depends on
/// (its SYN and non-SYN programs must agree) — while different
/// selectors give the independent functions a count-min sketch needs.
pub fn selector_seed(sel: u8) -> u32 {
    u32::from(sel).wrapping_mul(0x9E37_79B9) ^ 0xA5A5_5A5A
}

/// CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF), the Tofino's
/// 16-bit hash option. Used where a narrow index is sufficient.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        let c = Crc32::new();
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(c.checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(c.checksum(b""), 0);
        assert_eq!(c.checksum(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE check value.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn selector_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for sel in 0..64u8 {
            assert!(seen.insert(selector_seed(sel)));
        }
        assert_eq!(selector_seed(3), selector_seed(3));
    }

    #[test]
    fn seeds_give_distinct_functions() {
        let c = Crc32::new();
        let words = [0xDEAD_BEEF, 0x1234_5678];
        let h0 = c.hash_words(0, &words);
        let h1 = c.hash_words(1, &words);
        let h2 = c.hash_words(2, &words);
        assert_ne!(h0, h1);
        assert_ne!(h1, h2);
        assert_ne!(h0, h2);
    }

    #[test]
    fn hash_words_is_the_checksum_of_seed_then_words_big_endian() {
        let c = Crc32::new();
        let cases: [(u32, &[u32]); 5] = [
            (0, &[]),
            (0xA5A5_5A5A, &[0]),
            (1, &[0xDEAD_BEEF, 0x1234_5678]),
            (
                selector_seed(3),
                &[0x0A00_0001, 0x0A00_0002, 0x1F90_0050, 6, 0],
            ),
            (u32::MAX, &[u32::MAX; 10]),
        ];
        for (seed, words) in cases {
            let mut bytes = seed.to_be_bytes().to_vec();
            for w in words {
                bytes.extend_from_slice(&w.to_be_bytes());
            }
            assert_eq!(c.hash_words(seed, words), c.checksum(&bytes));
        }
        // One digest pinned outright, so a change to both sides shows.
        assert_eq!(c.hash_words(0x3132_3334, &[0x3536_3738]), 0x9AE0_DAAF);
    }

    #[test]
    fn hashing_is_deterministic() {
        let c = Crc32::new();
        let words = [42, 43, 44];
        assert_eq!(c.hash_words(9, &words), c.hash_words(9, &words));
    }

    #[test]
    fn distinct_keys_rarely_collide_in_small_range() {
        // Smoke-test distribution quality: hash 10k keys into 4k buckets
        // and verify the busiest bucket is not pathological.
        let c = Crc32::new();
        let buckets = 4096u32;
        let mut counts = vec![0u32; buckets as usize];
        for k in 0..10_000u32 {
            let h = c.hash_words(7, &[k, k.wrapping_mul(2_654_435_761)]);
            counts[(h % buckets) as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        // Expected load ~2.4; anything under 16 is a sane distribution.
        assert!(max < 16, "suspiciously clumped hash: max bucket {max}");
    }
}

//! The workspace's one copy of each hashing primitive. All three feed
//! replayable state (persisted checksums, CI chaos seeds, benchmark
//! request lists), so their outputs are pinned and must never change.

/// The 256-entry lookup table of the reflected IEEE polynomial.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), table-driven:
/// the `X-Body-Crc` of serve bodies and the `MemoStore` record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| (c >> 8) ^ CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize])
}

/// SplitMix64's increment (the golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step from state `x` (advance by the increment, then
/// finalize): a pure mixer for `(seed, site, sequence)` keys.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic SplitMix64 stream (<https://prng.di.unimi.it/splitmix64.c>):
/// same seed, same sequence, on every platform.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Draw in `[0, bound)` by reduction modulo `bound`; `bound` must be
    /// nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// 64-bit FNV-1a. Enough to decorrelate a handful of static labels
/// (fault sites, connection sides) under one seed; not for untrusted
/// input.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise CRC-32 loop the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Any single flipped bit must change the checksum.
        let body = b"ok: count\ncount: 17\n";
        let base = crc32(body);
        for i in 0..body.len() {
            let mut corrupt = body.to_vec();
            corrupt[i] ^= 0x20;
            assert_ne!(crc32(&corrupt), base, "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        let mut rng = SplitMix64::new(0xC3C3);
        for len in (0..=4096).step_by(61).chain([1, 2, 3, 4095, 4096]) {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
    }

    #[test]
    fn splitmix_stream_is_the_finalizer_of_successive_states() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for i in 0..100u64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_eq!(x, splitmix64(7u64.wrapping_add(i.wrapping_mul(GAMMA))));
        }
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

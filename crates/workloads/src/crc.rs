//! CRC32C (Castagnoli) — the integrity check framing every on-disk fleet
//! artifact.
//!
//! RHT4 trace chunks ([`crate::trace3`]) and `fleetckpt.v2` checkpoint
//! files carry CRC32C frames so that bit rot, torn writes, and truncation
//! are **detected at read time** instead of silently replaying wrong data
//! into a resumed run. CRC32C is chosen over CRC32 (IEEE) for its
//! error-detection profile on short records and because it is the checksum
//! hardware-accelerated everywhere (SSE4.2 `crc32`, ARMv8 CRC extensions) —
//! this software implementation is a table-driven stand-in with the same
//! polynomial (0x1EDC6F41, reflected 0x82F63B78), so artifacts stay
//! byte-compatible if an accelerated path is ever dropped in.
//!
//! The digest runs **slicing-by-8**: eight 256-entry tables, built at
//! compile time, fold eight input bytes per step, and the tail of fewer
//! than eight bytes goes through the classic byte-at-a-time table (the
//! first of the eight). The checksums are exactly those of the
//! byte-at-a-time loop, which the tests keep as a reference and check
//! against at every length and alignment. [`crc32c_combine`] joins the
//! CRCs of two adjacent buffers without rereading them, so a framed
//! document gets its whole-body CRC from its per-line CRCs in one pass.
//!
//! The CRC of a single-bit-flipped buffer always differs (CRCs detect all
//! single-bit errors by construction), which is exactly the fault class the
//! chaos layer's bit-rot injector exercises.

/// The reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0][b]` is the CRC register step for byte `b`; `TABLES[k][b]` is
/// that step followed by `k` zero bytes, so one lookup per table folds
/// eight bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// A streaming CRC32C digest.
///
/// # Example
///
/// ```
/// use workloads::crc::Crc32c;
///
/// let mut d = Crc32c::new();
/// d.update(b"hello ");
/// d.update(b"world");
/// assert_eq!(d.finish(), workloads::crc::crc32c(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][usize::from((crc as u8) ^ b)];
        }
        self.state = crc;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C of a buffer.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut d = Crc32c::new();
    d.update(bytes);
    d.finish()
}

/// `a · b` modulo the polynomial, in the reflected bit order (bit 31 is
/// `x^0`).
fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// The CRC32C of `a ++ b` from `crc32c(a)`, `crc32c(b)` and `b.len()`,
/// without the bytes (zlib's `crc32_combine`): appending `len_b` bytes
/// multiplies `a`'s register by `x^(8·len_b)`, raised here by squaring.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1u32 << 31;
    let mut square = 1u32 << 23;
    let mut n = len_b;
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_poly(square, shift);
        }
        square = mul_mod_poly(square, square);
        n >>= 1;
    }
    mul_mod_poly(shift, crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC loop: the reference slicing-by-8 must agree
    /// with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][usize::from((crc as u8) ^ b)];
        }
        !crc
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        let data = sample(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32c(bytes), bytewise(bytes), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn streaming_splits_across_word_boundaries_match_bytewise() {
        let data = sample(40);
        let want = bytewise(&data);
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut d = Crc32c::new();
                d.update(&data[..a]);
                d.update(&data[a..b]);
                d.update(&data[b..]);
                assert_eq!(d.finish(), want, "split at {a} and {b}");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 / kernel crc32c test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 255, 256, 4_096, 9_999, 10_000] {
            let mut d = Crc32c::new();
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finish(), crc32c(&data));
        }
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        let data = sample(300);
        for split in [0usize, 1, 7, 8, 9, 64, 255, 299, 300] {
            let (a, b) = data.split_at(split);
            let combined = crc32c_combine(crc32c(a), crc32c(b), b.len() as u64);
            assert_eq!(combined, crc32c(&data), "split at {split}");
        }
        let long = sample(1 << 20);
        let (a, b) = long.split_at(12_345);
        assert_eq!(crc32c_combine(crc32c(a), crc32c(b), b.len() as u64), crc32c(&long));
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let data = b"fleetckpt.v2 integrity framing probe".to_vec();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_the_crc() {
        let data: Vec<u8> = (0..100u8).collect();
        let clean = crc32c(&data);
        for cut in 0..data.len() {
            assert_ne!(crc32c(&data[..cut]), clean, "truncated to {cut}");
        }
    }
}

//! CRC-32C (Castagnoli polynomial, reflected).
//!
//! Every persistent record in the engine — WAL fragments, table blocks,
//! value records, manifest edits — carries a CRC-32C. We also apply
//! LevelDB's *masking* to checksums that are themselves stored inside
//! checksummed payloads, so a CRC of data containing an embedded CRC does
//! not degenerate.
//!
//! [`extend`] picks one kernel per call from what the CPU reports at run
//! time. Both compute the same function, so stored bytes do not depend on
//! the CPU that wrote them, and the tests check the hardware kernel against
//! the table loop as the reference.
//!
//! - On x86_64 with SSE4.2 it is the `crc32` instruction, eight bytes at a
//!   time (the instruction RocksDB uses). One instruction waits for the
//!   last, so a single chain runs at the instruction's latency, not its
//!   throughput. The kernel therefore cuts the input into rounds of three
//!   256-byte stripes and runs three independent chains side by side, the
//!   second and third from zero. It joins them with a shift table built at
//!   compile time (`shift_table`): a chain's register, moved over the
//!   stripe that follows it, is that register times `x^(8 · 256)` mod P,
//!   and since that product is linear, it costs four table lookups, one
//!   per byte of the register. No carry-less multiply is needed (RocksDB's
//!   `crc32c_3way`, after Intel's "Fast CRC Computation for iSCSI
//!   Polynomial Using CRC32 Instruction"). What is left after the last
//!   round, under 768 bytes, runs as one chain. One stripe size serves
//!   the inputs the engine checksums: table blocks and WAL fragments are
//!   under 32 KiB, and in the benchmark's `update_gc` no input reached
//!   24 KiB, so a second round of 3 × 8 KiB stripes, which only such
//!   inputs reach, measured no faster there.
//! - Everywhere else it is a portable slice-by-4 table loop, which is also
//!   the reference the tests hold the hardware kernel to.

const POLY: u32 = 0x82f6_3b78; // reflected 0x1EDC6F41

/// 4 tables of 256 entries for slice-by-4 processing.
static TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
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

/// Extend a running CRC with `data`. Start from `0` for a fresh checksum.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = sse42::extend(crc, data) {
        return crc;
    }
    extend_sw(crc, data)
}

/// The SSE4.2 kernel and the shift table that joins its three chains.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use super::POLY;

    /// Bytes per stripe of a three-way round (a multiple of 8).
    pub(super) const STRIPE: usize = 256;

    /// Moves a raw CRC register over a stripe of zeros, one table per byte
    /// of the register (see [`shift_table`]).
    type ShiftTable = [[u32; 256]; 4];

    static SHIFT: ShiftTable = shift_table(STRIPE);

    /// `a · b mod P` over GF(2), both in the reflected bit order (bit 31 holds
    /// the coefficient of `x^0`).
    const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut i = 0;
        while i < 32 {
            if a & (1 << (31 - i)) != 0 {
                product ^= b;
            }
            // b · x
            b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
            i += 1;
        }
        product
    }

    /// The table that moves a raw register over `len` zero bytes. Each zero
    /// byte multiplies the register by `x^8` mod P, so `len` of them multiply
    /// it by `x^(8 · len)`. That product is linear in the register: entry
    /// `[k][b]` holds it for the register `b << 8k`, and a register's shift is
    /// the XOR of the entries for its four bytes.
    const fn shift_table(len: usize) -> ShiftTable {
        // x^(8 · len) mod P by square-and-multiply.
        let mut power = 1u32 << 31; // x^0
        let mut square = 1u32 << 30; // x^1
        let mut e = 8 * len;
        while e > 0 {
            if e & 1 != 0 {
                power = mul_mod_p(power, square);
            }
            square = mul_mod_p(square, square);
            e >>= 1;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = mul_mod_p(power, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Move the raw register `crc` over one stripe of zeros.
    #[inline]
    pub(super) fn shift(crc: u32) -> u32 {
        SHIFT[0][(crc & 0xff) as usize]
            ^ SHIFT[1][((crc >> 8) & 0xff) as usize]
            ^ SHIFT[2][((crc >> 16) & 0xff) as usize]
            ^ SHIFT[3][(crc >> 24) as usize]
    }

    /// The SSE4.2 kernel, or `None` on a CPU without the `crc32` instruction.
    #[allow(unsafe_code)]
    pub(super) fn extend(crc: u32, data: &[u8]) -> Option<u32> {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        fn word(w: &[u8]) -> u64 {
            u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"))
        }

        /// The raw register after `round`, three stripes, from `crc`: one
        /// chain per stripe, joined.
        #[target_feature(enable = "sse4.2")]
        fn three_way(crc: u32, round: &[u8]) -> u32 {
            let (a, bc) = round.split_at(STRIPE);
            let (b, c) = bc.split_at(STRIPE);
            let (mut c0, mut c1, mut c2) = (u64::from(crc), 0u64, 0u64);
            for ((x, y), z) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                c0 = _mm_crc32_u64(c0, word(x));
                c1 = _mm_crc32_u64(c1, word(y));
                c2 = _mm_crc32_u64(c2, word(z));
            }
            // The instruction leaves the upper 32 bits zero.
            shift(shift(c0 as u32) ^ c1 as u32) ^ c2 as u32
        }

        #[target_feature(enable = "sse4.2")]
        fn kernel(crc: u32, data: &[u8]) -> u32 {
            let mut rounds = data.chunks_exact(3 * STRIPE);
            let mut crc = !crc;
            for round in &mut rounds {
                crc = three_way(crc, round);
            }
            let mut crc = u64::from(crc);
            let mut words = rounds.remainder().chunks_exact(8);
            for w in &mut words {
                crc = _mm_crc32_u64(crc, word(w));
            }
            let mut crc = crc as u32;
            for &b in words.remainder() {
                crc = _mm_crc32_u8(crc, b);
            }
            !crc
        }

        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return None;
        }
        // SAFETY: `kernel` is compiled for SSE4.2 and needs nothing else, and
        // `is_x86_feature_detected!("sse4.2")` just found it on this CPU.
        Some(unsafe { kernel(crc, data) })
    }
}

/// The portable slice-by-4 kernel: the path on CPUs without SSE4.2, and the
/// reference the hardware kernel is tested against.
fn extend_sw(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let word = u32::from_le_bytes(c.try_into().unwrap()) ^ crc;
        crc = TABLES[3][(word & 0xff) as usize]
            ^ TABLES[2][((word >> 8) & 0xff) as usize]
            ^ TABLES[1][((word >> 16) & 0xff) as usize]
            ^ TABLES[0][(word >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// CRC-32C of `data`.
pub fn value(data: &[u8]) -> u32 {
    extend(0, data)
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Mask a CRC so it is safe to store inside data that is itself
/// CRC-protected (LevelDB's trick: rotate and add a constant).
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Invert [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Both kernels: the one [`extend`] picks on this CPU, and the reference.
    const KERNELS: [(&str, Kernel); 2] = [("extend", extend), ("sw", extend_sw)];

    #[test]
    fn known_vectors() {
        // RFC 3720 / LevelDB test vectors.
        let inc: Vec<u8> = (0u8..32).collect();
        let dec: Vec<u8> = (0u8..32).rev().collect();
        for (name, f) in KERNELS {
            assert_eq!(f(0, &[0u8; 32]), 0x8a91_36aa, "{name}");
            assert_eq!(f(0, &[0xffu8; 32]), 0x62a8_ab43, "{name}");
            assert_eq!(f(0, &inc), 0x46dd_794e, "{name}");
            assert_eq!(f(0, &dec), 0x113f_db5c, "{name}");
        }
    }

    #[test]
    fn crc_of_abc() {
        for (name, f) in KERNELS {
            assert_eq!(f(0, b"123456789"), 0xe306_9283, "{name}");
        }
    }

    /// `len` pseudo-random bytes from a fixed xorshift, so every length
    /// sees varied bytes and every run the same ones.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    const SEEDS: [u32; 3] = [0, 1, 0xdead_beef];

    #[test]
    fn run_time_kernel_matches_reference() {
        let buf = noise(65_539 + 8);
        // Short inputs; one three-way round and its edges; many rounds and
        // a tail.
        let edges = [3 * 256 - 1, 3 * 256, 3 * 256 + 1];
        let sizes = (0..=64).chain(edges);
        for len in sizes.chain([4_096, 16_387, 65_539]) {
            // Every start offset into one buffer, so unaligned words are covered.
            for start in 0..8 {
                let data = &buf[start..start + len];
                for seed in SEEDS {
                    assert_eq!(
                        extend(seed, data),
                        extend_sw(seed, data),
                        "len {len} start {start} seed {seed:#x}"
                    );
                }
            }
        }
    }

    /// The shift table moves a raw register exactly as feeding a stripe of
    /// zeros through the reference does (the reference inverts the
    /// register on the way in and out).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shift_table_equals_feeding_zeros() {
        use super::sse42::{shift, STRIPE};
        let zeros = [0u8; STRIPE];
        let regs = noise(64)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect::<Vec<u32>>();
        for reg in regs.into_iter().chain([0, 1, 1 << 31, u32::MAX]) {
            assert_eq!(shift(reg), !extend_sw(!reg, &zeros), "register {reg:#x}");
        }
    }

    #[test]
    fn extend_matches_whole() {
        let data = noise(100);
        for seed in SEEDS {
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                assert_eq!(
                    extend(extend(seed, a), b),
                    extend_sw(seed, &data),
                    "split {split} seed {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn values_differ_by_content() {
        assert_ne!(value(b"a"), value(b"foo"));
        assert_ne!(value(b"foo"), value(b"bar"));
    }

    #[test]
    fn mask_roundtrip_and_differs() {
        let crc = value(b"foo");
        assert_ne!(mask(crc), crc);
        assert_ne!(mask(mask(crc)), crc);
        assert_eq!(unmask(mask(crc)), crc);
        assert_eq!(unmask(unmask(mask(mask(crc)))), crc);
    }
}

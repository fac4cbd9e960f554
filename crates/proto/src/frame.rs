//! Checksummed framing for wire transfers and checkpoint files.
//!
//! A frame wraps an opaque payload with a magic marker, a length and a
//! CRC32C (Castagnoli) trailer computed over header *and* payload, so a
//! receiver can tell a pristine message from one that was bit-flipped
//! or truncated in flight (the silent-corruption failure mode of RDMA
//! verbs and torn PFS writes). The checksum is implemented in-tree
//! because the build environment is offline: the SSE4.2 `crc32`
//! instruction when the CPU has it (detected at runtime), falling back
//! to slicing-by-8 over compile-time tables. The hardware path runs
//! three interleaved `crc32` chains over 4 KiB lanes while at least
//! 12 KiB remain, then over 80-byte lanes, then word by word; the long
//! lanes hash 1 MiB at the instruction's one-per-cycle limit (~32 µs,
//! ~33 GB/s on the benchmark's reference host; 80-byte lanes alone
//! managed ~54 µs), and a buffer under 12 KiB never sees them.
//!
//! Layout: `magic (4) | uvarint payload_len | payload | crc32c (4, LE)`
//! with the CRC covering everything before it.

use crate::{wire, ProtoError};
use bytes::{BufMut, BytesMut};

/// Frame marker: any payload not starting with it is rejected outright.
pub const FRAME_MAGIC: [u8; 4] = *b"TFHF";

/// CRC32C (Castagnoli) polynomial, reflected form.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, generated at compile time.
static CRC_TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32C of `data` (full init/finalize; standard Castagnoli check
/// value: `crc32c(b"123456789") == 0xE306_9283`).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC32C over `data`, starting from a previous result.
#[inline]
pub fn crc32c_append(seed: u32, data: &[u8]) -> u32 {
    !crc_update(!seed, data)
}

/// Advance the raw (pre-finalize) CRC state over `data`, using the
/// SSE4.2 `crc32` instruction when the CPU has it and the slicing-by-8
/// tables otherwise. Both paths compute the identical function (the
/// instruction implements the same Castagnoli polynomial), which the
/// agreement test pins.
#[inline]
fn crc_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw_crc_available() {
        // SAFETY: gated on runtime SSE4.2 detection.
        return unsafe { crc_update_hw(crc, data) };
    }
    crc_update_sw(crc, data)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn hw_crc_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("sse4.2"))
}

/// Bytes per lane of the 3-way interleaved hardware path. The `crc32`
/// instruction has a 3-cycle latency but 1-cycle throughput, so three
/// independent chains run ~3x faster than one; lane results are merged
/// with a precomputed shift-by-lane-zero-bytes table. The merge costs
/// eight dependent table look-ups per block, which at `LANE` bytes is
/// a third of the time: buffers of `3 * LONG_LANE` bytes or more run
/// long lanes first, where the merge vanishes and the instruction's
/// one-per-cycle issue rate is the limit. Everything shorter (and the
/// tail of everything longer) runs the short lanes.
#[cfg(target_arch = "x86_64")]
const LANE: usize = 80;
#[cfg(target_arch = "x86_64")]
const LONG_LANE: usize = 4096;

#[cfg(target_arch = "x86_64")]
type ShiftTables = [[u32; 256]; 4];

#[cfg(target_arch = "x86_64")]
static SHIFT_LANE: ShiftTables = build_shift_tables(LANE);
#[cfg(target_arch = "x86_64")]
static SHIFT_LONG_LANE: ShiftTables = build_shift_tables(LONG_LANE);

/// Tables applying the linear operator "advance the CRC state over
/// `len` zero bytes", one per state byte, built at compile time. CRC
/// updates are linear over GF(2), so
/// `update(s, A || B) = shift(update(s, A)) ^ update(0, B)`.
///
/// The operators for different lengths are powers of the one-byte
/// operator, so the table is built by square-and-multiply over the
/// bits of `len` (a dozen table compositions) rather than by stepping
/// every entry through `len` bytes.
#[cfg(target_arch = "x86_64")]
const fn build_shift_tables(len: usize) -> ShiftTables {
    // Zero bytes: the identity. One byte: one step of the byte-wise
    // update with no data XORed in.
    let mut result = [[0u32; 256]; 4];
    let mut power = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            let state = (v as u32) << (8 * byte);
            result[byte][v] = state;
            power[byte][v] = (state >> 8) ^ CRC_TABLES[0][(state & 0xFF) as usize];
            v += 1;
        }
        byte += 1;
    }
    let mut n = len;
    while n > 0 {
        if n & 1 != 0 {
            result = compose_shift(&result, &power);
        }
        power = compose_shift(&power, &power);
        n >>= 1;
    }
    result
}

/// The operator "`first`, then `then`" as tables.
#[cfg(target_arch = "x86_64")]
const fn compose_shift(first: &ShiftTables, then: &ShiftTables) -> ShiftTables {
    let mut tables = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            tables[byte][v] = apply_shift(then, first[byte][v]);
            v += 1;
        }
        byte += 1;
    }
    tables
}

#[cfg(target_arch = "x86_64")]
#[inline]
const fn apply_shift(t: &ShiftTables, s: u32) -> u32 {
    t[0][(s & 0xFF) as usize]
        ^ t[1][((s >> 8) & 0xFF) as usize]
        ^ t[2][((s >> 16) & 0xFF) as usize]
        ^ t[3][(s >> 24) as usize]
}

/// Advance `state` over as many whole `3 * L`-byte blocks of `data` as
/// there are, three `L`-byte lanes at a time (`shift` is the table for
/// `L` zero bytes), and return the bytes left over.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
#[inline]
unsafe fn crc_lanes_hw<'a, const L: usize>(
    state: &mut u64,
    data: &'a [u8],
    shift: &ShiftTables,
) -> &'a [u8] {
    use std::arch::x86_64::_mm_crc32_u64;
    const { assert!(L.is_multiple_of(8)) };
    let mut rest = data;
    while rest.len() >= 3 * L {
        let (head, tail) = rest.split_at(3 * L);
        let (mut sa, mut sb, mut sc) = (*state, 0u64, 0u64);
        // SAFETY: `head` is exactly 3*L bytes and L is a multiple of
        // 8, so lane `i` reads stay within `[i*L, (i+1)*L)`; unaligned
        // reads are fine on x86_64 and skip the per-word bounds checks
        // the slice indexing forms would carry into this hot loop.
        let p = head.as_ptr();
        let mut k = 0;
        while k < L {
            let a = (p.add(k) as *const u64).read_unaligned();
            let b = (p.add(L + k) as *const u64).read_unaligned();
            let c = (p.add(2 * L + k) as *const u64).read_unaligned();
            sa = _mm_crc32_u64(sa, u64::from_le(a));
            sb = _mm_crc32_u64(sb, u64::from_le(b));
            sc = _mm_crc32_u64(sc, u64::from_le(c));
            k += 8;
        }
        let merged = apply_shift(shift, sa as u32) ^ sb as u32;
        *state = (apply_shift(shift, merged) ^ sc as u32) as u64;
        rest = tail;
    }
    rest
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc_update_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut state = crc as u64;
    let rest = crc_lanes_hw::<LONG_LANE>(&mut state, data, &SHIFT_LONG_LANE);
    let rest = crc_lanes_hw::<LANE>(&mut state, rest, &SHIFT_LANE);
    let mut chunks = rest.chunks_exact(8);
    for c in chunks.by_ref() {
        state = _mm_crc32_u64(state, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut crc = state as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

fn crc_update_sw(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Wrap `payload` in a checksummed frame.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(payload.len() + 16);
    buf.put_slice(&FRAME_MAGIC);
    wire::put_uvarint(&mut buf, payload.len() as u64);
    buf.put_slice(payload);
    let crc = crc32c(&buf);
    buf.put_u32_le(crc);
    buf.to_vec()
}

/// Verify a frame and return a view of its payload.
///
/// Any deviation — missing/wrong magic, bad length, trailing garbage,
/// or a checksum mismatch — returns [`ProtoError::ChecksumMismatch`]
/// (truncation that cuts into the header returns
/// [`ProtoError::Truncated`]). Never panics, whatever the input.
pub fn open(frame: &[u8]) -> Result<&[u8], ProtoError> {
    if frame.len() < FRAME_MAGIC.len() + 1 + 4 {
        return Err(ProtoError::Truncated);
    }
    if frame[..FRAME_MAGIC.len()] != FRAME_MAGIC {
        return Err(ProtoError::ChecksumMismatch);
    }
    let (len, rest) = wire::get_uvarint(&frame[FRAME_MAGIC.len()..])?;
    let len = len as usize;
    if rest.len() != len + 4 {
        return Err(ProtoError::ChecksumMismatch);
    }
    let (payload, trailer) = rest.split_at(len);
    let want = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let got = crc32c(&frame[..frame.len() - 4]);
    if got != want {
        return Err(ProtoError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Deterministically corrupt a frame copy: flip one bit chosen by
/// `entropy`, somewhere past the magic (so [`open`] reports a checksum
/// mismatch rather than a missing frame). Used by the fault-injection
/// plane to model link bit-flips reproducibly.
pub fn flip_bit(frame: &mut [u8], entropy: u64) {
    if frame.len() <= FRAME_MAGIC.len() {
        return;
    }
    let span = frame.len() - FRAME_MAGIC.len();
    let byte = FRAME_MAGIC.len() + (entropy as usize % span);
    let bit = (entropy >> 32) % 8;
    frame[byte] ^= 1 << bit;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` bytes with no period a lane length could line up with.
    fn test_bytes(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn crc32c_check_value() {
        // The standard Castagnoli test vector.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_empty_and_incremental() {
        assert_eq!(crc32c(b""), 0);
        // Byte-at-a-time must agree with the sliced bulk path.
        let data: Vec<u8> = (0..=255u8).cycle().take(1027).collect();
        let bulk = crc32c(&data);
        let mut slow = 0xFFFF_FFFFu32;
        for &b in &data {
            slow = (slow >> 8) ^ CRC_TABLES[0][((slow ^ b as u32) & 0xFF) as usize];
        }
        assert_eq!(bulk, !slow);
    }

    #[test]
    fn hw_and_sw_paths_agree() {
        // Both CRC implementations must compute the identical function
        // across every chunk-boundary alignment, so a frame sealed on a
        // CPU with SSE4.2 opens on one without it (and vice versa).
        let data: Vec<u8> = test_bytes((1 << 20) + 16);
        // Either side of one long-lane block, a second block with a
        // short-lane block and a byte behind it, and the benchmark's
        // 1 MiB with an odd tail.
        const L: usize = 4096;
        #[cfg(target_arch = "x86_64")]
        assert_eq!(L, LONG_LANE);
        let long = [3 * L - 1, 3 * L, 3 * L + 1, 6 * L + 241, (1 << 20) + 5];
        for start in [0usize, 1, 3, 7, 8] {
            for len in [
                0usize, 1, 7, 8, 9, 63, 64, 65, 239, 240, 241, 480, 512, 1024,
            ]
            .into_iter()
            .chain(long)
            {
                let slice = &data[start..start + len];
                let sw = !crc_update_sw(!0, slice);
                assert_eq!(crc32c(slice), sw, "start {start} len {len}");
                #[cfg(target_arch = "x86_64")]
                if hw_crc_available() {
                    // SAFETY: gated on runtime SSE4.2 detection.
                    let hw = !unsafe { crc_update_hw(!0, slice) };
                    assert_eq!(hw, sw, "hw/sw divergence at start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn append_across_any_split_equals_one_shot() {
        // The state carried between `crc32c_append` calls must not
        // depend on which lane scheme either half ran: every split
        // below puts a different mix of long lanes, short lanes and
        // tail words on each side.
        let data = test_bytes(1 << 20);
        let whole = crc32c(&data);
        assert_eq!(whole, !crc_update_sw(!0, &data));
        for split in [
            1usize, 7, 239, 241, 4_095, 12_287, 12_289, 24_577, 65_537, 524_289, 1_036_289,
            1_048_575,
        ] {
            let (head, tail) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(head), tail), whole, "split at {split}");
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 255, 4096] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 31) as u8).collect();
            let frame = seal(&payload);
            assert_eq!(open(&frame).unwrap(), payload.as_slice());
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let frame = seal(b"the quick brown fox");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(open(&bad).is_err(), "flip at {byte}:{bit} went undetected");
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let frame = seal(b"payload under test");
        for cut in 0..frame.len() {
            assert!(open(&frame[..cut]).is_err(), "truncation at {cut}");
        }
        // Trailing garbage too.
        let mut long = frame.clone();
        long.push(0);
        assert!(open(&long).is_err());
    }

    #[test]
    fn flip_bit_always_invalidates() {
        let frame = seal(b"abcdef");
        for entropy in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let mut bad = frame.clone();
            flip_bit(&mut bad, entropy);
            assert_ne!(bad, frame);
            assert_eq!(open(&bad), Err(ProtoError::ChecksumMismatch));
        }
    }
}

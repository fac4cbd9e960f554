//! Checksummed framing for wire transfers and checkpoint files.
//!
//! A frame wraps an opaque payload with a magic marker, a length and a
//! CRC32C (Castagnoli) trailer computed over header *and* payload, so a
//! receiver can tell a pristine message from one that was bit-flipped
//! or truncated in flight (the silent-corruption failure mode of RDMA
//! verbs and torn PFS writes). The checksum is implemented in-tree
//! because the build environment is offline. Three kernels compute
//! it, and the CPU's features pick one, once:
//!
//! * **Fold** (AVX-512F, VPCLMULQDQ and SSE4.2), for buffers of
//!   `FOLD_MIN` = 512 bytes or more. Four 64-byte accumulators fold
//!   256 bytes ahead per step with 512-bit carry-less multiplies, then
//!   fold onto each other and over the remaining 64-byte blocks into
//!   one block, which the `crc32` instruction hashes with the tail;
//!   buffers of 16 KiB or more first step to a 64-byte boundary so no
//!   load splits a cache line. The constants are
//!   `reflect(x^(D±32) mod P) << 1`, computed at compile time from the
//!   polynomial. 1 MiB takes ~10 µs against the lanes' ~32 µs on the
//!   benchmark's reference host; below 512 bytes the lanes are not
//!   slower, so shorter buffers (every scalar) run them.
//! * **Lanes** (SSE4.2): three interleaved `crc32` chains over 4 KiB
//!   lanes while at least 12 KiB remain, then over 80-byte lanes, then
//!   word by word. The long lanes run at the instruction's
//!   one-per-cycle limit; a buffer under 12 KiB never sees them.
//! * **Sliced** (any other CPU): slicing-by-8 over compile-time tables.
//!
//! All three compute the same function, which the agreement tests pin;
//! a portable bitwise model of the fold checks its constants and
//! algebra on hosts without AVX-512 too.
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

/// Advance the raw (pre-finalize) CRC state over `data` with the
/// host's kernel. Every kernel computes the identical function, which
/// the agreement tests pin.
#[inline]
fn crc_update(crc: u32, data: &[u8]) -> u32 {
    // SAFETY: `Kernel::host` picks only a kernel the CPU supports.
    unsafe { Kernel::host().update(crc, data) }
}

/// The CRC32C implementations, fastest first. The host's CPU features
/// pick one, once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kernel {
    /// AVX-512 carry-less folding for buffers of [`FOLD_MIN`] bytes or
    /// more, `Lanes` below that.
    #[cfg(target_arch = "x86_64")]
    Fold,
    /// SSE4.2 `crc32` in three interleaved lanes.
    #[cfg(target_arch = "x86_64")]
    Lanes,
    /// Slicing-by-8 tables.
    Sliced,
}

impl Kernel {
    fn host() -> Kernel {
        use std::sync::OnceLock;
        static HOST: OnceLock<Kernel> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("sse4.2") {
                    return if has!("avx512f") && has!("vpclmulqdq") {
                        Kernel::Fold
                    } else {
                        Kernel::Lanes
                    };
                }
            }
            Kernel::Sliced
        })
    }

    /// Advance the raw CRC state over `data`.
    ///
    /// # Safety
    /// The CPU must support `self`: it is [`Kernel::host`] or a kernel
    /// after it.
    #[inline]
    unsafe fn update(self, crc: u32, data: &[u8]) -> u32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Fold if data.len() >= FOLD_MIN => crc_update_fold(crc, data),
            #[cfg(target_arch = "x86_64")]
            Kernel::Fold | Kernel::Lanes => crc_update_hw(crc, data),
            Kernel::Sliced => crc_update_sw(crc, data),
        }
    }
}

/// The shortest buffer the fold kernel takes; shorter ones run the
/// `crc32` lanes. Measured: at 512 B the fold takes ~17–22 ns against
/// the lanes' ~29–33 ns, at 256 B it loses (~17–20 against ~15–17 ns),
/// and in between the two trade places from run to run.
#[cfg(any(target_arch = "x86_64", test))]
const FOLD_MIN: usize = 512;

/// `x^e mod P` as a CRC register holds it: reflected, so bit 31 is the
/// coefficient of `x^0`. Multiplying by `x` is one CRC step on a zero
/// bit.
#[cfg(any(target_arch = "x86_64", test))]
const fn xpow_mod(e: usize) -> u32 {
    let mut r = 1 << 31;
    let mut i = 0;
    while i < e {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// The multipliers that carry a 16-byte block `bytes` bytes further
/// along the message, `D = 8 * bytes` bits: its first 8 bytes times
/// `x^(D+32)`, its last 8 times `x^(D-32)`, each as
/// `reflect(x^e mod P) << 1`. A reflected 32-bit constant shifted left
/// once in a 64-bit lane multiplies by a further `x^32` in the
/// carry-less product (`x^31` from where it sits, `x` from the
/// product's one-bit offset), and the first half sits `x^64` above the
/// second, so both halves move by exactly `x^D`. The folded block is
/// congruent to the original modulo `P`, so XORing it into the block
/// `bytes` further on leaves the CRC unchanged.
#[cfg(any(target_arch = "x86_64", test))]
const fn fold_pair(bytes: usize) -> [u64; 2] {
    let d = 8 * bytes;
    [
        (xpow_mod(d + 32) as u64) << 1,
        (xpow_mod(d - 32) as u64) << 1,
    ]
}

/// The main loop's distance: four 64-byte accumulators in flight.
#[cfg(any(target_arch = "x86_64", test))]
const FOLD_256: [u64; 2] = fold_pair(256);
/// One accumulator onto the next, and the 64-byte blocks after the loop.
#[cfg(any(target_arch = "x86_64", test))]
const FOLD_64: [u64; 2] = fold_pair(64);

/// Buffers this long first hash the bytes before a 64-byte boundary
/// with `crc32`, so that no zmm load splits a cache line: that costs
/// ~10 ns, which pays for itself from ~16 KiB on (1 MiB: ~18 → ~14 µs
/// from a 16-byte-aligned start, as a large allocation has).
#[cfg(target_arch = "x86_64")]
const ALIGN_MIN: usize = 16 << 10;

/// CRC32C by carry-less folding: four 64-byte accumulators fold 256
/// bytes ahead per step (`vpclmulqdq` on each 128-bit lane, the three-
/// way XOR in one `vpternlogq`), then onto each other and over the
/// remaining whole 64-byte blocks into one block, which the `crc32`
/// path hashes together with the tail. Buffers of `ALIGN_MIN` bytes or
/// more first step to a 64-byte boundary; below 256 bytes it falls back
/// to the `crc32` path.
///
/// # Safety
/// The CPU must support AVX-512F, VPCLMULQDQ and SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,sse4.2")]
unsafe fn crc_update_fold(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold(acc: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, k);
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn pair(k: [u64; 2]) -> __m512i {
        _mm512_broadcast_i32x4(_mm_set_epi64x(k[1] as i64, k[0] as i64))
    }

    if data.len() < 256 {
        return crc_update_hw(crc, data);
    }
    let head = data.as_ptr().align_offset(64);
    if head != 0 && data.len() >= ALIGN_MIN {
        let (head, rest) = data.split_at(head);
        return crc_update_fold(crc_update_hw(crc, head), rest);
    }
    let p = data.as_ptr();
    // SAFETY: every call below reads 64 bytes at an offset `off` with
    // `off + 64 <= data.len()`, checked by the loop conditions.
    let load = |off: usize| unsafe { _mm512_loadu_si512(p.add(off).cast()) };
    let (k256, k64) = (pair(FOLD_256), pair(FOLD_64));
    let mut acc = [load(0), load(64), load(128), load(192)];
    // The state enters as the first four message bytes XORed with it.
    acc[0] = _mm512_xor_si512(
        acc[0],
        _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32)),
    );
    let mut off = 256;
    while data.len() - off >= 256 {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = fold(*a, k256, load(off + 64 * i));
        }
        off += 256;
    }
    let mut block = fold(fold(fold(acc[0], k64, acc[1]), k64, acc[2]), k64, acc[3]);
    while data.len() - off >= 64 {
        block = fold(block, k64, load(off));
        off += 64;
    }
    let mut bytes = [0u8; 64];
    // SAFETY: `bytes` is 64 writable bytes.
    unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), block) };
    crc_update_hw(crc_update_hw(0, &bytes), &data[off..])
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
    buf.into()
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

    /// Every kernel this CPU can run, the slicing-by-8 tables last.
    fn host_kernels() -> Vec<Kernel> {
        let all = [
            #[cfg(target_arch = "x86_64")]
            Kernel::Fold,
            #[cfg(target_arch = "x86_64")]
            Kernel::Lanes,
            Kernel::Sliced,
        ];
        all.into_iter().filter(|&k| k >= Kernel::host()).collect()
    }

    #[test]
    fn hw_and_sw_paths_agree() {
        // Every kernel must compute the identical function across every
        // chunk-boundary alignment, so a frame sealed on one CPU opens
        // on any other.
        let data: Vec<u8> = test_bytes((1 << 20) + 128);
        // Either side of one long-lane block, a second block with a
        // short-lane block and a byte behind it, the fold's edges (its
        // shortest buffer, three 256-byte steps, a 64-byte block and a
        // tail each way, either side of its alignment step) and the
        // benchmark's 1 MiB with an odd tail.
        const L: usize = 4096;
        const A: usize = 16 << 10;
        #[cfg(target_arch = "x86_64")]
        assert_eq!((L, A), (LONG_LANE, ALIGN_MIN));
        let long = [3 * L - 1, 3 * L, 3 * L + 1, 6 * L + 241, (1 << 20) + 5];
        let fold = [
            FOLD_MIN - 1,
            FOLD_MIN,
            FOLD_MIN + 1,
            767,
            768,
            1023,
            A - 1,
            A,
        ];
        for start in [0usize, 1, 7, 8, 63] {
            for len in [
                0usize, 1, 7, 8, 9, 63, 64, 65, 239, 240, 241, 255, 256, 257, 480, 1024,
            ]
            .into_iter()
            .chain(fold)
            .chain(long)
            {
                let slice = &data[start..start + len];
                let sw = !crc_update_sw(!0, slice);
                assert_eq!(crc32c(slice), sw, "start {start} len {len}");
                for k in host_kernels() {
                    // SAFETY: `host_kernels` lists only what the CPU runs.
                    let got = !unsafe { k.update(!0, slice) };
                    assert_eq!(got, sw, "{k:?} diverges at start {start} len {len}");
                }
                #[cfg(target_arch = "x86_64")]
                if Kernel::host() == Kernel::Fold {
                    // Below `FOLD_MIN` too, where `update` never calls it.
                    // SAFETY: the host runs the fold kernel.
                    let got = !unsafe { crc_update_fold(!0, slice) };
                    assert_eq!(got, sw, "fold diverges at start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn append_across_any_split_equals_one_shot() {
        // The state carried between `crc32c_append` calls must not
        // depend on which kernel or lane scheme either half ran: every
        // split below puts a different mix of folded blocks, long
        // lanes, short lanes and tail words on each side.
        let data = test_bytes(1 << 20);
        let whole = crc32c(&data);
        assert_eq!(whole, !crc_update_sw(!0, &data));
        let n = data.len();
        for split in [
            1usize,
            7,
            239,
            241,
            FOLD_MIN - 1,
            FOLD_MIN,
            FOLD_MIN + 1,
            4_095,
            12_287,
            12_289,
            24_577,
            65_537,
            524_289,
            1_036_289,
            n - FOLD_MIN - 1,
            n - FOLD_MIN,
            n - FOLD_MIN + 1,
            1_048_575,
        ] {
            let (head, tail) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(head), tail), whole, "split at {split}");
        }
    }

    /// Carry-less product of two 64-bit polynomials, bit by bit.
    fn clmul(a: u64, b: u64) -> u128 {
        (0..64)
            .filter(|i| b >> i & 1 != 0)
            .fold(0, |acc, i| acc ^ ((a as u128) << i))
    }

    /// 64 bytes as the fold kernel's four 128-bit lanes.
    fn load_model(bytes: &[u8]) -> [u128; 4] {
        std::array::from_fn(|i| u128::from_le_bytes(bytes[16 * i..16 * i + 16].try_into().unwrap()))
    }

    /// One `fold` of the kernel: per lane, the low half times `k[0]`
    /// XOR the high half times `k[1]` XOR the block it lands on.
    fn fold_model(acc: [u128; 4], k: [u64; 2], next: [u128; 4]) -> [u128; 4] {
        std::array::from_fn(|i| {
            clmul(acc[i] as u64, k[0]) ^ clmul((acc[i] >> 64) as u64, k[1]) ^ next[i]
        })
    }

    /// `crc_update_fold` with portable arithmetic: the same accumulators,
    /// lane order, constants and final step, so the algebra is checked
    /// on a host without AVX-512 too.
    fn crc_update_fold_model(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 256);
        let mut acc: [[u128; 4]; 4] = std::array::from_fn(|j| load_model(&data[64 * j..]));
        acc[0][0] ^= crc as u128;
        let mut off = 256;
        while data.len() - off >= 256 {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = fold_model(*a, FOLD_256, load_model(&data[off + 64 * i..]));
            }
            off += 256;
        }
        let mut block = fold_model(
            fold_model(fold_model(acc[0], FOLD_64, acc[1]), FOLD_64, acc[2]),
            FOLD_64,
            acc[3],
        );
        while data.len() - off >= 64 {
            block = fold_model(block, FOLD_64, load_model(&data[off..]));
            off += 64;
        }
        let bytes: Vec<u8> = block.iter().flat_map(|l| l.to_le_bytes()).collect();
        crc_update_sw(crc_update_sw(0, &bytes), &data[off..])
    }

    #[test]
    fn portable_fold_model_matches_the_tables() {
        // The published CRC32C fold-by-64-bytes pair, so a wrong
        // exponent or a swapped lane shows here before any checksum.
        assert_eq!(FOLD_64, [0x740e_ef02, 0x9e4a_ddf8]);
        assert_eq!(xpow_mod(32), POLY);
        let data = test_bytes(70_000);
        for len in [
            256usize,
            257,
            319,
            320,
            511,
            512,
            513,
            767,
            768,
            1023,
            4096 + 37,
            65_541,
        ] {
            for (start, seed) in [(0usize, 0u32), (1, !0), (63, 0x1234_5678)] {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc_update_fold_model(seed, slice),
                    crc_update_sw(seed, slice),
                    "start {start} len {len} seed {seed:#x}"
                );
            }
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

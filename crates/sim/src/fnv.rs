//! FNV-1a (64-bit), the one seedless hash behind every deterministic
//! identity in the workspace: plan fingerprints, trace flow ids, wire
//! message ids, serve result digests, and the jitter of retry backoffs
//! and breaker probes. A DES run replays byte-for-byte because none of
//! these ever reads the wall clock or a random seed. Serve result
//! digests fold a word per step ([`Fnv::eat_word`]); every other value
//! eats bytes and keeps the value it always had.
//!
//! Two multipliers are in use, and each value must keep the one it has
//! always been computed with: [`Fnv1a`] is the standard prime
//! (2^40 + 0x1b3); [`Fnv1a44`] multiplies by 2^44 + 0x1b3 and keys
//! wire message ids, trace flow ids and retry/probe jitter.

/// FNV-1a as a running state over the multiplier `P`. Bytes go in
/// through [`Fnv::eat`]; a `Display` value goes in through `write!`,
/// with no `String` in between.
pub struct Fnv<const P: u64>(pub u64);

/// Standard 64-bit FNV-1a: plan fingerprints and serve digests.
pub type Fnv1a = Fnv<0x0000_0100_0000_01b3>;

/// FNV-1a over 2^44 + 0x1b3: wire message ids, flow ids and jitter.
pub type Fnv1a44 = Fnv<0x0000_1000_0000_01b3>;

impl<const P: u64> Default for Fnv<P> {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl<const P: u64> Fnv<P> {
    /// The hash of `bytes` alone.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.eat(bytes);
        h.0
    }

    /// Mix `bytes` in, in order.
    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(P);
        }
    }

    /// Mix a word in as its eight little-endian bytes.
    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// Mix a word in as one step, `h = (h ^ w) · P; h ^= h >> 32`. The
    /// shift brings bit 63 (an f64 sign), which `· P` never carries
    /// lower, back down, so two sign flips cannot cancel.
    pub fn eat_word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(P);
        self.0 ^= self.0 >> 32;
    }
}

impl<const P: u64> std::fmt::Write for Fnv<P> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv1a44::hash(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(Fnv1a44::hash(b"foobar"), 0xf8ac_2471_f739_67e8);
        let mut h = Fnv1a44::default();
        std::fmt::Write::write_fmt(&mut h, format_args!("foo{}", "bar")).unwrap();
        assert_eq!(h.0, Fnv1a44::hash(b"foobar"));
        let mut w = Fnv1a::default();
        w.eat_u64(0x0102);
        assert_eq!(w.0, Fnv1a::hash(&[2, 1, 0, 0, 0, 0, 0, 0]));
        let mut w = Fnv1a::default();
        w.eat_word(0x61);
        let a = Fnv1a::hash(b"a");
        assert_eq!(w.0, a ^ a >> 32);
    }
}

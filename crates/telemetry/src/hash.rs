//! Word-at-a-time 64-bit hashing, the workspace's one hash primitive.
//!
//! Every layer that fingerprints or checksums anything agrees on this
//! hash: `ds-core` fingerprints cache layouts with it, `ds-interp` seals
//! `CacheBuf` contents, and the runtime keys its polyvariant store on
//! request fingerprints and checksums write-ahead-log records and
//! checkpoints. Fingerprints and checksums are persisted, so the
//! hash is fully specified here and never comes from `std::hash`, whose
//! hashers may differ across platforms, releases and processes.
//!
//! The hash consumes one 64-bit word per step. Three properties are
//! required, and the tests pin each one:
//!
//! 1. **Each step is a bijection of the word, given the state** (and of
//!    the state, given the word), and the finalizer is a bijection. A
//!    change confined to one word of a fixed-length input therefore
//!    always changes the hash: a seal catches every corrupted slot value
//!    and every flipped type tag, with certainty, not probability.
//! 2. **Each step spreads high bits downward.** A plain word-at-a-time
//!    FNV, `(h ^ w) * P`, never moves a bit down, so flipping bit 63 of
//!    any two words cancels out; the xor-shift right by 32 in every step
//!    rules that out.
//! 3. **It is stable across platforms and processes**: a fixed start
//!    state, fixed constants and little-endian byte order.
//!
//! A step is "xor the word, multiply by an odd constant, xor-shift right
//! by 32"; [`Hash64::finish`] applies murmur3's `fmix64`. Byte strings
//! are fed as their length followed by 8-byte little-endian chunks (the
//! last one zero-padded), so adjacent strings cannot alias. The threat
//! model is corruption and drift, not adversaries: this is not a
//! cryptographic hash.

/// The state a hash starts from (the first 64 fraction bits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The odd multiplier of each step (2^64 / φ, rounded to odd).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes `bytes` in one shot: `Hash64::new().bytes(bytes).finish()`.
///
/// # Examples
///
/// ```
/// use ds_telemetry::{hash64, Hash64};
/// assert_eq!(hash64(b"foobar"), Hash64::new().bytes(b"foobar").finish());
/// assert_ne!(hash64(b"a"), hash64(b"b"));
/// ```
pub fn hash64(bytes: &[u8]) -> u64 {
    Hash64::new().bytes(bytes).finish()
}

/// A streaming word-at-a-time 64-bit hasher for fingerprinting structured
/// data without building an intermediate buffer.
///
/// The `u64`/`bytes`/`str` feeders return `self`, so fingerprints compose
/// as a builder chain. A `u64` is one word; `bytes` and `str` feed their
/// length first, so a sequence of fields hashes as the sequence, never as
/// the concatenation of their bytes.
#[derive(Debug, Clone, Copy)]
pub struct Hash64(u64);

impl Default for Hash64 {
    fn default() -> Self {
        Hash64::new()
    }
}

impl Hash64 {
    /// Starts a hash at the fixed seed state.
    pub fn new() -> Hash64 {
        Hash64(SEED)
    }

    /// Feeds one word. For a fixed state this is a bijection of `w`, and
    /// for a fixed `w` a bijection of the state.
    #[inline]
    pub fn u64(self, w: u64) -> Hash64 {
        let h = (self.0 ^ w).wrapping_mul(MUL);
        Hash64(h ^ (h >> 32))
    }

    /// Feeds a byte string: its length, then its bytes as 8-byte
    /// little-endian words, the last one zero-padded.
    #[inline]
    pub fn bytes(self, bytes: &[u8]) -> Hash64 {
        let mut h = self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            h = h.u64(u64::from_le_bytes(w));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // The zero-padded little-endian word, built without a
            // variable-length copy.
            let w = tail
                .iter()
                .rev()
                .fold(0u64, |w, &b| (w << 8) | u64::from(b));
            h = h.u64(w);
        }
        h
    }

    /// Feeds a string's UTF-8 bytes, as [`Hash64::bytes`].
    #[inline]
    pub fn str(self, s: &str) -> Hash64 {
        self.bytes(s.as_bytes())
    }

    /// The hash of everything fed so far: murmur3's `fmix64` of the state,
    /// a bijection.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut k = self.0;
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
}

/// A [`std::hash::Hasher`] over [`Hash64`]'s word step, for the hash maps
/// staging builds.
///
/// The specializer's and the compiler's maps key on data from the program
/// being staged (term ids, variable and procedure names), never on data a
/// client sends, so they need no per-process random keys: they hash with
/// this fixed hasher through [`StageMap`] and [`StageSet`], and the
/// workspace keeps one hash primitive. The serving runtime's maps key on
/// request data and stay on `std`'s randomly keyed `RandomState`.
///
/// Integers are one word each; byte strings are fed as [`Hash64::bytes`]
/// feeds them (length, then words).
///
/// # Examples
///
/// ```
/// use ds_telemetry::StageMap;
/// let mut m: StageMap<&str, u32> = StageMap::default();
/// m.insert("slot", 1);
/// assert_eq!(m.get("slot"), Some(&1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StageHasher(Hash64);

impl std::hash::Hasher for StageHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = self.0.bytes(bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0 = self.0.u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.u64(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = self.0.u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The fixed [`std::hash::BuildHasher`] of staging maps (see
/// [`StageHasher`]).
pub type BuildStageHasher = std::hash::BuildHasherDefault<StageHasher>;

/// A `HashMap` keyed on data of the program being staged.
pub type StageMap<K, V> = std::collections::HashMap<K, V, BuildStageHasher>;

/// A `HashSet` of data of the program being staged.
pub type StageSet<K> = std::collections::HashSet<K, BuildStageHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash is persisted (layout fingerprints, seals, log and
    /// checkpoint checksums), so its values are part of the file formats: a change
    /// here is a format break.
    #[test]
    fn golden_vectors() {
        let got = [
            hash64(b""),
            hash64(b"a"),
            hash64(b"foobar"),
            hash64(b"hello world, eight+"),
            Hash64::new().finish(),
            Hash64::new().u64(0).finish(),
            Hash64::new().u64(1).u64(256).finish(),
            Hash64::new().u64(u64::MAX).str("slot").finish(),
        ];
        let want = [
            0x149a_eec1_9b31_d6cc,
            0xf4c0_3840_527c_5042,
            0x5439_2f56_6cc4_6bc8,
            0xc23a_b993_c1a8_ba6b,
            0x7acd_bb98_b134_4213,
            0x149a_eec1_9b31_d6cc,
            0xa471_cf4f_9597_1813,
            0xdfe4_c57c_ad68_604f,
        ];
        assert_eq!(got, want, "{got:#018x?}");
        // An empty byte string is its length word alone.
        assert_eq!(hash64(b""), Hash64::new().u64(0).finish());
    }

    #[test]
    fn one_shot_matches_the_builder_and_the_builder_is_pure() {
        for text in ["", "a", "seven b", "exactly8", "nine bytes", "hello world"] {
            assert_eq!(hash64(text.as_bytes()), Hash64::new().str(text).finish());
        }
        // A hasher is a value: a copy taken mid-stream finishes the same
        // stream to the same hash.
        let head = Hash64::new().u64(7).str("layout");
        let a = head.u64(42).str("tail").finish();
        let b = head.u64(42).str("tail").finish();
        assert_eq!(a, b);
        assert_eq!(head.finish(), head.finish());
    }

    #[test]
    fn separators_prevent_aliasing() {
        let a = Hash64::new().str("ab").str("c").finish();
        let b = Hash64::new().str("a").str("bc").finish();
        assert_ne!(a, b);
        // Unlike a byte-stream hash, split feeds are not one feed.
        assert_ne!(
            Hash64::new().str("hello ").str("world").finish(),
            hash64(b"hello world")
        );
        let c = Hash64::new().u64(1).u64(256).finish();
        let d = Hash64::new().u64(256).u64(1).finish();
        assert_ne!(c, d);
        // Trailing zero bytes are content, not padding.
        assert_ne!(hash64(b"ab"), hash64(b"ab\0"));
        assert_ne!(hash64(b""), hash64(b"\0\0\0\0\0\0\0\0"));
    }

    /// Requirement 1: a change confined to one word always changes the
    /// hash — every single-bit flip of every word of a stream.
    #[test]
    fn every_single_bit_flip_of_one_word_changes_the_hash() {
        let words = [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
        ];
        let hash = |ws: &[u64]| ws.iter().fold(Hash64::new(), |h, &w| h.u64(w)).finish();
        let base = hash(&words);
        for i in 0..words.len() {
            for bit in 0..64 {
                let mut ws = words;
                ws[i] ^= 1 << bit;
                assert_ne!(hash(&ws), base, "word {i}, bit {bit}");
            }
        }
    }

    /// Requirement 2: flipping the same high bit in two words does not
    /// cancel, as it does under a plain word-at-a-time FNV.
    #[test]
    fn paired_high_bit_flips_do_not_cancel() {
        let hash = |ws: &[u64]| ws.iter().fold(Hash64::new(), |h, &w| h.u64(w)).finish();
        let words = [3u64, 1.5f64.to_bits(), 9, (-2.0f64).to_bits(), 4];
        let base = hash(&words);
        for bit in 32..64 {
            for i in 0..words.len() {
                for j in i + 1..words.len() {
                    let mut ws = words;
                    ws[i] ^= 1 << bit;
                    ws[j] ^= 1 << bit;
                    assert_ne!(hash(&ws), base, "bit {bit} of words {i} and {j}");
                }
            }
        }
    }

    #[test]
    fn stage_hasher_feeds_the_word_step() {
        use std::hash::BuildHasher;
        let build = BuildStageHasher::default();
        // Fixed keys: the same value hashes the same in every map.
        assert_eq!(build.hash_one(7u32), build.hash_one(7u32));
        assert_eq!(build.hash_one(7u32), Hash64::new().u64(7).finish());
        // `str` hashes as its bytes, then a 0xff terminator word.
        assert_eq!(
            build.hash_one("slot"),
            Hash64::new().str("slot").u64(0xff).finish()
        );
        let set: StageSet<u32> = (0..1000).collect();
        assert_eq!(set.len(), 1000);
        assert!((0..1000).all(|i| set.contains(&i)));
    }
}

//! Stable content hashing for cache keys.
//!
//! The synthesis service caches rendered frames under a key derived from the
//! *content* of the inputs — the field parameters, the
//! [`SynthesisConfig`](crate::config::SynthesisConfig), the seed and the
//! frame index — so the hash must be stable across processes and runs (which
//! rules out [`std::collections::hash_map::DefaultHasher`]: its keys are
//! randomized per process). [`StableHasher`] is a fixed-parameter 64-bit
//! FNV-1a over an explicitly fed byte stream; floats are hashed by their IEEE
//! bit patterns so `0.25` hashes identically everywhere and distinct values
//! (including `0.0` vs `-0.0`) hash differently.

/// A deterministic 64-bit FNV-1a hasher with typed feed methods.
///
/// Every `write_*` method folds a fixed-width encoding of the value into the
/// state, so the resulting hash is a pure function of the fed value sequence
/// — the same sequence always yields the same key, in any process, on any
/// run.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Creates a hasher in the standard FNV-1a initial state.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub(crate) fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (stable across pointer widths).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a boolean as one byte.
    pub(crate) fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Feeds an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds an `f32` by its IEEE-754 bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Feeds a string as its length followed by its UTF-8 bytes (the length
    /// prefix keeps `("ab", "c")` distinct from `("a", "bc")`).
    pub fn write_str(&mut self, v: &str) {
        self.write_usize(v.len());
        self.write_bytes(v.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_feeds_hash_identically() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        for h in [&mut a, &mut b] {
            h.write_str("vortex");
            h.write_f64(1.5);
            h.write_u64(42);
            h.write_bool(true);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_feeds_hash_differently() {
        let hash = |f: &dyn Fn(&mut StableHasher)| {
            let mut h = StableHasher::new();
            f(&mut h);
            h.finish()
        };
        let base = hash(&|h| h.write_f64(1.0));
        assert_ne!(base, hash(&|h| h.write_f64(2.0)));
        assert_ne!(base, hash(&|h| h.write_f64(-1.0)));
        // Signed zero is a distinct bit pattern, hence a distinct key.
        assert_ne!(hash(&|h| h.write_f64(0.0)), hash(&|h| h.write_f64(-0.0)));
        // The string length prefix keeps concatenations apart.
        assert_ne!(
            hash(&|h| {
                h.write_str("ab");
                h.write_str("c");
            }),
            hash(&|h| {
                h.write_str("a");
                h.write_str("bc");
            })
        );
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis; of "a" it is the
        // published test vector 0xaf63dc4c8601ec8c.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}

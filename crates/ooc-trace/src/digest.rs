//! FNV-1a 64 — the stack's one content fingerprint.
//!
//! Event-stream digests (`stream_fnv`), irregular-schedule stamps and the
//! bench result digests all fold bytes through the same hash, so a value
//! printed by one layer can be recomputed by another. Not cryptographic:
//! it detects divergence, not tampering.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Four byte steps that each xor in a zero byte: xor with zero is the
/// identity, so they are four multiplies by `PRIME`.
const PRIME4: u64 = PRIME
    .wrapping_mul(PRIME)
    .wrapping_mul(PRIME)
    .wrapping_mul(PRIME);

/// Running FNV-1a 64 state. Feeders chain:
/// `Fnv1a::new().u64s(words).f32s(&floats).finish()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// The empty digest (the offset basis).
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Fold `bytes` in.
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv1a {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Fold each word in as its eight little-endian bytes. A word whose
    /// high four bytes are zero folds its low four and then multiplies by
    /// `PRIME⁴` once, which gives the same bits.
    pub fn u64s(self, words: impl IntoIterator<Item = u64>) -> Fnv1a {
        words.into_iter().fold(self, |h, w| {
            let h = h.bytes(&(w as u32).to_le_bytes());
            match (w >> 32) as u32 {
                0 => Fnv1a(h.0.wrapping_mul(PRIME4)),
                high => h.bytes(&high.to_le_bytes()),
            }
        })
    }

    /// Fold each value's IEEE-754 bit pattern in, little-endian.
    pub fn f32s(self, vals: &[f32]) -> Fnv1a {
        vals.iter()
            .fold(self, |h, v| h.bytes(&v.to_bits().to_le_bytes()))
    }

    /// The digest of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot digest of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn typed_feeders_equal_the_byte_feeder_on_little_endian_bytes() {
        let words = [0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX];
        let raw = words
            .iter()
            .fold(Fnv1a::new(), |h, w| h.bytes(&w.to_le_bytes()));
        assert_eq!(Fnv1a::new().u64s(words), raw);
        let floats = [0.0f32, -0.0, 1.5, f32::NAN];
        let raw = floats
            .iter()
            .fold(Fnv1a::new(), |h, f| h.bytes(&f.to_bits().to_le_bytes()));
        assert_eq!(Fnv1a::new().f32s(&floats), raw);
        // Feeding in pieces equals feeding at once.
        assert_eq!(
            Fnv1a::new().bytes(b"foo").bytes(b"bar").finish(),
            fnv1a(b"foobar")
        );
    }

    proptest::proptest! {
        #[test]
        fn word_feeder_equals_the_byte_feeder_on_narrow_and_wide_words(
            words in proptest::collection::vec((0u64..u64::MAX, proptest::bool::ANY), 0..40)
        ) {
            // About half the words have zero high bytes, the folded case.
            let words: Vec<u64> = words
                .into_iter()
                .map(|(w, narrow)| if narrow { w >> 32 } else { w })
                .collect();
            let raw = words
                .iter()
                .fold(Fnv1a::new(), |h, w| h.bytes(&w.to_le_bytes()));
            proptest::prop_assert_eq!(Fnv1a::new().u64s(words), raw);
        }
    }
}

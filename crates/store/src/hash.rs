//! Stable, dependency-free hashing shared across the workspace.
//!
//! `DefaultHasher` does not promise stability across processes or
//! compiler versions, but several subsystems need exactly that: the
//! registry's CSV ingest fingerprints (replicate idempotency), the
//! fleet's consistent-hash ring (placement must agree between router
//! restarts), the engine's configuration fingerprints (report-cache
//! keys), and the serving layer's `ETag`s (clients compare them across
//! connections and across fleet replicas). They all share this FNV-1a.

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
///
/// FNV-1a has no finalisation step: the state after feeding `a` *is*
/// `fnv1a_64(a)`. So [`Fnv1a64::resume`] from a finished hash and
/// feeding `b` yields `fnv1a_64(a ++ b)` without the bytes of `a` —
/// which is how an append re-fingerprints a table from its old
/// fingerprint and the new rows alone.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// A hasher over the empty input.
    pub fn new() -> Self {
        Self(FNV_OFFSET_BASIS)
    }

    /// A hasher continuing from `hash`, the finished FNV-1a of some
    /// prefix.
    pub fn resume(hash: u64) -> Self {
        Self(hash)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    /// The hash of everything fed so far (resume-able).
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash over a byte slice.
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a64::new();
    hasher.update(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // Ring placement, replicate idempotency, and ETag stability all
        // depend on these staying fixed across refactors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a_64(b"table-0"), fnv1a_64(b"table-1"));
    }

    #[test]
    fn resuming_equals_hashing_the_concatenation() {
        let text = b"x,y\n1,2\n3,4\n5,6";
        for split in 0..=text.len() {
            let (a, b) = text.split_at(split);
            let mut h = Fnv1a64::resume(fnv1a_64(a));
            h.update(b);
            assert_eq!(h.finish(), fnv1a_64(text), "split at {split}");
        }
        assert_eq!(Fnv1a64::default().finish(), fnv1a_64(b""));
    }
}

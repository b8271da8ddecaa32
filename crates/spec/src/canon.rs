//! Canonical-serialization digests for content-addressed cache keys.
//!
//! The schedule cache in the umbrella crate's `Engine` (and its on-disk
//! store) addresses entries by the canonical JSON serialization of
//! `(scheduler fingerprint, architecture, layer)`. This module owns the
//! digest so every tier — the in-memory LRU front, the persisted store
//! files and any future remote cache — derives byte-identical keys from
//! the same bytes. The digest doubles as the store's file-name stem, so
//! **changing it invalidates every persisted cache** — the golden test in
//! this module pins it.
//!
//! The digest is two independent 64-bit FNV-1a hashes (different offset
//! bases, computed in one pass) rendered as 32 lowercase hex characters.
//! FNV is not cryptographic; it is collision-resistant enough for content
//! addressing a few thousand multi-kilobyte canonical strings while staying
//! dependency-free and allocation-light.

/// Separator between canonical parts: a control byte that the canonical
/// JSON encoder always escapes, so it can never occur unescaped inside a
/// part and joined keys cannot collide across part boundaries.
pub const CANON_SEP: char = '\u{1}';

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_BASIS_LO: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_BASIS_HI: u64 = 0x6c62_272e_07bb_0142;

/// The two-pass definition of the digest's halves, kept as the oracle the
/// one-pass [`CanonDigest`] is tested against.
#[cfg(test)]
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    bytes
        .iter()
        .fold(basis, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// A streaming [`cache_digest`]: canonical parts are fed one at a time with
/// [`CanonDigest::push`], and the digest depends only on the parts and their
/// order. Cloning forks the state, so a prefix shared by many keys (the
/// scheduler fingerprint and architecture of a whole network) is hashed
/// once and each key extends a copy.
///
/// ```
/// use cosa_spec::canon::{cache_digest, CanonDigest};
/// let mut prefix = CanonDigest::new();
/// prefix.push("fp");
/// prefix.push("arch");
/// let mut key = prefix.clone();
/// key.push("layer");
/// assert_eq!(key.hex(), cache_digest(&["fp", "arch", "layer"]));
/// ```
#[derive(Debug, Clone)]
pub struct CanonDigest {
    lo: u64,
    hi: u64,
    /// Whether a part has been pushed (the next one is preceded by
    /// [`CANON_SEP`]).
    started: bool,
}

impl CanonDigest {
    /// The digest of no parts yet.
    pub fn new() -> CanonDigest {
        CanonDigest {
            lo: FNV_BASIS_LO,
            hi: FNV_BASIS_HI,
            started: false,
        }
    }

    /// Append one canonical part, separated from the previous one by
    /// [`CANON_SEP`].
    pub fn push(&mut self, part: &str) {
        if self.started {
            self.update(CANON_SEP.encode_utf8(&mut [0; 4]).as_bytes());
        }
        self.started = true;
        self.update(part.as_bytes());
    }

    /// Both FNV-1a halves in one pass: two independent multiply chains.
    fn update(&mut self, bytes: &[u8]) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for &b in bytes {
            lo = (lo ^ b as u64).wrapping_mul(FNV_PRIME);
            hi = (hi ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        (self.lo, self.hi) = (lo, hi);
    }

    /// The 128-bit digest as 32 lowercase hex characters.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.lo, self.hi)
    }
}

impl Default for CanonDigest {
    fn default() -> CanonDigest {
        CanonDigest::new()
    }
}

/// 128-bit content digest of `bytes` as 32 lowercase hex characters.
///
/// ```
/// let d = cosa_spec::canon::digest128_hex(b"cosa");
/// assert_eq!(d.len(), 32);
/// assert_eq!(d, cosa_spec::canon::digest128_hex(b"cosa"));
/// ```
pub fn digest128_hex(bytes: &[u8]) -> String {
    let mut digest = CanonDigest::new();
    digest.update(bytes);
    digest.hex()
}

/// The parts joined with [`CANON_SEP`]: the string [`cache_digest`] is
/// defined over, kept as the oracle the streaming digest is tested against.
#[cfg(test)]
fn join_canonical(parts: &[&str]) -> String {
    parts.join(&CANON_SEP.to_string())
}

/// The content-addressed cache key for a sequence of canonical parts:
/// [`digest128_hex`] over the parts joined with [`CANON_SEP`] (unambiguous
/// because the separator cannot appear unescaped in canonical JSON),
/// computed by streaming the parts through a [`CanonDigest`] without
/// joining them.
///
/// The engine passes `[scheduler fingerprint, arch JSON, layer JSON]`;
/// anything deriving keys for the same cache must pass the same parts in
/// the same order.
pub fn cache_digest(parts: &[&str]) -> String {
    let mut digest = CanonDigest::new();
    for part in parts {
        digest.push(part);
    }
    digest.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = cache_digest(&["fp", "arch", "layer"]);
        let b = cache_digest(&["fp", "arch", "layer"]);
        let c = cache_digest(&["fp", "layer", "arch"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn golden_digest_pins_on_disk_format() {
        // Changing the digest algorithm silently invalidates every
        // persisted cache directory; this golden value makes the change
        // explicit. Computed from the two-basis FNV-1a definition above.
        let expected = {
            let joined = "a\u{1}b";
            format!(
                "{:016x}{:016x}",
                fnv1a(joined.as_bytes(), FNV_BASIS_LO),
                fnv1a(joined.as_bytes(), FNV_BASIS_HI)
            )
        };
        assert_eq!(cache_digest(&["a", "b"]), expected);
        // And the concrete bytes, so a refactor of the helpers above
        // cannot drift together with the assertion.
        assert_eq!(
            cache_digest(&["a", "b"]),
            "e5d6bb19042a894f8cbaca2d479bf97e"
        );
    }

    #[test]
    fn parts_do_not_collide_across_boundaries() {
        assert_ne!(cache_digest(&["ab", "c"]), cache_digest(&["a", "bc"]));
        assert_ne!(cache_digest(&["ab"]), cache_digest(&["a", "b"]));
    }

    #[test]
    fn streaming_digest_matches_the_joined_two_pass_definition() {
        let parts = ["", "fp", "{\"a\":[1,2.0]}", "\\u0001", "é→😀", ""];
        for n in 0..=parts.len() {
            let joined = join_canonical(&parts[..n]);
            let two_pass = format!(
                "{:016x}{:016x}",
                fnv1a(joined.as_bytes(), FNV_BASIS_LO),
                fnv1a(joined.as_bytes(), FNV_BASIS_HI)
            );
            assert_eq!(cache_digest(&parts[..n]), two_pass);
            assert_eq!(digest128_hex(joined.as_bytes()), two_pass);
            // A fork after any prefix extends to the same digest.
            for split in 0..=n {
                let mut prefix = CanonDigest::new();
                parts[..split].iter().for_each(|p| prefix.push(p));
                let mut fork = prefix.clone();
                parts[split..n].iter().for_each(|p| fork.push(p));
                assert_eq!(fork.hex(), two_pass);
            }
        }
    }
}

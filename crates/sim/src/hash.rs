//! 64-bit FNV-1a: the workspace's one stable, non-cryptographic hash.
//!
//! Checkpoint and workload fingerprints and the golden digests feed their
//! bytes through [`Fnv1a`]. Its value depends only on the bytes fed, in
//! order, so it is the same on every platform and in every build profile;
//! each caller fixes its own byte feed (field order, integer endianness,
//! string terminators).

/// The FNV-1a offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher.
///
/// ```
/// use eadt_sim::Fnv1a;
///
/// assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the offset basis: with no bytes fed, it finishes at
    /// the basis itself.
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feeds `bytes`, in order.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// The hash of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;

    #[test]
    fn matches_the_standard_test_vectors() {
        let hash = |text: &str| Fnv1a::new().write(text.as_bytes()).finish();
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn feeding_in_pieces_equals_feeding_at_once() {
        let mut pieces = Fnv1a::new();
        pieces.write(b"foo").write(b"").write(b"bar");
        assert_eq!(pieces, *Fnv1a::new().write(b"foobar"));
    }
}

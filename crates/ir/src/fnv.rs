//! The FNV-1a 64-bit hash every layer of the repo standardizes on.
//!
//! One definition serves intern-table sharding, content keys, image and
//! store checksums, campaign ids and retry jitter. It is deterministic
//! across runs and processes (unlike `RandomState`), which is what all
//! of those need; none of them needs collision resistance against an
//! adversary.

/// FNV-1a offset basis: the starting `hash` for a fresh digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes`, continuing from `hash`. Start a digest from
/// [`FNV_OFFSET`]; chain calls to fold several fields into one value.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chaining_equals_one_pass() {
        assert_eq!(
            fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)),
            fnv1a(b"foobar", FNV_OFFSET)
        );
    }
}

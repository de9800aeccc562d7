//! Key-space sharding: the partitioner that assigns every state key to a shard.
//!
//! The paper keeps one multi-version store. `CcConfig::store_shards` can split that store
//! into `S` independent partitions (`eov_vstore::ShardedStore`); the orderer's dependency
//! graph and its CW/CR/PW/PR indices stay single at every `S`. This module provides the one
//! component every store layer must agree on — the key → shard assignment. Determinism is a
//! replication requirement (Section 3.5): every replica must route a key to the same shard, so
//! the router hashes with a fixed FNV-1a, never `std`'s randomized `DefaultHasher`.

use crate::rwset::Key;
use serde::{Deserialize, Serialize};

/// Assigns every key to one of `S` shards by FNV-1a hash of the key bytes modulo `S`,
/// deterministically across replicas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRouter {
    shards: usize,
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string: stable across platforms, processes and replicas.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl ShardRouter {
    /// A hash router over `shards` shards (clamped to at least 1).
    pub fn hash(shards: usize) -> Self {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard that owns `key`. Always in `0..shard_count()`.
    pub fn shard_of(&self, key: &Key) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (fnv1a(key.as_str().as_bytes()) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routing_is_deterministic_and_in_range() {
        let router = ShardRouter::hash(4);
        assert_eq!(router.shard_count(), 4);
        for i in 0..500 {
            let key = Key::new(format!("acct:{i}"));
            let shard = router.shard_of(&key);
            assert!(shard < 4);
            assert_eq!(shard, router.shard_of(&key), "routing must be stable");
        }
    }

    #[test]
    fn hash_routing_spreads_keys_across_all_shards() {
        let router = ShardRouter::hash(4);
        let mut counts = [0usize; 4];
        for i in 0..1_000 {
            counts[router.shard_of(&Key::new(format!("checking:{i}")))] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(*count > 100, "shard {shard} only got {count} of 1000 keys");
        }
    }

    #[test]
    fn single_shard_router_maps_everything_to_zero() {
        let router = ShardRouter::hash(1);
        assert_eq!(router.shard_count(), 1);
        assert_eq!(router.shard_of(&Key::new("anything")), 0);
        assert_eq!(ShardRouter::hash(0).shard_count(), 1, "clamped to 1");
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}

//! The store surface shared by the unsharded and the sharded state backends.
//!
//! [`StateRead`] is the read surface the endorsement path depends on (snapshot reads, latest
//! reads, chain height) — object-safe, so [`crate::snapshot::SnapshotView`] can hold any
//! backend behind one `&dyn` without threading generics through every contract closure.
//! [`StateStore`] adds the commit-path mutations (versioned puts, height advancement, version
//! GC). [`crate::mvstore::MultiVersionStore`] implements both by delegating to its inherent
//! methods; [`crate::sharded::ShardedStore`] implements them by key fan-out; and the
//! [`crate::shared::StoreBackend`] enum dispatches between the two so the shared handle keeps
//! a single concrete store type.

use crate::mvstore::{MultiVersionStore, VersionedValue};
use eov_common::error::Result;
use eov_common::rwset::{Key, Value};
use eov_common::txn::Transaction;
use eov_common::version::SeqNo;

/// Read surface of a multi-versioned state backend (object-safe).
pub trait StateRead {
    /// Reads `key` as of the snapshot after `block` (an error if that snapshot was pruned).
    fn read_at(&self, key: &Key, block: u64) -> Result<Option<&VersionedValue>>;

    /// The latest version of `key`, if any.
    fn latest(&self, key: &Key) -> Option<&VersionedValue>;

    /// Height of the last committed block.
    fn last_block(&self) -> u64;

    /// The latest value of `key`, if any.
    fn latest_value(&self, key: &Key) -> Option<&Value> {
        self.latest(key).map(|v| &v.value)
    }
}

/// Full store surface: reads plus the commit-path mutations.
pub trait StateStore: StateRead {
    /// Installs a single versioned value (versions per key must be non-decreasing).
    fn put(&mut self, key: Key, version: SeqNo, value: Value);

    /// Advances the height without writes (blocks whose transactions all aborted).
    fn commit_empty_block(&mut self, block_no: u64);

    /// Garbage-collects versions below the newest one visible at `block`.
    fn prune_versions_below(&mut self, block: u64);

    /// Number of distinct keys ever written.
    fn key_count(&self) -> usize;

    /// Total number of retained versions across all keys.
    fn version_count(&self) -> usize;

    /// Seeds the genesis state (block 0) exactly like
    /// [`MultiVersionStore::seed_genesis`]: entry `i` receives version `(0, i + 1)` in
    /// iteration order, regardless of which shard it lands on.
    fn seed_genesis(&mut self, entries: impl IntoIterator<Item = (Key, Value)>)
    where
        Self: Sized,
    {
        for (i, (key, value)) in entries.into_iter().enumerate() {
            self.put(key, SeqNo::new(0, i as u32 + 1), value);
        }
    }

    /// Applies the write sets of the committed transactions of `block_no`, in order, then
    /// advances the height (mirrors [`MultiVersionStore::apply_block`]).
    fn apply_block<'a>(
        &mut self,
        block_no: u64,
        committed: impl IntoIterator<Item = (&'a Transaction, u32)>,
    ) where
        Self: Sized,
    {
        for (txn, seq) in committed {
            let version = SeqNo::new(block_no, seq);
            for item in txn.write_set.iter() {
                self.put(item.key.clone(), version, item.value.clone());
            }
        }
        self.commit_empty_block(block_no);
    }
}

impl StateRead for MultiVersionStore {
    fn read_at(&self, key: &Key, block: u64) -> Result<Option<&VersionedValue>> {
        MultiVersionStore::read_at(self, key, block)
    }

    fn latest(&self, key: &Key) -> Option<&VersionedValue> {
        MultiVersionStore::latest(self, key)
    }

    fn last_block(&self) -> u64 {
        MultiVersionStore::last_block(self)
    }
}

impl StateStore for MultiVersionStore {
    fn put(&mut self, key: Key, version: SeqNo, value: Value) {
        MultiVersionStore::put(self, key, version, value);
    }

    fn commit_empty_block(&mut self, block_no: u64) {
        MultiVersionStore::commit_empty_block(self, block_no);
    }

    fn prune_versions_below(&mut self, block: u64) {
        MultiVersionStore::prune_versions_below(self, block);
    }

    fn key_count(&self) -> usize {
        MultiVersionStore::key_count(self)
    }

    fn version_count(&self) -> usize {
        MultiVersionStore::version_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default trait implementations must reproduce the inherent genesis/apply semantics.
    #[test]
    fn trait_surface_matches_inherent_behaviour() {
        fn seed_via_trait<S: StateStore>(store: &mut S) {
            store.seed_genesis([
                (Key::new("a"), Value::from_i64(1)),
                (Key::new("b"), Value::from_i64(2)),
            ]);
        }

        let mut via_trait = MultiVersionStore::new();
        seed_via_trait(&mut via_trait);
        let mut inherent = MultiVersionStore::new();
        inherent.seed_genesis([
            (Key::new("a"), Value::from_i64(1)),
            (Key::new("b"), Value::from_i64(2)),
        ]);

        for key in ["a", "b"] {
            assert_eq!(
                inherent.latest(&Key::new(key)),
                MultiVersionStore::latest(&via_trait, &Key::new(key))
            );
        }
        let dyn_read: &dyn StateRead = &via_trait;
        assert_eq!(
            dyn_read.latest_value(&Key::new("b")).unwrap().as_i64(),
            Some(2)
        );
        assert_eq!(dyn_read.last_block(), 0);
    }
}

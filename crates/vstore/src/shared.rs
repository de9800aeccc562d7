//! The shared state-store handle.
//!
//! The parallel commit scheduler (`fabricsharp_core::scheduler`) probes a wave from worker
//! threads under the read lock and applies it under the write lock, so the simulator, the
//! chain facade and the scheduler hand the state backend around as one [`SharedStore`].
//! Endorsement reads pinned *block snapshots* ([`MultiVersionStore::read_at`] never consults
//! versions above the pinned block), so a simulation's result does not depend on versions
//! appended after the pin — the Section 4.2 argument for replacing vanilla Fabric's
//! endorsement read-write lock with storage snapshots.
//!
//! The handle wraps a [`StoreBackend`]: either the unsharded [`MultiVersionStore`] or the
//! partitioned [`crate::sharded::ShardedStore`]. Both expose the same
//! [`StateRead`]/[`StateStore`] surface and, for the same writes, answer every read
//! identically, so callers are oblivious to which backend runs below them (asserted
//! end-to-end by `tests/determinism_lattice.rs`).
//!
//! This module is the concurrency-audit companion to [`crate::snapshot`]: it pins down, at
//! compile time, that every substrate type behind the handle is `Send + Sync`, and its tests
//! hammer the snapshot manager and a shared store from multiple threads.

use crate::mvstore::{MultiVersionStore, VersionedValue};
use crate::sharded::ShardedStore;
use crate::state::{StateRead, StateStore};
use eov_common::error::Result;
use eov_common::rwset::{Key, Value};
use eov_common::version::SeqNo;
use parking_lot::RwLock;
use std::sync::Arc;

/// The state backend behind the shared handle: one global store, or `S` key-space shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreBackend {
    /// The unsharded reference store.
    Unsharded(MultiVersionStore),
    /// The key-space partitioned store.
    Sharded(ShardedStore),
}

impl StoreBackend {
    /// Builds the backend for a `store_shards` knob value: `0` = unsharded reference,
    /// `S >= 1` = `S` hash-partitioned shards.
    pub fn for_shards(store_shards: usize) -> Self {
        if store_shards == 0 {
            StoreBackend::Unsharded(MultiVersionStore::new())
        } else {
            StoreBackend::Sharded(ShardedStore::with_hash_shards(store_shards))
        }
    }

    /// Number of key-space shards (1 for the unsharded backend).
    pub fn shard_count(&self) -> usize {
        match self {
            StoreBackend::Unsharded(_) => 1,
            StoreBackend::Sharded(s) => s.shard_count(),
        }
    }

    /// Full version history of `key` (oldest first), whichever backend holds it.
    pub fn history(&self, key: &Key) -> &[VersionedValue] {
        match self {
            StoreBackend::Unsharded(s) => s.history(key),
            StoreBackend::Sharded(s) => s.history(key),
        }
    }

    /// The lowest block height whose snapshot is still readable.
    pub fn pruned_below(&self) -> u64 {
        match self {
            StoreBackend::Unsharded(s) => s.pruned_below(),
            StoreBackend::Sharded(s) => s.pruned_below(),
        }
    }

    /// Every `(key, full version chain)` pair in key order, whichever backend holds it — the
    /// shard-layout-independent view of the store's contents.
    pub fn histories(&self) -> Vec<(&Key, &[VersionedValue])> {
        match self {
            StoreBackend::Unsharded(s) => s.iter_history().collect(),
            StoreBackend::Sharded(s) => {
                let mut all: Vec<(&Key, &[VersionedValue])> = (0..s.shard_count())
                    .flat_map(|i| s.shard(i).iter_history())
                    .collect();
                all.sort_by(|a, b| a.0.cmp(b.0));
                all
            }
        }
    }
}

impl StateRead for StoreBackend {
    fn read_at(&self, key: &Key, block: u64) -> Result<Option<&VersionedValue>> {
        match self {
            StoreBackend::Unsharded(s) => s.read_at(key, block),
            StoreBackend::Sharded(s) => StateRead::read_at(s, key, block),
        }
    }

    fn latest(&self, key: &Key) -> Option<&VersionedValue> {
        match self {
            StoreBackend::Unsharded(s) => s.latest(key),
            StoreBackend::Sharded(s) => StateRead::latest(s, key),
        }
    }

    fn last_block(&self) -> u64 {
        match self {
            StoreBackend::Unsharded(s) => s.last_block(),
            StoreBackend::Sharded(s) => StateRead::last_block(s),
        }
    }
}

impl StateStore for StoreBackend {
    fn put(&mut self, key: Key, version: SeqNo, value: Value) {
        match self {
            StoreBackend::Unsharded(s) => s.put(key, version, value),
            StoreBackend::Sharded(s) => StateStore::put(s, key, version, value),
        }
    }

    fn commit_empty_block(&mut self, block_no: u64) {
        match self {
            StoreBackend::Unsharded(s) => s.commit_empty_block(block_no),
            StoreBackend::Sharded(s) => StateStore::commit_empty_block(s, block_no),
        }
    }

    fn prune_versions_below(&mut self, block: u64) {
        match self {
            StoreBackend::Unsharded(s) => s.prune_versions_below(block),
            StoreBackend::Sharded(s) => StateStore::prune_versions_below(s, block),
        }
    }

    fn key_count(&self) -> usize {
        match self {
            StoreBackend::Unsharded(s) => s.key_count(),
            StoreBackend::Sharded(s) => StateStore::key_count(s),
        }
    }

    fn version_count(&self) -> usize {
        match self {
            StoreBackend::Unsharded(s) => s.version_count(),
            StoreBackend::Sharded(s) => StateStore::version_count(s),
        }
    }
}

/// A state backend shared with the commit scheduler's workers: they probe a wave under the
/// read lock, and the block's writes are applied under the write lock.
pub type SharedStore = Arc<RwLock<StoreBackend>>;

/// Wraps any backend (unsharded or key-space sharded) in the shared handle.
pub fn into_shared_backend(store: StoreBackend) -> SharedStore {
    Arc::new(RwLock::new(store))
}

/// Compile-time audit: every substrate type reachable from the shared handle must be
/// shareable between threads. A regression here (e.g. an `Rc` or a raw pointer sneaking into
/// the store) fails the build, not a stress test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MultiVersionStore>();
    assert_send_sync::<ShardedStore>();
    assert_send_sync::<StoreBackend>();
    assert_send_sync::<SharedStore>();
    assert_send_sync::<crate::snapshot::SnapshotManager>();
    assert_send_sync::<crate::index::CommittedWriteIndex>();
    assert_send_sync::<crate::index::CommittedReadIndex>();
    assert_send_sync::<crate::pending::PendingIndex>();
    assert_send_sync::<crate::index::DependencyIndices>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotManager;
    use eov_common::txn::{Transaction, TxnId};
    use std::thread;

    /// Concurrent snapshot reads against a store that a committer thread keeps appending to:
    /// every read at a pinned height must see exactly the value that height had when it was
    /// pinned, regardless of how many blocks land concurrently. Exercised against both
    /// backends — the MVCC stability argument must hold per shard too.
    #[test]
    fn snapshot_reads_are_stable_under_concurrent_commits() {
        for backend in [StoreBackend::for_shards(0), StoreBackend::for_shards(3)] {
            let store = into_shared_backend(backend);
            store
                .write()
                .seed_genesis([(Key::new("A"), Value::from_i64(0))]);

            let committer = {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    for block in 1..=50u64 {
                        let txn = Transaction::new(
                            TxnId(block),
                            block - 1,
                            eov_common::rwset::ReadSet::new(),
                            {
                                let mut ws = eov_common::rwset::WriteSet::new();
                                ws.record(Key::new("A"), Value::from_i64(block as i64));
                                ws
                            },
                        );
                        store.write().apply_block(block, [(&txn, 1)]);
                    }
                })
            };

            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let store = Arc::clone(&store);
                    thread::spawn(move || {
                        for _ in 0..200 {
                            let guard = store.read();
                            let pinned = guard.last_block();
                            let v = guard
                                .read_at(&Key::new("A"), pinned)
                                .expect("never pruned")
                                .map(|vv| vv.value.as_i64().unwrap())
                                .unwrap_or(0);
                            // The value at height `pinned` is by construction the block number
                            // that wrote it (0 at genesis).
                            assert_eq!(v, pinned as i64);
                        }
                    })
                })
                .collect();

            committer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
            assert_eq!(store.read().last_block(), 50);
        }
    }

    /// The snapshot manager's pin/unpin/register/prune surface is exercised from many threads
    /// at once; afterwards no pins may leak and the pruning floor must respect every pin that
    /// was active when it was computed.
    #[test]
    fn snapshot_manager_survives_concurrent_pin_churn() {
        let mgr = SnapshotManager::new();
        let register = {
            let mgr = mgr.clone();
            thread::spawn(move || {
                for block in 1..=100u64 {
                    mgr.register_block(block);
                }
            })
        };
        let pinners: Vec<_> = (0..4)
            .map(|_| {
                let mgr = mgr.clone();
                thread::spawn(move || {
                    for _ in 0..200 {
                        let block = mgr.pin_latest();
                        assert!(mgr.pin_count(block) >= 1);
                        mgr.unpin(block);
                    }
                })
            })
            .collect();
        register.join().unwrap();
        for p in pinners {
            p.join().unwrap();
        }
        // All pins released: pruning can advance to the horizon.
        assert_eq!(mgr.latest(), 100);
        assert_eq!(mgr.prune_below(90), 90);
        for block in 0..100u64 {
            assert_eq!(mgr.pin_count(block), 0, "leaked pin on block {block}");
        }
    }
}

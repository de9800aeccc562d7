//! Key-space sharded state: `S` independent [`MultiVersionStore`] partitions behind one
//! [`ShardRouter`], plus the sharded CW/CR/PW/PR dependency-resolution indices.
//!
//! Every operation of the unsharded store surface is implemented by fan-out: point operations
//! (put, latest, snapshot read) route to the owning shard, whole-store operations (pruning,
//! height advancement, counts) visit every shard. Because the store is a pure data partition —
//! no key ever lives in two shards — every read returns bit-for-bit what the unsharded store
//! would return, which is the foundation of the ledger-identity guarantee the determinism
//! lattice (`tests/determinism_lattice.rs`) checks. The same argument covers the indices:
//! CW/CR/PW/PR are per-key maps, so routing each key to its shard's index partitions the map
//! without changing any per-key answer.

use crate::index::{CommittedReadIndex, CommittedWriteIndex};
use crate::mvstore::{MultiVersionStore, VersionedValue};
use crate::pending::PendingIndex;
use crate::state::{StateRead, StateStore};
use eov_common::error::Result;
use eov_common::rwset::{Key, Value};
use eov_common::shard::ShardRouter;
use eov_common::version::SeqNo;

/// A multi-version store partitioned across `S` shards by a [`ShardRouter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedStore {
    router: ShardRouter,
    shards: Vec<MultiVersionStore>,
    /// Global height — individual shards only see the blocks that wrote into them.
    last_block: u64,
}

impl ShardedStore {
    /// Creates an empty sharded store with the given router.
    pub fn new(router: ShardRouter) -> Self {
        ShardedStore {
            shards: (0..router.shard_count())
                .map(|_| MultiVersionStore::new())
                .collect(),
            router,
            last_block: 0,
        }
    }

    /// A hash-partitioned store over `shards` shards.
    pub fn with_hash_shards(shards: usize) -> Self {
        Self::new(ShardRouter::hash(shards))
    }

    /// The router assigning keys to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard (diagnostics, balance checks in tests).
    pub fn shard(&self, shard: usize) -> &MultiVersionStore {
        &self.shards[shard]
    }

    /// Exclusive access to one shard. The parallel commit scheduler uses this to move shard
    /// stores out (`mem::take`) and hand them to apply workers while the backend's write lock
    /// is held — invisible to readers because no read can start until the lock drops.
    pub fn shard_mut(&mut self, shard: usize) -> &mut MultiVersionStore {
        &mut self.shards[shard]
    }

    fn owner(&self, key: &Key) -> &MultiVersionStore {
        &self.shards[self.router.shard_of(key)]
    }

    /// Full version history of `key` (oldest first).
    pub fn history(&self, key: &Key) -> &[VersionedValue] {
        self.owner(key).history(key)
    }

    /// Iterates over `(key, latest version)` pairs in global key order — a k-way merge over
    /// the per-shard ordered maps.
    pub fn iter_latest(&self) -> impl Iterator<Item = (&Key, &VersionedValue)> {
        let mut entries: Vec<(&Key, &VersionedValue)> = self
            .shards
            .iter()
            .flat_map(MultiVersionStore::iter_latest)
            .collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// The lowest block height whose snapshot is still readable.
    pub fn pruned_below(&self) -> u64 {
        self.shards
            .iter()
            .map(MultiVersionStore::pruned_below)
            .max()
            .unwrap_or(0)
    }

    /// Restores the *global* height recorded in a checkpoint (individual shards only see the
    /// blocks that wrote into them, so their own heights undercount). Never regresses.
    pub fn restore_height(&mut self, last_block: u64) {
        self.last_block = self.last_block.max(last_block);
    }
}

impl StateRead for ShardedStore {
    fn read_at(&self, key: &Key, block: u64) -> Result<Option<&VersionedValue>> {
        self.owner(key).read_at(key, block)
    }

    fn latest(&self, key: &Key) -> Option<&VersionedValue> {
        self.owner(key).latest(key)
    }

    fn last_block(&self) -> u64 {
        self.last_block
    }
}

impl StateStore for ShardedStore {
    fn put(&mut self, key: Key, version: SeqNo, value: Value) {
        let shard = self.router.shard_of(&key);
        self.shards[shard].put(key, version, value);
    }

    fn commit_empty_block(&mut self, block_no: u64) {
        for shard in &mut self.shards {
            shard.commit_empty_block(block_no);
        }
        self.last_block = self.last_block.max(block_no);
    }

    fn prune_versions_below(&mut self, block: u64) {
        for shard in &mut self.shards {
            shard.prune_versions_below(block);
        }
    }

    fn key_count(&self) -> usize {
        self.shards.iter().map(MultiVersionStore::key_count).sum()
    }

    fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(MultiVersionStore::version_count)
            .sum()
    }
}

/// The four dependency-resolution indices of Section 4.3 (CW, CR, PW, PR), partitioned by key
/// shard. With a single shard this is exactly the unsharded layout — the orderer always goes
/// through this type and the `store_shards` knob only changes how many partitions back it.
#[derive(Clone, Debug)]
pub struct ShardedIndices {
    router: ShardRouter,
    cw: Vec<CommittedWriteIndex>,
    cr: Vec<CommittedReadIndex>,
    pw: Vec<PendingIndex>,
    pr: Vec<PendingIndex>,
}

impl ShardedIndices {
    /// Creates empty indices partitioned by `router`.
    pub fn new(router: ShardRouter) -> Self {
        let shards = router.shard_count();
        ShardedIndices {
            router,
            cw: (0..shards).map(|_| CommittedWriteIndex::new()).collect(),
            cr: (0..shards).map(|_| CommittedReadIndex::new()).collect(),
            pw: (0..shards).map(|_| PendingIndex::new()).collect(),
            pr: (0..shards).map(|_| PendingIndex::new()).collect(),
        }
    }

    /// The router assigning keys to index shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.cw.len()
    }

    /// The committed-write index owning `key`.
    pub fn cw(&self, key: &Key) -> &CommittedWriteIndex {
        &self.cw[self.router.shard_of(key)]
    }

    /// The committed-read index owning `key`.
    pub fn cr(&self, key: &Key) -> &CommittedReadIndex {
        &self.cr[self.router.shard_of(key)]
    }

    /// The pending-write index owning `key`.
    pub fn pw(&self, key: &Key) -> &PendingIndex {
        &self.pw[self.router.shard_of(key)]
    }

    /// The pending-read index owning `key`.
    pub fn pr(&self, key: &Key) -> &PendingIndex {
        &self.pr[self.router.shard_of(key)]
    }

    /// Records a committed write of `key` at `seq`.
    pub fn record_cw(&mut self, key: Key, seq: SeqNo, txn: eov_common::txn::TxnId) {
        let shard = self.router.shard_of(&key);
        self.cw[shard].record(key, seq, txn);
    }

    /// Records a committed read of the latest value of `key` at `seq`.
    pub fn record_cr(&mut self, key: Key, seq: SeqNo, txn: eov_common::txn::TxnId) {
        let shard = self.router.shard_of(&key);
        self.cr[shard].record(key, seq, txn);
    }

    /// Drops committed readers of `key` made stale by a write at `seq`.
    pub fn drop_stale_readers(&mut self, key: &Key, seq: SeqNo) {
        let shard = self.router.shard_of(key);
        self.cr[shard].drop_stale_readers(key, seq);
    }

    /// Records a pending write of `key`.
    pub fn record_pw(&mut self, key: Key, txn: eov_common::txn::TxnId) {
        let shard = self.router.shard_of(&key);
        self.pw[shard].record(key, txn);
    }

    /// Records a pending read of `key`.
    pub fn record_pr(&mut self, key: Key, txn: eov_common::txn::TxnId) {
        let shard = self.router.shard_of(&key);
        self.pr[shard].record(key, txn);
    }

    /// Iterates over every `(shard, key, pending writers)` association of the PW indices (used
    /// by ww restoration, which sorts by key itself for determinism).
    pub fn iter_pw(&self) -> impl Iterator<Item = (usize, &Key, &[eov_common::txn::TxnId])> {
        self.pw
            .iter()
            .enumerate()
            .flat_map(|(shard, index)| index.iter().map(move |(key, txns)| (shard, key, txns)))
    }

    /// Clears the pending indices (block formation empties the pending set).
    pub fn clear_pending(&mut self) {
        for pw in &mut self.pw {
            pw.clear();
        }
        for pr in &mut self.pr {
            pr.clear();
        }
    }

    /// Removes a single transaction from every pending index shard.
    pub fn remove_pending_txn(&mut self, txn: eov_common::txn::TxnId) {
        for pw in &mut self.pw {
            pw.remove_txn(txn);
        }
        for pr in &mut self.pr {
            pr.remove_txn(txn);
        }
    }

    /// Prunes the committed indices below `horizon` (Section 4.6).
    pub fn prune_committed_below(&mut self, horizon: u64) {
        for cw in &mut self.cw {
            cw.prune_below(horizon);
        }
        for cr in &mut self.cr {
            cr.prune_below(horizon);
        }
    }

    /// Total committed-index entries across shards (diagnostics).
    pub fn committed_entry_count(&self) -> usize {
        self.cw.iter().map(CommittedWriteIndex::len).sum::<usize>()
            + self.cr.iter().map(CommittedReadIndex::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::txn::{Transaction, TxnId};

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// The sharded store must answer every read exactly like an unsharded store fed the same
    /// writes — the data-partition identity the determinism lattice builds on.
    #[test]
    fn sharded_reads_match_the_unsharded_reference() {
        let mut reference = MultiVersionStore::new();
        let mut sharded = ShardedStore::with_hash_shards(4);
        assert_eq!(sharded.shard_count(), 4);

        let genesis: Vec<(Key, Value)> = (0..40)
            .map(|i| (k(&format!("acct:{i}")), Value::from_i64(i)))
            .collect();
        reference.seed_genesis(genesis.clone());
        sharded.seed_genesis(genesis);

        for block in 1..=5u64 {
            let txn = Transaction::from_parts(
                block,
                block - 1,
                [],
                (0..10).map(|i| {
                    (
                        k(&format!("acct:{}", (block as usize * 7 + i) % 40)),
                        Value::from_i64(block as i64 * 100 + i as i64),
                    )
                }),
            );
            reference.apply_block(block, [(&txn, 1)]);
            sharded.apply_block(block, [(&txn, 1)]);
        }

        assert_eq!(sharded.last_block(), 5);
        assert_eq!(StateStore::key_count(&sharded), reference.key_count());
        assert_eq!(
            StateStore::version_count(&sharded),
            reference.version_count()
        );
        for i in 0..40 {
            let key = k(&format!("acct:{i}"));
            for block in 0..=5u64 {
                assert_eq!(
                    StateRead::read_at(&sharded, &key, block).unwrap(),
                    reference.read_at(&key, block).unwrap(),
                    "{key} @ {block}"
                );
            }
            assert_eq!(StateRead::latest(&sharded, &key), reference.latest(&key));
        }

        // Merged latest iteration walks keys in global order, like the reference BTreeMap.
        let merged: Vec<&Key> = sharded.iter_latest().map(|(key, _)| key).collect();
        let expected: Vec<&Key> = reference.iter_latest().map(|(key, _)| key).collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn pruning_fans_out_to_every_shard() {
        let mut sharded = ShardedStore::with_hash_shards(2);
        sharded.seed_genesis([(k("a"), Value::from_i64(0)), (k("b"), Value::from_i64(0))]);
        for block in 1..=4u64 {
            let txn = Transaction::from_parts(
                block,
                block - 1,
                [],
                [
                    (k("a"), Value::from_i64(block as i64)),
                    (k("b"), Value::from_i64(block as i64)),
                ],
            );
            sharded.apply_block(block, [(&txn, 1)]);
        }
        sharded.prune_versions_below(3);
        assert_eq!(sharded.pruned_below(), 3);
        assert!(StateRead::read_at(&sharded, &k("a"), 2).is_err());
        assert_eq!(
            StateRead::read_at(&sharded, &k("a"), 4)
                .unwrap()
                .unwrap()
                .value
                .as_i64(),
            Some(4)
        );
    }

    /// Per-key index answers must be identical to an unsharded index fed the same records.
    #[test]
    fn sharded_indices_answer_like_unsharded_ones() {
        let mut reference_cw = CommittedWriteIndex::new();
        let mut sharded = ShardedIndices::new(ShardRouter::hash(3));
        assert_eq!(sharded.shard_count(), 3);

        for i in 0..30u64 {
            let key = k(&format!("key:{}", i % 10));
            let seq = SeqNo::new(i / 10 + 1, (i % 10) as u32 + 1);
            reference_cw.record(key.clone(), seq, TxnId(i));
            sharded.record_cw(key, seq, TxnId(i));
        }
        for i in 0..10 {
            let key = k(&format!("key:{i}"));
            assert_eq!(sharded.cw(&key).last(&key), reference_cw.last(&key));
            let probe = SeqNo::new(2, 1);
            assert_eq!(
                sharded.cw(&key).before(&key, probe),
                reference_cw.before(&key, probe)
            );
            assert_eq!(
                sharded.cw(&key).from(&key, probe),
                reference_cw.from(&key, probe)
            );
        }

        sharded.record_pw(k("key:1"), TxnId(100));
        sharded.record_pr(k("key:2"), TxnId(101));
        assert_eq!(sharded.pw(&k("key:1")).get(&k("key:1")), &[TxnId(100)]);
        assert_eq!(sharded.iter_pw().count(), 1);
        sharded.remove_pending_txn(TxnId(100));
        assert_eq!(sharded.iter_pw().count(), 0);
        assert_eq!(sharded.pr(&k("key:2")).get(&k("key:2")), &[TxnId(101)]);
        sharded.clear_pending();
        assert!(sharded.pr(&k("key:2")).get(&k("key:2")).is_empty());

        let before = sharded.committed_entry_count();
        sharded.prune_committed_below(100);
        assert!(sharded.committed_entry_count() < before);
    }
}

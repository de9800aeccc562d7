//! Committed-transaction indices: `CommittedWriteTxns` (CW) and `CommittedReadTxns` (CR).
//!
//! Section 4.3 of the paper introduces two multi-versioned storages kept by each orderer to
//! resolve dependencies against *committed* transactions:
//!
//! * **CW** maps `key ++ commit-seq → txn` for every committed write, so that the orderer can
//!   answer `CW.Before(key, seq)` (the last committed writer of `key` before `seq`),
//!   `CW.Last(key)` (the last committed writer overall) and the range query `CW[key][seq:]`
//!   (every committed writer of `key` from `seq` onward — these are the anti-rw candidates).
//! * **CR** maps `key ++ commit-seq → txn` for committed transactions that read the latest
//!   value of `key`; `CR[key]` enumerates the committed readers whose reads a new writer of
//!   `key` would invalidate (rw dependencies).
//!
//! The paper stores both in LevelDB, placing the record key before the commit sequence so that
//! point and range queries are efficient. A `BTreeMap<(Key, SeqNo), TxnId>` provides the same
//! ordered-prefix query surface; this is the documented LevelDB substitution.
//!
//! [`DependencyIndices`] bundles CW and CR with the pending indices PW/PR
//! ([`crate::pending`]): the one index set the orderer resolves every arrival against.

use crate::pending::PendingIndex;
use eov_common::rwset::Key;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Index over committed writes: `(key, commit seq) → writer`.
#[derive(Clone, Debug, Default)]
pub struct CommittedWriteIndex {
    entries: BTreeMap<(Key, SeqNo), TxnId>,
}

impl CommittedWriteIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `txn`, committed at `seq`, wrote `key`.
    pub fn record(&mut self, key: Key, seq: SeqNo, txn: TxnId) {
        self.entries.insert((key, seq), txn);
    }

    /// `CW.Before(key, seq)`: the last committed transaction that updated `key` with a commit
    /// sequence strictly earlier than `seq`.
    pub fn before(&self, key: &Key, seq: SeqNo) -> Option<TxnId> {
        self.entries
            .range((
                Bound::Included((key.clone(), SeqNo::zero())),
                Bound::Excluded((key.clone(), seq)),
            ))
            .next_back()
            .map(|(_, txn)| *txn)
    }

    /// `CW.Last(key)`: the last committed transaction that updated `key`, if any.
    pub fn last(&self, key: &Key) -> Option<TxnId> {
        self.entries
            .range((
                Bound::Included((key.clone(), SeqNo::zero())),
                Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
            ))
            .next_back()
            .map(|(_, txn)| *txn)
    }

    /// `CW[key][seq:]`: every committed transaction that updated `key` with a commit sequence
    /// at or after `seq`, in commit order.
    pub fn from(&self, key: &Key, seq: SeqNo) -> Vec<TxnId> {
        self.entries
            .range((
                Bound::Included((key.clone(), seq)),
                Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
            ))
            .map(|(_, txn)| *txn)
            .collect()
    }

    /// Every committed writer of `key` in commit order (used by tests and diagnostics).
    pub fn all(&self, key: &Key) -> Vec<(SeqNo, TxnId)> {
        self.entries
            .range((
                Bound::Included((key.clone(), SeqNo::zero())),
                Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
            ))
            .map(|((_, seq), txn)| (*seq, *txn))
            .collect()
    }

    /// Drops every entry whose commit block is strictly below `block` (Section 4.6 pruning).
    /// Returns the number of entries removed.
    pub fn prune_below(&mut self, block: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, seq), _| seq.block >= block);
        before - self.entries.len()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Index over committed reads: `(key, commit seq) → reader`.
///
/// Only reads of the *latest* value of a key are recorded (as in the paper's example entry
/// `{A_4_1 : Txn7}`): once a later transaction overwrites the key, new readers of the old
/// value would already fail validation, so they never reach the index.
#[derive(Clone, Debug, Default)]
pub struct CommittedReadIndex {
    entries: BTreeMap<(Key, SeqNo), TxnId>,
}

impl CommittedReadIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `txn`, committed at `seq`, read the latest value of `key`.
    pub fn record(&mut self, key: Key, seq: SeqNo, txn: TxnId) {
        self.entries.insert((key, seq), txn);
    }

    /// `CR[key]`: every committed transaction recorded as a reader of `key`, in commit order.
    pub fn readers(&self, key: &Key) -> Vec<TxnId> {
        self.entries
            .range((
                Bound::Included((key.clone(), SeqNo::zero())),
                Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
            ))
            .map(|(_, txn)| *txn)
            .collect()
    }

    /// Readers of `key` with commit sequence at or after `seq`.
    pub fn readers_from(&self, key: &Key, seq: SeqNo) -> Vec<TxnId> {
        self.entries
            .range((
                Bound::Included((key.clone(), seq)),
                Bound::Included((key.clone(), SeqNo::new(u64::MAX, u32::MAX))),
            ))
            .map(|(_, txn)| *txn)
            .collect()
    }

    /// Drops readers of `key` that observed values older than the newest committed write, i.e.
    /// entries whose commit sequence is at or before `overwritten_at`. Called when a new write
    /// to `key` commits so the index only tracks readers of the latest value.
    pub fn drop_stale_readers(&mut self, key: &Key, overwritten_at: SeqNo) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|(k, seq), _| k != key || *seq > overwritten_at);
        before - self.entries.len()
    }

    /// Drops every entry whose commit block is strictly below `block` (Section 4.6 pruning).
    /// Returns the number of entries removed.
    pub fn prune_below(&mut self, block: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, seq), _| seq.block >= block);
        before - self.entries.len()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The four dependency-resolution indices of Section 4.3 — CW, CR, PW and PR — that the
/// orderer resolves every arrival against and updates at every block cut.
#[derive(Clone, Debug, Default)]
pub struct DependencyIndices {
    /// Committed writes.
    pub cw: CommittedWriteIndex,
    /// Committed reads of the latest value.
    pub cr: CommittedReadIndex,
    /// Pending writes.
    pub pw: PendingIndex,
    /// Pending reads.
    pub pr: PendingIndex,
}

impl DependencyIndices {
    /// Creates empty indices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the pending indices (block formation empties the pending set).
    pub fn clear_pending(&mut self) {
        self.pw.clear();
        self.pr.clear();
    }

    /// Removes a single transaction from both pending indices.
    pub fn remove_pending_txn(&mut self, txn: TxnId) {
        self.pw.remove_txn(txn);
        self.pr.remove_txn(txn);
    }

    /// Prunes the committed indices below `horizon` (Section 4.6).
    pub fn prune_committed_below(&mut self, horizon: u64) {
        self.cw.prune_below(horizon);
        self.cr.prune_below(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    #[test]
    fn cw_point_queries_match_paper_examples() {
        // Paper example: Txn1 with commit sequence (3,2) writes key A → entry {A_3_2: Txn1}.
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("A"), SeqNo::new(3, 2), TxnId(1));
        cw.record(k("A"), SeqNo::new(5, 1), TxnId(9));
        cw.record(k("B"), SeqNo::new(4, 1), TxnId(3));

        assert_eq!(cw.last(&k("A")), Some(TxnId(9)));
        assert_eq!(cw.last(&k("B")), Some(TxnId(3)));
        assert_eq!(cw.last(&k("C")), None);

        // Before(key, seq) is strict: a write at exactly `seq` is not "before" it.
        assert_eq!(cw.before(&k("A"), SeqNo::new(5, 1)), Some(TxnId(1)));
        assert_eq!(cw.before(&k("A"), SeqNo::new(3, 2)), None);
        assert_eq!(cw.before(&k("A"), SeqNo::new(9, 0)), Some(TxnId(9)));
    }

    #[test]
    fn cw_range_from_returns_commit_ordered_writers() {
        let mut cw = CommittedWriteIndex::new();
        for (block, txn) in [(2u64, 1u64), (3, 2), (4, 3), (6, 4)] {
            cw.record(k("A"), SeqNo::new(block, 1), TxnId(txn));
        }
        // CW[A][(4,0):] — writers from block 4 onward.
        assert_eq!(cw.from(&k("A"), SeqNo::new(4, 0)), vec![TxnId(3), TxnId(4)]);
        // Keys never bleed into each other.
        cw.record(k("AB"), SeqNo::new(1, 1), TxnId(99));
        assert_eq!(cw.from(&k("A"), SeqNo::new(0, 0)).len(), 4);
        assert_eq!(cw.all(&k("A")).len(), 4);
    }

    #[test]
    fn cw_pruning_removes_old_blocks_only() {
        let mut cw = CommittedWriteIndex::new();
        cw.record(k("A"), SeqNo::new(1, 1), TxnId(1));
        cw.record(k("A"), SeqNo::new(5, 1), TxnId(2));
        let removed = cw.prune_below(3);
        assert_eq!(removed, 1);
        assert_eq!(cw.last(&k("A")), Some(TxnId(2)));
        assert_eq!(cw.len(), 1);
        assert!(!cw.is_empty());
    }

    #[test]
    fn cr_readers_and_stale_dropping() {
        // Paper example: {A_4_1: Txn7} — Txn7 is the first transaction of block 4 reading the
        // latest value of A.
        let mut cr = CommittedReadIndex::new();
        cr.record(k("A"), SeqNo::new(4, 1), TxnId(7));
        cr.record(k("A"), SeqNo::new(4, 3), TxnId(8));
        cr.record(k("B"), SeqNo::new(4, 2), TxnId(9));

        assert_eq!(cr.readers(&k("A")), vec![TxnId(7), TxnId(8)]);
        assert_eq!(cr.readers_from(&k("A"), SeqNo::new(4, 2)), vec![TxnId(8)]);

        // A new write to A committed at (5,1): readers of the previous value are dropped.
        let dropped = cr.drop_stale_readers(&k("A"), SeqNo::new(5, 1));
        assert_eq!(dropped, 2);
        assert!(cr.readers(&k("A")).is_empty());
        assert_eq!(cr.readers(&k("B")), vec![TxnId(9)]);
    }

    #[test]
    fn cr_pruning() {
        let mut cr = CommittedReadIndex::new();
        cr.record(k("A"), SeqNo::new(1, 1), TxnId(1));
        cr.record(k("A"), SeqNo::new(9, 1), TxnId(2));
        assert_eq!(cr.prune_below(5), 1);
        assert_eq!(cr.len(), 1);
        assert!(!cr.is_empty());
    }

    #[test]
    fn dependency_indices_clear_pending_and_prune_committed() {
        let mut indices = DependencyIndices::new();
        indices.cw.record(k("A"), SeqNo::new(1, 1), TxnId(1));
        indices.cr.record(k("A"), SeqNo::new(1, 2), TxnId(2));
        indices.cw.record(k("B"), SeqNo::new(6, 1), TxnId(3));
        indices.pw.record(k("A"), TxnId(100));
        indices.pr.record(k("B"), TxnId(101));
        indices.pr.record(k("C"), TxnId(100));

        // Withdrawing a pending transaction clears it from PW and PR alike.
        indices.remove_pending_txn(TxnId(100));
        assert!(indices.pw.get(&k("A")).is_empty());
        assert!(indices.pr.get(&k("C")).is_empty());
        assert_eq!(indices.pr.get(&k("B")), &[TxnId(101)]);
        indices.clear_pending();
        assert!(indices.pr.get(&k("B")).is_empty());

        // Pruning drops committed entries below the horizon only.
        indices.prune_committed_below(5);
        assert_eq!(indices.cw.last(&k("A")), None);
        assert!(indices.cr.is_empty());
        assert_eq!(indices.cw.last(&k("B")), Some(TxnId(3)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `before`, `last` and `from` always agree with a brute-force scan over the inserted
        /// entries.
        #[test]
        fn cw_queries_match_brute_force(
            entries in proptest::collection::vec((0u8..5, 1u64..8, 1u32..4, 0u64..50), 0..40),
            probe_key in 0u8..5,
            probe_seq in (1u64..8, 1u32..4),
        ) {
            let mut cw = CommittedWriteIndex::new();
            // Deduplicate identical (key, seq) pairs the same way the BTreeMap would (last wins).
            let mut model: Vec<(u8, SeqNo, TxnId)> = Vec::new();
            for (key, block, seq, txn) in entries {
                let s = SeqNo::new(block, seq);
                cw.record(Key::new(format!("k{key}")), s, TxnId(txn));
                model.retain(|(mk, ms, _)| !(*mk == key && *ms == s));
                model.push((key, s, TxnId(txn)));
            }
            model.sort_by_key(|(k, s, _)| (*k, *s));

            let key = Key::new(format!("k{probe_key}"));
            let seq = SeqNo::new(probe_seq.0, probe_seq.1);

            let brute_before = model.iter().filter(|(k, s, _)| *k == probe_key && *s < seq).map(|(_, _, t)| *t).next_back();
            prop_assert_eq!(cw.before(&key, seq), brute_before);

            let brute_last = model.iter().filter(|(k, _, _)| *k == probe_key).map(|(_, _, t)| *t).next_back();
            prop_assert_eq!(cw.last(&key), brute_last);

            let brute_from: Vec<TxnId> = model.iter().filter(|(k, s, _)| *k == probe_key && *s >= seq).map(|(_, _, t)| *t).collect();
            prop_assert_eq!(cw.from(&key, seq), brute_from);
        }
    }
}

//! Algorithm 1 — snapshot-consistent contract simulation (the execute phase).
//!
//! An endorsing peer fetches the number of the last committed block, simulates the contract
//! invocation against that block's snapshot, and returns the readset, the writeset and the
//! snapshot block number. Unlike vanilla Fabric, no read-write lock is held against the commit
//! path: the multi-version store serves the frozen snapshot while validation keeps committing
//! new blocks (Section 4.2), at the price of possibly producing a transaction whose snapshot
//! is already a few blocks behind by the time it reaches the orderer.

use eov_common::rwset::{Key, ReadSet, Value, WriteSet};
use eov_common::txn::{Transaction, TxnId};
#[cfg(test)]
use eov_vstore::MultiVersionStore;
use eov_vstore::{SnapshotManager, SnapshotView, StateRead};

/// The mutable effects a contract accumulates while simulating: reads (with observed versions)
/// and buffered writes. Writes are visible to subsequent reads *within the same simulation*
/// (read-your-own-writes), matching chaincode semantics.
#[derive(Debug, Default)]
pub struct TxnEffects {
    reads: ReadSet,
    writes: WriteSet,
}

impl TxnEffects {
    /// Records a write of `value` to `key`.
    pub fn write(&mut self, key: Key, value: Value) {
        self.writes.record(key, value);
    }

    /// The readset accumulated so far.
    pub fn reads(&self) -> &ReadSet {
        &self.reads
    }

    /// The writeset accumulated so far.
    pub fn writes(&self) -> &WriteSet {
        &self.writes
    }
}

/// A contract execution context handed to the simulation closure: snapshot reads plus buffered
/// writes.
pub struct SimulationContext<'a> {
    view: SnapshotView<'a>,
    effects: &'a mut TxnEffects,
}

impl<'a> SimulationContext<'a> {
    /// Reads `key`, observing the buffered write if the simulation already wrote it, otherwise
    /// the snapshot value. Snapshot reads are recorded into the readset.
    pub fn read(&mut self, key: &Key) -> Option<Value> {
        if let Some(v) = self.effects.writes.value_of(key) {
            return Some(v.clone());
        }
        self.view
            .read_recording(key, &mut self.effects.reads)
            .expect("snapshot pinned for the duration of the simulation")
    }

    /// Reads `key` as an `i64` balance, defaulting to 0 when absent (Smallbank convention).
    pub fn read_balance(&mut self, key: &Key) -> i64 {
        self.read(key).and_then(|v| v.as_i64()).unwrap_or(0)
    }

    /// Buffers a write of `value` to `key`.
    pub fn write(&mut self, key: Key, value: Value) {
        self.effects.write(key, value);
    }

    /// The snapshot block this simulation runs against.
    pub fn snapshot_block(&self) -> u64 {
        self.view.block()
    }
}

/// The endorsing peer's simulation entry point.
///
/// Cloning is cheap: the snapshot manager is shared behind an `Arc` with the commit path,
/// which registers each new block on it.
#[derive(Clone, Debug)]
pub struct SnapshotEndorser {
    snapshots: SnapshotManager,
}

impl SnapshotEndorser {
    /// Creates an endorser sharing the given snapshot manager with the commit path.
    pub fn new(snapshots: SnapshotManager) -> Self {
        SnapshotEndorser { snapshots }
    }

    /// The shared snapshot manager (used by the commit path to register new blocks).
    pub fn snapshots(&self) -> &SnapshotManager {
        &self.snapshots
    }

    /// Algorithm 1: simulates `logic` against the latest snapshot of `store` and packages the
    /// result as an endorsed transaction with the given id. Accepts any [`StateRead`] backend
    /// — the unsharded store or the key-space sharded one — which both serve identical
    /// snapshot reads for the same committed writes.
    pub fn simulate<S, F>(&self, store: &S, id: TxnId, logic: F) -> Transaction
    where
        S: StateRead,
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let block = self.snapshots.pin_latest();
        let txn = self.simulate_at(store, id, block, logic);
        self.snapshots.unpin(block);
        txn
    }

    /// Simulates against an explicit snapshot block — used by tests and by the simulator when
    /// it needs to model a stale snapshot (e.g. a long-running simulation that started several
    /// blocks ago).
    pub fn simulate_at<S, F>(
        &self,
        store: &S,
        id: TxnId,
        snapshot_block: u64,
        logic: F,
    ) -> Transaction
    where
        S: StateRead,
        F: FnOnce(&mut SimulationContext<'_>),
    {
        let mut effects = TxnEffects::default();
        {
            let mut ctx = SimulationContext {
                view: SnapshotView::new(store, snapshot_block),
                effects: &mut effects,
            };
            logic(&mut ctx);
        }
        Transaction::new(id, snapshot_block, effects.reads, effects.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::version::SeqNo;

    fn setup() -> (MultiVersionStore, SnapshotEndorser) {
        let mut store = MultiVersionStore::new();
        store.seed_genesis([
            (Key::new("alice"), Value::from_i64(100)),
            (Key::new("bob"), Value::from_i64(50)),
        ]);
        let mgr = SnapshotManager::new();
        mgr.register_block(0);
        (store, SnapshotEndorser::new(mgr))
    }

    #[test]
    fn simulation_produces_read_and_write_sets() {
        let (store, endorser) = setup();
        let txn = endorser.simulate(&store, TxnId(1), |ctx| {
            let a = ctx.read_balance(&Key::new("alice"));
            let b = ctx.read_balance(&Key::new("bob"));
            ctx.write(Key::new("alice"), Value::from_i64(a - 10));
            ctx.write(Key::new("bob"), Value::from_i64(b + 10));
        });
        assert_eq!(txn.snapshot_block, 0);
        assert_eq!(txn.read_set.len(), 2);
        assert_eq!(
            txn.read_set.version_of(&Key::new("alice")),
            Some(SeqNo::new(0, 1))
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("alice")).unwrap().as_i64(),
            Some(90)
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("bob")).unwrap().as_i64(),
            Some(60)
        );
    }

    #[test]
    fn read_your_own_writes_within_a_simulation() {
        let (store, endorser) = setup();
        let txn = endorser.simulate(&store, TxnId(2), |ctx| {
            ctx.write(Key::new("counter"), Value::from_i64(1));
            let v = ctx.read_balance(&Key::new("counter"));
            ctx.write(Key::new("counter"), Value::from_i64(v + 1));
        });
        // The buffered read does not touch the snapshot, so the readset stays empty.
        assert!(txn.read_set.is_empty());
        assert_eq!(
            txn.write_set
                .value_of(&Key::new("counter"))
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn simulation_uses_the_latest_registered_snapshot() {
        let (mut store, endorser) = setup();
        // Commit block 1 updating alice, register the snapshot.
        let writer = Transaction::from_parts(9, 0, [], [(Key::new("alice"), Value::from_i64(999))]);
        store.apply_block(1, [(&writer, 1)]);
        endorser.snapshots().register_block(1);

        let txn = endorser.simulate(&store, TxnId(3), |ctx| {
            let a = ctx.read_balance(&Key::new("alice"));
            ctx.write(Key::new("alice"), Value::from_i64(a));
        });
        assert_eq!(txn.snapshot_block, 1);
        assert_eq!(
            txn.read_set.version_of(&Key::new("alice")),
            Some(SeqNo::new(1, 1))
        );
        assert_eq!(
            txn.write_set.value_of(&Key::new("alice")).unwrap().as_i64(),
            Some(999)
        );
    }

    #[test]
    fn simulate_at_reads_old_snapshots() {
        let (mut store, endorser) = setup();
        let writer = Transaction::from_parts(9, 0, [], [(Key::new("alice"), Value::from_i64(999))]);
        store.apply_block(1, [(&writer, 1)]);
        endorser.snapshots().register_block(1);

        // Simulating against block 0 still sees the genesis value — that is exactly the stale
        // snapshot scenario the client-delay / read-interval experiments create.
        let txn = endorser.simulate_at(&store, TxnId(4), 0, |ctx| {
            let a = ctx.read_balance(&Key::new("alice"));
            ctx.write(Key::new("alice"), Value::from_i64(a + 1));
        });
        assert_eq!(txn.snapshot_block, 0);
        assert_eq!(
            txn.write_set.value_of(&Key::new("alice")).unwrap().as_i64(),
            Some(101)
        );
    }

    #[test]
    fn missing_keys_read_as_default_balance() {
        let (store, endorser) = setup();
        let txn = endorser.simulate(&store, TxnId(5), |ctx| {
            let v = ctx.read_balance(&Key::new("nobody"));
            ctx.write(Key::new("nobody"), Value::from_i64(v + 5));
        });
        assert_eq!(
            txn.read_set.version_of(&Key::new("nobody")),
            Some(SeqNo::zero())
        );
        assert_eq!(
            txn.write_set
                .value_of(&Key::new("nobody"))
                .unwrap()
                .as_i64(),
            Some(5)
        );
    }
}

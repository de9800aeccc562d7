//! Serial commit semantics for one delivered block — the validate phase of the EOV pipeline.
//!
//! These routines are the *reference* committer: transactions are validated and applied
//! strictly in block order against the `StateStore` surface, which is what defines the
//! bit-exact ledger and store state every other commit path must reproduce. The parallel
//! commit scheduler ([`crate::scheduler`]) executes conflict-free waves concurrently but is
//! proven (and tested) to produce byte-identical results to these functions; the baselines
//! crate re-exports them so the five systems and the chain facade share one implementation.

use eov_common::abort::AbortReason;
use eov_common::txn::{Transaction, TxnStatus};
use eov_common::version::SeqNo;
use eov_vstore::{StateRead, StateStore};
use std::collections::HashSet;

/// Peer-side validation of a delivered block (the validate phase of the EOV pipeline), shared
/// by every system that needs it.
///
/// Transactions are validated *serially in block order*: a transaction is valid iff every key
/// it read still carries the version it observed, taking into account the writes of valid
/// transactions earlier in the same block. Valid transactions immediately apply their writes
/// to the store at version `(block_no, slot)`. The store's height advances to `block_no`
/// regardless, so later snapshots exist even for blocks whose transactions all aborted.
pub fn mvcc_validate_and_apply<S: StateStore>(
    store: &mut S,
    block_no: u64,
    txns: &[Transaction],
) -> Vec<TxnStatus> {
    let mut statuses = Vec::with_capacity(txns.len());
    for (i, txn) in txns.iter().enumerate() {
        let slot = i as u32 + 1;
        let stale = txn.read_set.iter().any(|read| {
            let latest = store
                .latest(&read.key)
                .map(|vv| vv.version)
                .unwrap_or(SeqNo::zero());
            latest != read.version
        });
        if stale {
            statuses.push(TxnStatus::Aborted(AbortReason::StaleRead));
        } else {
            for write in txn.write_set.iter() {
                store.put(
                    write.key.clone(),
                    SeqNo::new(block_no, slot),
                    write.value.clone(),
                );
            }
            statuses.push(TxnStatus::Committed);
        }
    }
    store.commit_empty_block(block_no);
    statuses
}

/// Applies every transaction of a block without validation (used for FabricSharp, whose
/// ordering already guarantees serializability). Writes are installed in block order.
pub fn apply_without_validation<S: StateStore>(
    store: &mut S,
    block_no: u64,
    txns: &[Transaction],
) -> Vec<TxnStatus> {
    for (i, txn) in txns.iter().enumerate() {
        for write in txn.write_set.iter() {
            store.put(
                write.key.clone(),
                SeqNo::new(block_no, i as u32 + 1),
                write.value.clone(),
            );
        }
    }
    store.commit_empty_block(block_no);
    vec![TxnStatus::Committed; txns.len()]
}

/// How many transactions in a block (about to be committed) read a version that is no longer
/// the latest — i.e. commits that tolerate an anti-rw dependency. Evaluated serially in block
/// order against the pre-block state plus earlier in-block writes, exactly like the MVCC check
/// would be. Feeds the Figure 5 "commits a Strong-Serializability system would abort" metric.
pub fn count_anti_rw_commits<S: StateRead>(store: &S, txns: &[Transaction]) -> u64 {
    let mut in_block_writes: HashSet<&str> = HashSet::new();
    let mut count = 0;
    for txn in txns {
        let stale = txn.read_set.iter().any(|read| {
            let overwritten_in_block = in_block_writes.contains(read.key.as_str());
            let latest = store
                .latest(&read.key)
                .map(|vv| vv.version)
                .unwrap_or(SeqNo::zero());
            overwritten_in_block || latest != read.version
        });
        if stale {
            count += 1;
        }
        for write in txn.write_set.iter() {
            in_block_writes.insert(write.key.as_str());
        }
    }
    count
}

/// Outcome of validating and applying one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Final status of every transaction, in block order.
    pub statuses: Vec<TxnStatus>,
    /// Transactions that committed while reading a version that was no longer the latest
    /// (anti-rw tolerance; only meaningful for systems that skip peer validation).
    pub anti_rw_commits: u64,
}

/// The complete validator/committer step for one block, the serial reference the commit
/// scheduler runs at `E = 0`: counts anti-rw-tolerant commits against the pre-block state,
/// then either MVCC-validates (the baselines) or applies unconditionally (FabricSharp).
pub fn commit_block<S: StateStore>(
    store: &mut S,
    block_no: u64,
    txns: &[Transaction],
    needs_validation: bool,
) -> CommitOutcome {
    let anti_rw_commits = count_anti_rw_commits(store, txns);
    let statuses = if needs_validation {
        mvcc_validate_and_apply(store, block_no, txns)
    } else {
        apply_without_validation(store, block_no, txns)
    };
    CommitOutcome {
        statuses,
        anti_rw_commits,
    }
}

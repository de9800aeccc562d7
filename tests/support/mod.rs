//! Helpers shared by the integration batteries: ledger prefixes, scratch directories, the
//! first-divergence ledger comparison and the recovered-controller equivalence check.
//!
//! Each test binary that declares `mod support;` uses a subset of these.
#![allow(dead_code)]

use fabricsharp::common::txn::Transaction;
use fabricsharp::core::FabricSharpCC;
use fabricsharp::ledger::Ledger;
use std::path::PathBuf;

/// The first `height` blocks of `ledger` as a standalone ledger (a crash point).
pub fn prefix_of(ledger: &Ledger, height: u64) -> Ledger {
    let mut prefix = Ledger::new();
    for block in ledger.iter().take(height as usize) {
        prefix.append(block.clone()).expect("prefix blocks chain");
    }
    prefix
}

/// A fresh, empty scratch directory path, unique per process and thread.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eov-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Names the first place `actual` departs from `expected`: the block, the entry index, the
/// transaction id, and whether the transaction, its status or the block header differs.
/// `None` when the two ledgers hold the same blocks.
pub fn first_divergence(expected: &Ledger, actual: &Ledger) -> Option<String> {
    for (want, got) in expected.iter().zip(actual.iter()) {
        let block = want.number();
        for (index, (e, a)) in want.entries.iter().zip(&got.entries).enumerate() {
            let id = e.txn.id;
            let what = if e.txn.id != a.txn.id {
                format!("txn differs: expected {id:?}, found {:?}", a.txn.id)
            } else if e.txn != a.txn || e.slot != a.slot {
                format!("txn differs: expected {:?}, found {:?}", e, a)
            } else if e.status != a.status {
                format!(
                    "status differs: expected {:?}, found {:?}",
                    e.status, a.status
                )
            } else {
                continue;
            };
            return Some(format!("block {block}, entry {index} (txn {id:?}): {what}"));
        }
        if want.entries.len() != got.entries.len() {
            return Some(format!(
                "block {block}: {} entries expected, {} found",
                want.entries.len(),
                got.entries.len()
            ));
        }
        if want.header != got.header {
            return Some(format!(
                "block {block}: header differs: expected {:?}, found {:?}",
                want.header, got.header
            ));
        }
    }
    (expected.height() != actual.height()).then(|| {
        format!(
            "heights differ: expected {}, found {}",
            expected.height(),
            actual.height()
        )
    })
}

/// Panics with the first divergence (see [`first_divergence`]) unless the ledgers match
/// block for block.
pub fn assert_ledgers_match(context: &str, expected: &Ledger, actual: &Ledger) {
    if let Some(divergence) = first_divergence(expected, actual) {
        panic!("{context}: ledger diverged at {divergence}");
    }
}

/// Asserts two recovered controllers are equivalent: same resume block, same verdicts on
/// the same fresh arrivals, and the same next cut.
pub fn assert_controllers_equivalent(
    mut candidate: FabricSharpCC,
    mut reference: FabricSharpCC,
    probes: impl IntoIterator<Item = Transaction>,
    context: &str,
) {
    assert_eq!(
        candidate.next_block(),
        reference.next_block(),
        "{context}: resume block"
    );
    for (i, probe) in probes.into_iter().enumerate() {
        let d_candidate = candidate.on_arrival(probe.clone()).is_accept();
        let d_reference = reference.on_arrival(probe).is_accept();
        assert_eq!(d_candidate, d_reference, "{context}: probe {i} diverged");
    }
    assert_eq!(
        candidate.cut_block(),
        reference.cut_block(),
        "{context}: post-recovery cut diverged"
    );
}

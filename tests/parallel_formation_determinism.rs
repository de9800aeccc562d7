//! Determinism harness for block formation over the shard-partitioned dependency graph.
//!
//! With `S = CcConfig::store_shards > 0` the orderer forms blocks over per-shard dependency
//! graphs behind the cross-shard coordinator: border node-copy inserts on arrival, per-shard
//! topo sorts, ww-chain restoration and pruning. Formation runs inline, one sequential step
//! per block; the surviving thread knob is block commit's `E = CcConfig::execution_threads`.
//! This battery pins the hard invariant: ledgers, stores, commit orders and cycle verdicts
//! must be **bit-identical** to the inline unsharded serial reference at every tested `S` ×
//! `E` combination, for all five systems, multiple seeds, and workloads engineered for
//! maximal cross-shard pressure.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::core::serializability::is_serializable;
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::sim::SimReport;
use fabricsharp::vstore::StateRead;
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;

const SHARD_COUNTS: [usize; 3] = [0, 2, 4];
const THREAD_COUNTS: [usize; 2] = [0, 2];
const SEEDS: [u64; 3] = [1, 7, 42];

fn workloads() -> Vec<(&'static str, WorkloadKind)> {
    vec![
        ("modified-smallbank", WorkloadKind::ModifiedSmallbank),
        // Every transaction touches several shards: the worst case for the coordinator.
        (
            "ycsb-f-cross100",
            WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0)),
        ),
    ]
}

fn base_config(system: SystemKind, workload: WorkloadKind, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::new(system, workload);
    config.duration_s = 1.2;
    config.params.num_accounts = 400;
    config.params.request_rate_tps = 400;
    config.block.max_txns_per_block = 40;
    config.seed = seed;
    config
}

fn assert_reports_match(context: &str, reference: &SimReport, candidate: &SimReport) {
    assert_eq!(reference.offered, candidate.offered, "{context}: offered");
    assert_eq!(
        reference.committed, candidate.committed,
        "{context}: committed"
    );
    assert_eq!(
        reference.in_ledger, candidate.in_ledger,
        "{context}: in_ledger"
    );
    assert_eq!(reference.blocks, candidate.blocks, "{context}: blocks");
    // Abort counts by reason pin the cycle verdicts (including bloom false positives): a
    // single divergent verdict shifts a reason bucket.
    assert_eq!(reference.aborts, candidate.aborts, "{context}: aborts");
    assert_eq!(
        reference.committed_with_anti_rw, candidate.committed_with_anti_rw,
        "{context}: anti-rw commits"
    );
}

/// The acceptance criterion: for every system × workload × seed, every `S` × `E` combination
/// reproduces the inline unsharded serial reference ledger block for block, hash for hash,
/// and ends with the same store contents.
#[test]
fn ledgers_are_bit_identical_at_every_shard_and_thread_count() {
    for system in SystemKind::all() {
        for (name, workload) in workloads() {
            for seed in SEEDS {
                let reference_cfg = base_config(system, workload.clone(), seed);
                let (reference_report, reference_ledger, reference_store) =
                    Simulator::run_full(&reference_cfg);
                assert!(
                    reference_report.committed > 0,
                    "{system}/{name}/seed{seed}: reference run must commit work"
                );

                for shards in SHARD_COUNTS {
                    for threads in THREAD_COUNTS {
                        if shards == 0 && threads == 0 {
                            continue; // that is the reference itself
                        }
                        let mut cfg = reference_cfg.clone();
                        cfg.cc.store_shards = shards;
                        cfg.cc.execution_threads = threads;
                        let (report, ledger, store) = Simulator::run_full(&cfg);
                        let context = format!("{system}/{name}/seed{seed}/S{shards}/E{threads}");

                        assert_reports_match(&context, &reference_report, &report);
                        assert_eq!(
                            reference_ledger.height(),
                            ledger.height(),
                            "{context}: ledger height"
                        );
                        for (expected, actual) in reference_ledger.iter().zip(ledger.iter()) {
                            assert_eq!(
                                expected,
                                actual,
                                "{context}: block {} diverged",
                                expected.number()
                            );
                        }
                        assert_eq!(
                            reference_ledger.tip_hash(),
                            ledger.tip_hash(),
                            "{context}: tip hash"
                        );
                        assert!(ledger.verify_integrity().is_ok(), "{context}: integrity");
                        assert_eq!(
                            reference_store.last_block(),
                            store.last_block(),
                            "{context}: store height"
                        );
                        assert_eq!(
                            reference_store.histories(),
                            store.histories(),
                            "{context}: store contents"
                        );
                    }
                }
            }
        }
    }
}

/// Transaction-level pinning under 100% cross-shard traffic: every submission's decision
/// (accept, or reject with the *same* abort reason — i.e. the same cycle verdict, bloom false
/// positives included), every block's commit order, and the chain hashes must agree between
/// the inline unsharded chain and the four-shard chain. FabricSharp peers skip MVCC
/// validation, so the serializability oracle on the sharded chain's history is the
/// end-to-end safety check.
#[test]
fn decisions_commit_orders_and_verdicts_match_under_full_cross_shard_pressure() {
    let workload = WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0));
    let params = WorkloadParams {
        num_accounts: 12,
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(workload, params, 99);

    let mut reference = SimpleChain::new(SystemKind::FabricSharp);
    let mut sharded = SimpleChain::with_cc_config(
        SystemKind::FabricSharp,
        CcConfig {
            store_shards: 4,
            ..CcConfig::default()
        },
    );
    for chain in [&mut reference, &mut sharded] {
        chain.seed(generator.genesis());
    }

    for i in 0..160usize {
        let template = generator.next_template();
        let txn_ref = reference.execute(|ctx| template.run(ctx));
        let txn_sharded = sharded.execute(|ctx| template.run(ctx));
        assert_eq!(txn_ref, txn_sharded, "endorsement diverged at txn {i}");

        let d_ref = reference.submit(txn_ref);
        let d_sharded = sharded.submit(txn_sharded);
        assert_eq!(d_ref, d_sharded, "decision diverged at txn {i} (S4)");

        if (i + 1) % 10 == 0 {
            let b_ref = reference.seal_block();
            let b_sharded = sharded.seal_block();
            assert_eq!(
                b_ref.committed, b_sharded.committed,
                "commit order diverged at block {:?} (S4)",
                b_ref.block_number
            );
            assert!(
                is_serializable(sharded.committed_history()),
                "history became non-serializable after block {:?}",
                b_sharded.block_number
            );
        }
    }
    for chain in [&mut reference, &mut sharded] {
        chain.seal_block();
    }
    assert!(is_serializable(sharded.committed_history()));
    assert_eq!(reference.ledger().tip_hash(), sharded.ledger().tip_hash());
    assert!(sharded.ledger().verify_integrity().is_ok());
    assert!(
        sharded.ledger().committed_txn_count() > 0,
        "cross-shard traffic must commit"
    );
    assert_eq!(
        reference.early_aborted(),
        sharded.early_aborted(),
        "early-abort sequences (cycle verdicts) must be identical"
    );
}

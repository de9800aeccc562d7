//! Determinism harness for key-space sharding.
//!
//! The sharded engine (partitioned multi-version store, partitioned CW/CR/PW/PR indices,
//! per-shard dependency graphs behind the cross-shard coordinator) must be *observably
//! identical* to the unsharded reference: same seed → same ledger, block for block, hash for
//! hash, for every shard count. This is the replication requirement of Section 3.5 extended
//! to store/graph shards, including workloads engineered to maximise cross-shard (border)
//! transactions. Every grid point asserts ledger, store and report
//! identity.

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::core::serializability::is_serializable;
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::sim::SimReport;
use fabricsharp::vstore::StateRead;
use fabricsharp::workload::generator::{WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn workloads() -> Vec<(&'static str, WorkloadKind)> {
    vec![
        ("modified-smallbank", WorkloadKind::ModifiedSmallbank),
        (
            "ycsb-a-cross50",
            WorkloadKind::Ycsb(YcsbProfile::a().with_cross_shard(4, 0.5)),
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
    assert_eq!(reference.aborts, candidate.aborts, "{context}: aborts");
    assert_eq!(
        reference.committed_with_anti_rw, candidate.committed_with_anti_rw,
        "{context}: anti-rw commits"
    );
}

/// The core acceptance criterion: for every system × workload × seed in the harness, S = 1, 2
/// and 4 sharded runs produce ledgers bit-for-bit identical to the unsharded reference — same
/// heights, same per-block entries (transactions *and* statuses), same chain hashes — and the
/// same final store contents. For
/// FabricSharp this exercises the sharded dependency graph + coordinator on the decision path;
/// for the four baselines it exercises the sharded store and MVCC validation.
#[test]
fn sharded_runs_reproduce_the_unsharded_ledger_for_every_system() {
    for system in SystemKind::all() {
        for (name, workload) in workloads() {
            for seed in [1u64, 42] {
                let reference_cfg = base_config(system, workload.clone(), seed);
                let (reference_report, reference_ledger, reference_store) =
                    Simulator::run_full(&reference_cfg);
                assert!(
                    reference_report.committed > 0,
                    "{system}/{name}/seed{seed}: reference run must commit work"
                );

                for shards in SHARD_COUNTS {
                    let mut cfg = reference_cfg.clone();
                    cfg.cc.store_shards = shards;
                    let (report, ledger, store) = Simulator::run_full(&cfg);
                    let context = format!("{system}/{name}/seed{seed}/store-shards{shards}");

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
                    assert_eq!(store.shard_count(), shards, "{context}: store shards");
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

/// A workload where *every* transaction is cross-shard (the worst case for the coordinator)
/// still produces the reference ledger, and actually exercises border transactions.
#[test]
fn all_cross_shard_traffic_matches_the_reference() {
    let workload = WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(2, 1.0));
    let reference_cfg = base_config(SystemKind::FabricSharp, workload, 3);
    let (reference_report, reference_ledger) = Simulator::run_with_ledger(&reference_cfg);
    assert!(reference_report.committed > 0);

    let mut cfg = reference_cfg.clone();
    cfg.cc.store_shards = 2;
    let (report, ledger) = Simulator::run_with_ledger(&cfg);
    assert_reports_match("all-cross", &reference_report, &report);
    assert_eq!(reference_ledger.tip_hash(), ledger.tip_hash());
}

/// The serializability oracle under cross-shard transactions: FabricSharp peers skip MVCC
/// validation entirely, so the sharded graph + coordinator is the only thing standing between
/// contended cross-shard traffic and a non-serializable ledger. Every sealed block must keep
/// the committed history serializable, and the sharded chain must match the unsharded one
/// decision for decision (accept, or reject with the *same* abort reason — the same cycle
/// verdict, bloom false positives included), commit order for commit order, hash for hash.
#[test]
fn smallbank_oracle_passes_with_cross_shard_transactions() {
    let workloads: Vec<(&str, WorkloadKind)> = vec![
        // SendPayment / Amalgamate touch two accounts (four keys) → naturally cross-shard
        // under the hash router.
        (
            "mixed-smallbank",
            WorkloadKind::MixedSmallbank { theta: 0.8 },
        ),
        (
            "ycsb-f-allcross",
            WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(2, 1.0)),
        ),
    ];
    for (name, workload) in workloads {
        let params = WorkloadParams {
            num_accounts: 12,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(workload.clone(), params, 99);
        let mut reference = SimpleChain::new(SystemKind::FabricSharp);
        reference.seed(generator.genesis());
        let mut sharded = SimpleChain::with_cc_config(
            SystemKind::FabricSharp,
            CcConfig {
                store_shards: 2,
                ..CcConfig::default()
            },
        );
        sharded.seed(generator.genesis());

        for i in 0..120usize {
            let template = generator.next_template();
            let txn_a = reference.execute(|ctx| template.run(ctx));
            let txn_b = sharded.execute(|ctx| template.run(ctx));
            assert_eq!(txn_a, txn_b, "{name}: endorsement diverged at txn {i}");
            let d_a = reference.submit(txn_a);
            let d_b = sharded.submit(txn_b);
            assert_eq!(d_a, d_b, "{name}: decision diverged at txn {i}");
            if (i + 1) % 8 == 0 {
                let b_a = reference.seal_block();
                let b_b = sharded.seal_block();
                assert_eq!(
                    b_a.committed, b_b.committed,
                    "{name}: commit order diverged at block {:?}",
                    b_a.block_number
                );
                assert!(
                    is_serializable(sharded.committed_history()),
                    "{name}: history became non-serializable after block {}",
                    sharded.ledger().height()
                );
            }
        }
        reference.seal_block();
        sharded.seal_block();
        assert!(is_serializable(sharded.committed_history()));
        assert_eq!(
            reference.ledger().height(),
            sharded.ledger().height(),
            "{name}: heights"
        );
        assert_eq!(
            reference.ledger().tip_hash(),
            sharded.ledger().tip_hash(),
            "{name}: sharded chain must match the unsharded one"
        );
        assert_eq!(
            reference.early_aborted(),
            sharded.early_aborted(),
            "{name}: early-abort sequences (cycle verdicts) must be identical"
        );
        assert!(sharded.ledger().verify_integrity().is_ok());
        assert!(
            sharded.ledger().committed_txn_count() > 0,
            "{name}: cross-shard traffic must commit"
        );
    }
}

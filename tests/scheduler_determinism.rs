//! Determinism harness for the dependency-graph-driven parallel commit scheduler.
//!
//! `E = CcConfig::execution_threads` turns block commit into Block-STM-style wave execution:
//! the committed topo order is decomposed into conflict-free waves (widened by the static
//! template conflict matrix) that execute and apply concurrently against the sharded store.
//! Parallelism claims like this are only credible when serial equivalence is *tested* under
//! adversarial schedules, so this battery pins the hard invariant end to end: ledgers, final
//! store contents and reports must be **bit-identical** to the inline serial reference
//! (`E = 0`) at every tested `S` (store shards) × `E` combination,
//! for all five systems, on workloads chosen to stress both ends of the spectrum — a
//! write-partitioned YCSB-B mix (wide conflict-free waves, heavy matrix widening) and a 100%
//! cross-shard YCSB-F mix (maximal conflict pressure, frequent single-txn waves and serial
//! fallbacks).

use fabricsharp::baselines::{ParallelChain, SimpleChain, SystemKind};
use fabricsharp::common::config::WorkloadParams;
use fabricsharp::core::pipeline::EndorseLogic;
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::sim::SimReport;
use fabricsharp::workload::generator::{TxnTemplate, WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;

const STORE_SHARDS: [usize; 3] = [0, 2, 4];
const EXECUTION_THREADS: [usize; 4] = [0, 1, 2, 4];

fn workloads() -> Vec<(&'static str, WorkloadKind)> {
    vec![
        // Writes confined to the tail 20% of the key space: most of the mix is read-only or
        // write-disjoint, so the planner forms wide waves and the static matrix widens the
        // read-heavy templates past the key checks.
        (
            "ycsb-b-writepart20",
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.2)),
        ),
        // Every transaction spans shards and collides: the worst case for wave formation —
        // mostly singleton waves plus validation-driven serial fallbacks.
        (
            "ycsb-f-cross100",
            WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0)),
        ),
    ]
}

fn base_config(system: SystemKind, workload: WorkloadKind) -> SimulationConfig {
    let mut config = SimulationConfig::new(system, workload);
    config.duration_s = 1.0;
    config.params.num_accounts = 300;
    config.params.request_rate_tps = 300;
    config.block.max_txns_per_block = 30;
    config.seed = 7;
    config
}

/// Asserts every `E`-independent report field matches. `commit` (wall-clock timing) and
/// `wave` (zeros at `E = 0`, populated otherwise) are deliberately excluded — they describe
/// *how* the run executed, not *what* it committed.
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
    assert_eq!(
        reference.safe_tagged, candidate.safe_tagged,
        "{context}: safe-tagged"
    );
}

/// The acceptance criterion: for every system × workload, every `S` × `E` combination
/// reproduces the all-inline reference ledger block for block — and within each `S` cell,
/// every `E >= 1` run leaves the store byte-identical to that cell's `E = 0` run (same
/// backend shape, so the comparison is exact) with an identical wave decomposition at every
/// thread count.
#[test]
fn ledgers_and_stores_are_bit_identical_at_every_execution_thread_count() {
    for system in SystemKind::all() {
        for (name, workload) in workloads() {
            let reference_cfg = base_config(system, workload.clone());
            let (reference_report, reference_ledger, reference_store) =
                Simulator::run_full(&reference_cfg);
            assert!(
                reference_report.committed > 0,
                "{system}/{name}: reference run must commit work"
            );

            for shards in STORE_SHARDS {
                // This cell's serial-commit run: the store oracle for every E >= 1.
                let mut serial_cfg = reference_cfg.clone();
                serial_cfg.cc.store_shards = shards;
                let (serial_report, serial_ledger, serial_store) = Simulator::run_full(&serial_cfg);
                let cell = format!("{system}/{name}/S{shards}");
                assert_reports_match(&cell, &reference_report, &serial_report);
                assert_eq!(
                    reference_ledger.tip_hash(),
                    serial_ledger.tip_hash(),
                    "{cell}: serial tip hash"
                );
                assert_eq!(
                    reference_store.histories(),
                    serial_store.histories(),
                    "{cell}: serial store contents"
                );
                let serial_store = format!("{serial_store:?}");

                let mut cell_wave = None;
                for execution in EXECUTION_THREADS {
                    if execution == 0 {
                        continue; // that is the cell's serial oracle itself
                    }
                    let mut cfg = serial_cfg.clone();
                    cfg.cc.execution_threads = execution;
                    let (report, ledger, store) = Simulator::run_full(&cfg);
                    let context = format!("{cell}/E{execution}");

                    assert_reports_match(&context, &reference_report, &report);
                    assert_eq!(
                        serial_ledger.height(),
                        ledger.height(),
                        "{context}: ledger height"
                    );
                    for (expected, actual) in serial_ledger.iter().zip(ledger.iter()) {
                        assert_eq!(
                            expected,
                            actual,
                            "{context}: block {} diverged",
                            expected.number()
                        );
                    }
                    assert_eq!(
                        serial_ledger.tip_hash(),
                        ledger.tip_hash(),
                        "{context}: tip hash"
                    );
                    assert!(ledger.verify_integrity().is_ok(), "{context}: integrity");
                    assert_eq!(
                        serial_store,
                        format!("{store:?}"),
                        "{context}: store contents diverged from serial commit"
                    );
                    // The wave decomposition is a pure function of the committed blocks:
                    // every E >= 1 must plan the same waves.
                    assert!(
                        report.wave.blocks > 0,
                        "{context}: scheduler must have planned waves"
                    );
                    match &cell_wave {
                        None => cell_wave = Some(report.wave),
                        Some(expected) => assert_eq!(
                            *expected, report.wave,
                            "{context}: wave decomposition diverged across E"
                        ),
                    }
                }
            }
        }
    }
}

/// Transaction-level pinning on the chain harnesses: `SimpleChain` and `ParallelChain` driven
/// in lockstep at `E ∈ {0, 2}` must agree on every decision, every block's commit order and
/// the chain hashes — and the scheduling chains must actually have planned waves.
#[test]
fn chain_harnesses_match_the_serial_commit_at_every_execution_thread_count() {
    let workload = WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0));
    let params = WorkloadParams {
        num_accounts: 12,
        ..Default::default()
    };
    let mut generator = WorkloadGenerator::new(workload, params, 99);

    let mut reference = SimpleChain::new(SystemKind::FabricSharp);
    let mut simple_waved = SimpleChain::with_execution_threads(SystemKind::FabricSharp, 4, 2);
    reference.seed(generator.genesis());
    simple_waved.seed(generator.genesis());

    for i in 0..120usize {
        let template = generator.next_template();
        let txn_ref = reference.execute(|ctx| template.run(ctx));
        let txn_simple = simple_waved.execute(|ctx| template.run(ctx));
        assert_eq!(txn_ref, txn_simple, "endorsement diverged at txn {i}");

        let d_ref = reference.submit(txn_ref);
        let d_simple = simple_waved.submit(txn_simple);
        assert_eq!(d_ref, d_simple, "decision diverged at txn {i} (S4/E2)");

        if (i + 1) % 10 == 0 {
            let b_ref = reference.seal_block();
            let b_simple = simple_waved.seal_block();
            assert_eq!(
                b_ref.committed, b_simple.committed,
                "commit order diverged at block {:?} (S4/E2)",
                b_ref.block_number
            );
        }
    }
    reference.seal_block();
    simple_waved.seal_block();
    assert_eq!(
        reference.ledger().tip_hash(),
        simple_waved.ledger().tip_hash(),
        "SimpleChain E=2 tip hash"
    );
    assert!(
        simple_waved.wave_stats().scheduled_txns > 0,
        "the waved chain must actually have scheduled transactions"
    );

    // ParallelChain batch drive: same template stream through a serial-commit chain and a
    // wave-scheduled chain (sharded endorsement + threaded committer on both); every block's
    // commit order and the final chain hashes must agree.
    fn to_logic(templates: &[TxnTemplate]) -> Vec<EndorseLogic> {
        templates
            .iter()
            .cloned()
            .map(|t| {
                let logic: EndorseLogic = Box::new(move |ctx| t.run(ctx));
                logic
            })
            .collect()
    }
    let mut generator = WorkloadGenerator::new(
        WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0)),
        WorkloadParams {
            num_accounts: 12,
            ..Default::default()
        },
        99,
    );
    let mut parallel_serial =
        ParallelChain::with_execution_threads(SystemKind::FabricSharp, 2, 4, 0);
    let mut parallel_waved =
        ParallelChain::with_execution_threads(SystemKind::FabricSharp, 2, 4, 2);
    parallel_serial.seed(generator.genesis());
    parallel_waved.seed(generator.genesis());
    for _ in 0..12 {
        let batch: Vec<TxnTemplate> = (0..10).map(|_| generator.next_template()).collect();
        let decisions_serial = parallel_serial.submit_batch(to_logic(&batch));
        let decisions_waved = parallel_waved.submit_batch(to_logic(&batch));
        assert_eq!(
            decisions_serial, decisions_waved,
            "early decisions diverged"
        );
        let report_serial = parallel_serial.seal_block();
        let report_waved = parallel_waved.seal_block();
        assert_eq!(
            report_serial.committed, report_waved.committed,
            "ParallelChain commit order diverged at block {:?}",
            report_serial.block_number
        );
    }
    assert_eq!(
        parallel_serial.ledger().tip_hash(),
        parallel_waved.ledger().tip_hash(),
        "ParallelChain E=0 vs E=2 tip hash"
    );
    assert!(parallel_serial.ledger().committed_txn_count() > 0);
    assert!(
        parallel_waved.wave_stats().scheduled_txns > 0,
        "the waved parallel chain must actually have scheduled transactions"
    );
}

/// Repeated runs of the same heavily parallel configuration reproduce each other exactly —
/// no scheduling nondeterminism leaks into ledger, store or wave plan even at S4/E4.
#[test]
fn parallel_commit_runs_are_reproducible_across_invocations() {
    let mut cfg = base_config(
        SystemKind::FabricSharp,
        WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0)),
    );
    cfg.cc.store_shards = 4;
    cfg.cc.execution_threads = 4;
    let (report_a, ledger_a, store_a) = Simulator::run_full(&cfg);
    let (report_b, ledger_b, store_b) = Simulator::run_full(&cfg);
    assert_reports_match("repeat", &report_a, &report_b);
    assert_eq!(report_a.wave, report_b.wave, "repeat: wave stats");
    assert_eq!(ledger_a.tip_hash(), ledger_b.tip_hash());
    assert_eq!(
        format!("{store_a:?}"),
        format!("{store_b:?}"),
        "repeat: store"
    );
    assert!(report_a.committed > 0);
    assert!(report_a.wave.blocks > 0, "scheduler must have run");
}

//! Template-fastpath measurement table: whole-orderer arrival + formation medians with
//! `CcConfig::template_fastpath` off vs on, per workload mix.
//!
//! ```text
//! cargo run --release -p eov-bench --bin fastpath_table
//! ```
//!
//! Replays 200 endorsed transactions of each mix through `FabricSharpCC::on_arrival` plus one
//! `cut_block`, median of 15 runs, with the fast path off and on. Transactions are tagged by
//! the key-granular conflict analyzer (instance classification) exactly like the simulator
//! tags them, so the "on" column reflects what the knob buys on that mix: YCSB-C (100% reads)
//! is entirely safe and bypasses the graph wholesale; the write-partitioned YCSB-B row shows
//! the instance-level rescue — read instances whose sampled keys provably miss the write tail
//! are safe even though the read template itself is not; unpartitioned YCSB-A/B/F and the
//! Smallbank mixes classify unknown throughout, so their numbers must stay at ~1.0× (the knob
//! is inert there — and `tests/determinism_lattice.rs` pins that the ledgers are
//! bit-identical either way). This binary produces the BASELINES.md "Template fast path"
//! table.

use eov_common::config::{CcConfig, WorkloadParams};
use eov_common::txn::{Transaction, TxnId};
use eov_vstore::{MultiVersionStore, SnapshotManager};
use eov_workload::generator::{WorkloadGenerator, WorkloadKind};
use eov_workload::YcsbProfile;
use fabricsharp_core::endorser::SnapshotEndorser;
use fabricsharp_core::FabricSharpCC;
use std::time::Instant;

const RUNS: usize = 15;
const TXNS: usize = 200;

fn endorsed_txns(kind: WorkloadKind) -> Vec<Transaction> {
    let params = WorkloadParams {
        num_accounts: 2_000,
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(kind, params, 7);
    let analyzer = generator.analyzer();
    let mut store = MultiVersionStore::new();
    store.seed_genesis(generator.genesis());
    let snapshots = SnapshotManager::new();
    snapshots.register_block(0);
    let endorser = SnapshotEndorser::new(snapshots);
    (0..TXNS)
        .map(|i| {
            let template = generator.next_template();
            let class = analyzer.classify_instance(&template);
            endorser
                .simulate_at(&store, TxnId(i as u64 + 1), 0, |ctx| template.run(ctx))
                .with_template_class(class)
        })
        .collect()
}

fn median_ns(txns: &[Transaction], fastpath: bool) -> f64 {
    let body = || {
        let mut cc = FabricSharpCC::new(CcConfig {
            template_fastpath: fastpath,
            ..CcConfig::default()
        });
        for txn in txns {
            let _ = cc.on_arrival(txn.clone());
        }
        cc.cut_block().len() as u64
    };
    std::hint::black_box(body()); // warm-up
    let mut samples: Vec<u128> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(body());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn main() {
    let workloads: Vec<(&str, WorkloadKind)> = vec![
        ("ycsb-a", WorkloadKind::Ycsb(YcsbProfile::a())),
        ("ycsb-b", WorkloadKind::Ycsb(YcsbProfile::b())),
        (
            "ycsb-b part.",
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.125)),
        ),
        ("ycsb-c", WorkloadKind::Ycsb(YcsbProfile::c())),
        ("ycsb-f", WorkloadKind::Ycsb(YcsbProfile::f())),
        ("modified-smallbank", WorkloadKind::ModifiedSmallbank),
        (
            "mixed-smallbank θ=0.7",
            WorkloadKind::MixedSmallbank { theta: 0.7 },
        ),
        ("create-account", WorkloadKind::CreateAccount),
    ];

    println!("FabricSharp arrival + cut, {TXNS} txns, median of {RUNS} runs");
    println!("| workload | fastpath off (ns) | fastpath on (ns) | off/on |");
    println!("|---|---|---|---|");
    for (name, kind) in workloads {
        let txns = endorsed_txns(kind);
        let safe = txns.iter().filter(|t| t.template_class.is_safe()).count();
        let off = median_ns(&txns, false);
        let on = median_ns(&txns, true);
        println!(
            "| {name} ({safe}/{TXNS} safe) | {off:.0} | {on:.0} | {:.2}x |",
            off / on
        );
    }
}

//! Key-space sharding sweep: measured arrival/formation cost per store-shard count.
//!
//! ```text
//! cargo run --release -p eov-bench --bin shard_sweep
//! ```
//!
//! Runs the FabricSharp simulator at S = 0 (unsharded reference), 1, 2 and 4 store/graph
//! shards over workloads of increasing cross-shard pressure, and prints the measured
//! (wall-clock) per-transaction arrival cost and per-block formation latency. Every row of a
//! workload commits the identical ledger (the `sharding_determinism` guarantee), so the
//! numbers isolate exactly what the sharded engine and its cross-shard coordinator cost — or
//! save — on a single thread. This binary produces the BASELINES.md sharding table.

use eov_baselines::api::SystemKind;
use eov_sim::{SimulationConfig, Simulator};
use eov_workload::generator::WorkloadKind;
use eov_workload::YcsbProfile;

fn main() {
    let workloads: Vec<(&str, WorkloadKind)> = vec![
        (
            "ycsb-a local (0% cross)",
            WorkloadKind::Ycsb(YcsbProfile::a().with_cross_shard(4, 0.0)),
        ),
        (
            "ycsb-a 50% cross",
            WorkloadKind::Ycsb(YcsbProfile::a().with_cross_shard(4, 0.5)),
        ),
        (
            "ycsb-f 100% cross",
            WorkloadKind::Ycsb(YcsbProfile::f().with_cross_shard(4, 1.0)),
        ),
        ("modified smallbank", WorkloadKind::ModifiedSmallbank),
    ];

    println!("FabricSharp, 700 tps offered, 5 simulated seconds, 2000 records, block size 100");
    println!(
        "{:<24} {:>7} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "workload", "shards", "committed", "arrival", "form p50", "form p99", "tip eq"
    );
    for (name, workload) in workloads {
        let mut reference_tip = None;
        for shards in [0usize, 1, 2, 4] {
            let mut cfg = SimulationConfig::new(SystemKind::FabricSharp, workload.clone());
            cfg.duration_s = 5.0;
            cfg.params.num_accounts = 2_000;
            cfg.params.request_rate_tps = 700;
            cfg.cc.store_shards = shards;
            let (report, ledger) = Simulator::run_with_ledger(&cfg);
            let tip = ledger.tip_hash();
            let identical = match &reference_tip {
                None => {
                    reference_tip = Some(tip);
                    true
                }
                Some(reference) => *reference == tip,
            };
            println!(
                "{:<24} {:>7} {:>10} {:>9.1} us {:>9.0} us {:>9.0} us {:>10}",
                name,
                if shards == 0 {
                    "ref".to_string()
                } else {
                    format!("S={shards}")
                },
                report.committed,
                report.measured_arrival_us_per_txn,
                report.formation.p50_us,
                report.formation.p99_us,
                if identical { "yes" } else { "NO" },
            );
            assert!(identical, "{name}: S={shards} diverged from the reference");
        }
    }
}

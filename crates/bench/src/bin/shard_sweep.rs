//! Store-sharding sweep: what `CcConfig::store_shards` costs end to end.
//!
//! ```text
//! cargo run --release -p eov-bench --bin shard_sweep             # 7 repetitions per point
//! ```
//!
//! Runs the FabricSharp simulator at S = 0 (unsharded store), 1, 2 and 4 store shards over
//! workloads of increasing cross-shard pressure. The orderer keeps one dependency graph and
//! one index set at every S, so the rows differ only in how the state store is laid out.
//! Each workload's S points run interleaved (S0, S1, S2, S4, S0, …) so machine drift hits
//! every point alike. Per point the table prints the median and IQR of the whole run's
//! wall-clock (`Simulator::run_with_ledger`, the end-to-end number), plus the medians of the
//! measured per-transaction arrival cost and per-block formation p50/p99. Every run must
//! commit the S0 run's ledger tip (asserted; `tests/determinism_lattice.rs` checks the same).
//! This binary produces the BASELINES.md sharding table.

use eov_baselines::api::SystemKind;
use eov_sim::{SimulationConfig, Simulator};
use eov_workload::generator::WorkloadKind;
use eov_workload::YcsbProfile;
use std::time::Instant;

const SHARDS: [usize; 4] = [0, 1, 2, 4];
const REPS: usize = 7;

/// One run's measurements.
#[derive(Clone, Copy)]
struct Sample {
    wall_ms: f64,
    arrival_us: f64,
    form_p50_us: f64,
    form_p99_us: f64,
}

/// The `q`-quantile of `values` (linear interpolation between the closest ranks).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn median_of(samples: &[Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    quantile(&samples.iter().map(field).collect::<Vec<_>>(), 0.5)
}

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
    println!("{REPS} interleaved repetitions per point; wall = whole run, median (IQR)");
    println!(
        "{:<24} {:>7} {:>10} {:>18} {:>12} {:>12} {:>12}",
        "workload", "shards", "committed", "wall ms", "arrival", "form p50", "form p99"
    );
    for (name, workload) in workloads {
        let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); SHARDS.len()];
        let mut committed = [0u64; SHARDS.len()];
        let mut reference_tip = None;
        for _ in 0..REPS {
            for (point, &shards) in SHARDS.iter().enumerate() {
                let mut cfg = SimulationConfig::new(SystemKind::FabricSharp, workload.clone());
                cfg.duration_s = 5.0;
                cfg.params.num_accounts = 2_000;
                cfg.params.request_rate_tps = 700;
                cfg.cc.store_shards = shards;
                let start = Instant::now();
                let (report, ledger) = Simulator::run_with_ledger(&cfg);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let tip = ledger.tip_hash();
                let reference = *reference_tip.get_or_insert(tip);
                assert!(
                    reference == tip,
                    "{name}: S={shards} diverged from the reference"
                );
                committed[point] = report.committed;
                samples[point].push(Sample {
                    wall_ms,
                    arrival_us: report.measured_arrival_us_per_txn,
                    form_p50_us: report.formation.p50_us,
                    form_p99_us: report.formation.p99_us,
                });
            }
        }
        for (point, &shards) in SHARDS.iter().enumerate() {
            let runs = &samples[point];
            let walls: Vec<f64> = runs.iter().map(|s| s.wall_ms).collect();
            let wall = format!(
                "{:.1} ({:.1})",
                quantile(&walls, 0.5),
                quantile(&walls, 0.75) - quantile(&walls, 0.25)
            );
            println!(
                "{:<24} {:>7} {:>10} {:>18} {:>9.1} us {:>9.0} us {:>9.0} us",
                name,
                if shards == 0 {
                    "ref".to_string()
                } else {
                    format!("S={shards}")
                },
                committed[point],
                wall,
                median_of(runs, |s| s.arrival_us),
                median_of(runs, |s| s.form_p50_us),
                median_of(runs, |s| s.form_p99_us),
            );
        }
    }
}

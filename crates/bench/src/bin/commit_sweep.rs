//! Commit-path scaling sweep — the multi-core story of the parallel wave scheduler.
//!
//! ```text
//! cargo run --release -p eov-bench --bin commit_sweep
//! ```
//!
//! Two views of `E = CcConfig::execution_threads`:
//!
//! 1. **Micro** — [`fabricsharp_core::scheduler::CommitScheduler::commit_block`] on synthetic
//!    blocks at every `E × S` point: a 4096-txn *disjoint* block (one maximal wave — the
//!    embarrassingly parallel upper bound) and a 4096-txn *hot-40* block (blind writers over
//!    40 keys — narrow waves, the coordination-bound lower bound). Medians of wall-clock
//!    nanoseconds plus the speedup over the `E = 0` serial reference of the same `S`.
//! 2. **End-to-end** — the simulator's measured per-block validate/commit wall-clock and wave
//!    statistics for FabricSharp on write-partitioned YCSB-B at every `E` (the ledger is
//!    bit-identical at every point — see `tests/scheduler_determinism.rs`).

use eov_baselines::api::SystemKind;
use eov_bench::banner;
use eov_common::rwset::Key;
use eov_common::rwset::Value;
use eov_common::txn::Transaction;
use eov_common::version::SeqNo;
use eov_sim::{SimulationConfig, Simulator};
use eov_vstore::{into_shared_backend, StateStore, StoreBackend};
use eov_workload::generator::WorkloadKind;
use eov_workload::YcsbProfile;
use fabricsharp_core::scheduler::CommitScheduler;
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per point; the reported number is the median.
const RUNS: usize = 9;
/// Transactions per synthetic block.
const BLOCK: usize = 4096;

const EXECUTION_THREADS: [usize; 4] = [0, 1, 2, 4];
const STORE_SHARDS: [usize; 2] = [0, 4];

/// `BLOCK` transactions, each reading its own genesis key and writing it back: zero
/// conflicts, so the planner emits a single block-wide wave and both the staleness probes and
/// the write installation fan out across every worker.
fn disjoint_block() -> Vec<Transaction> {
    (0..BLOCK as u64)
        .map(|i| {
            Transaction::from_parts(
                i + 1,
                0,
                [(Key::new(format!("acct:{i}")), SeqNo::new(0, i as u32 + 1))],
                [(Key::new(format!("acct:{i}")), Value::from_i64(2))],
            )
        })
        .collect()
}

/// Seeded backend for the disjoint input at a given shard count (genesis versions are
/// assigned in iteration order by `seed_genesis`, identically for every backend shape).
fn disjoint_block_seed(shards: usize) -> StoreBackend {
    let mut backend = StoreBackend::for_shards(shards);
    backend.seed_genesis((0..BLOCK).map(|i| (Key::new(format!("acct:{i}")), Value::from_i64(1))));
    backend
}

/// `BLOCK` blind writers over 40 hot keys: every 41st transaction collides, so waves stay
/// ~40 wide and the scheduler is dominated by wave barriers rather than execution — the
/// stress case for coordination overhead.
fn hot_block() -> Vec<Transaction> {
    (0..BLOCK as u64)
        .map(|i| {
            Transaction::from_parts(
                i + 1,
                0,
                [],
                [(
                    Key::new(format!("hot:{}", i % 40)),
                    Value::from_i64(i as i64),
                )],
            )
        })
        .collect()
}

/// Median wall-clock nanoseconds of committing `txns` as block 1 on a clone of `seed`, with
/// an `E`-thread scheduler (the pool is spawned once, outside the timed region).
fn median_commit_ns(seed: &StoreBackend, txns: &Arc<Vec<Transaction>>, execution: usize) -> f64 {
    let mut scheduler = CommitScheduler::new(execution);
    let mut samples: Vec<u128> = Vec::with_capacity(RUNS + 1);
    for _ in 0..=RUNS {
        let store = into_shared_backend(seed.clone());
        let start = Instant::now();
        let outcome = scheduler.commit_block(&store, 1, txns, true);
        let elapsed = start.elapsed().as_nanos();
        assert_eq!(outcome.statuses.len(), txns.len());
        samples.push(elapsed);
    }
    samples.remove(0); // warm-up
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn micro_sweep(
    label: &str,
    seed_for: impl Fn(usize) -> StoreBackend,
    txns: &Arc<Vec<Transaction>>,
) {
    println!(
        "{label} ({} txns/block; median of {RUNS} commits)",
        txns.len()
    );
    println!(
        "{:<10}{:>16}{:>16}{:>12}",
        "S shards", "E threads", "commit µs", "vs E=0"
    );
    for shards in STORE_SHARDS {
        let seed = seed_for(shards);
        let serial = median_commit_ns(&seed, txns, 0);
        for execution in EXECUTION_THREADS {
            let ns = if execution == 0 {
                serial
            } else {
                median_commit_ns(&seed, txns, execution)
            };
            println!(
                "{:<10}{:>16}{:>16.0}{:>11.2}x",
                shards,
                execution,
                ns / 1_000.0,
                serial / ns
            );
        }
    }
    println!();
}

fn main() {
    banner(
        "commit_sweep",
        "parallel wave-commit scaling: E (execution threads) x S (store shards)",
    );
    println!(
        "detected parallelism on this machine: {}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let disjoint = Arc::new(disjoint_block());
    let hot = Arc::new(hot_block());
    micro_sweep(
        "disjoint block (single maximal wave)",
        disjoint_block_seed,
        &disjoint,
    );
    micro_sweep(
        "hot-40 block (narrow ww waves)",
        StoreBackend::for_shards,
        &hot,
    );

    // End-to-end: the simulator's measured commit wall-clock and wave shape at every E.
    println!("end-to-end simulator sweep: FabricSharp, write-partitioned YCSB-B, S=4");
    println!(
        "{:<6}{:>10}{:>12}{:>12}{:>10}{:>12}{:>10}",
        "E", "eff tps", "commit p50", "commit p99", "waves/b", "mean width", "widened"
    );
    for execution in [0usize, 2, 4] {
        let mut config = SimulationConfig::parallel_commit(
            SystemKind::FabricSharp,
            WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(0.2)),
            4,
            execution,
        );
        config.duration_s = 3.0;
        let report = Simulator::run(&config);
        println!(
            "{:<6}{:>10.0}{:>10.0}µs{:>10.0}µs{:>10.2}{:>12.1}{:>10}",
            execution,
            report.effective_tps(),
            report.commit.p50_us,
            report.commit.p99_us,
            report.wave.waves_per_block(),
            report.wave.mean_wave_width(),
            report.wave.widened,
        );
    }
    println!(
        "\nThe disjoint micro block is the scaling upper bound (one wave, perfectly parallel\n\
         probes + sharded applies); the hot-40 block bounds coordination overhead (barriers\n\
         every ~40 txns). End-to-end, E>=1 leaves ledger, store and report bit-identical to\n\
         E=0 — the sweep only moves the measured commit wall-clock and the wave shape."
    );
}

//! The benchmark's workloads. Each is a closed loop from one thread: the next transaction is
//! generated only after the previous one has arrived at the orderer, and a block is cut after
//! every `BlockConfig::default().max_txns_per_block` arrivals. `perfbench/NOTES.md` records
//! why each one is here and which layers it loads.

use eov_common::config::{BlockConfig, WorkloadParams};
use eov_workload::{WorkloadKind, YcsbProfile};

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: WorkloadKind,
    pub params: WorkloadParams,
    /// Endorsements read the snapshot this many blocks below the tip. The lag stands in for
    /// endorsement and ordering latency; it is what gives arrivals rw-dependencies on
    /// transactions committed after their snapshot.
    pub snapshot_lag: u64,
    /// Transactions offered per round. A round's work is fixed by the seed, so its commit
    /// ratio and tip digest repeat exactly; the run repeats rounds to fill its time.
    pub txns: usize,
    /// Persist the chain to segment files and checkpoint the store every
    /// `checkpoint_interval` blocks, then cold-recover after the loop.
    pub durable: bool,
    pub checkpoint_interval: u64,
    pub block_size: usize,
}

pub const NAMES: [&str; 3] = ["smallbank_hot", "ycsb_b_1m", "smallbank_mixed_durable"];

pub fn by_name(name: &str) -> Option<Workload> {
    let block_size = BlockConfig::default().max_txns_per_block;
    let base = WorkloadParams::default();
    let w = match name {
        // Kept out of BENCHMARK.json while FabricSharp commits non-serializable histories on
        // it (perfbench/NOTES.md).
        "smallbank_hot" => Workload {
            name: "smallbank_hot",
            kind: WorkloadKind::ModifiedSmallbank,
            params: WorkloadParams {
                read_hot_ratio: 0.3,
                write_hot_ratio: 0.3,
                ..base
            },
            snapshot_lag: 3,
            txns: 20_000,
            durable: false,
            checkpoint_interval: 0,
            block_size,
        },
        "ycsb_b_1m" => Workload {
            name: "ycsb_b_1m",
            kind: WorkloadKind::Ycsb(YcsbProfile {
                theta: 0.0,
                ..YcsbProfile::b()
            }),
            params: WorkloadParams {
                num_accounts: 1_000_000,
                ..base
            },
            snapshot_lag: 3,
            txns: 30_000,
            durable: false,
            checkpoint_interval: 0,
            block_size,
        },
        "smallbank_mixed_durable" => Workload {
            name: "smallbank_mixed_durable",
            kind: WorkloadKind::MixedSmallbank { theta: 0.7 },
            params: base,
            snapshot_lag: 3,
            txns: 20_000,
            durable: true,
            checkpoint_interval: 45,
            block_size,
        },
        _ => return None,
    };
    Some(w)
}

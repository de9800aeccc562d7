//! One round of the closed loop: set-up, the timed execute → arrive → form → commit → append
//! loop, the orderer's recovery, and the correctness gate.
//!
//! The loop calls each layer's public functions in the order `Simulator::run_full` uses in
//! inline mode, with FabricSharp on `CcConfig::default()`. Only the durable workload changes
//! a setting, and only the checkpoint cadence, which no concurrency-control decision reads.

use crate::trace::{span, Kind, Tracer, NO_PARENT};
use crate::workloads::Workload;
use eov_baselines::{ConcurrencyControl, SystemKind};
use eov_common::config::CcConfig;
use eov_common::txn::{Transaction, TxnId, TxnStatus};
use eov_ledger::{write_checkpoint, Block, DurableOptions, Ledger, LedgerBackend};
use eov_vstore::{into_shared_backend, SnapshotManager, StateStore, StoreBackend};
use eov_workload::WorkloadGenerator;
use fabricsharp_core::recovery::{recover_from_disk, recover_from_ledger};
use fabricsharp_core::{is_serializable, CommitScheduler, SnapshotEndorser, WideningTable};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What one round measured and counted.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Wall-clock of the timed loop (generation of the first txn to the last block's
    /// checkpoint), excluding set-up and recovery.
    pub loop_s: f64,
    pub recover_s: f64,
    pub offered: u64,
    pub committed: u64,
    pub early_aborts: u64,
    pub validation_aborts: u64,
    /// Transactions in blocks whose commit, append or checkpoint returned an error.
    pub failed: u64,
    pub accepted: u64,
    pub blocks: u64,
    pub reads: u64,
    pub committed_writes: u64,
    pub avg_hops: f64,
    /// Per block: `cut_block` call to the return of append, notify and any due checkpoint.
    pub block_us: Vec<f64>,
    pub checkpoint_us: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub segment_bytes: u64,
    pub blocks_replayed: u64,
    pub tip_digest: String,
    /// Correctness-gate failures; empty when the round is correct.
    pub errors: Vec<String>,
}

impl Round {
    pub fn effective_tps(&self) -> f64 {
        self.committed as f64 / self.loop_s
    }

    pub fn commit_ratio(&self) -> f64 {
        self.committed as f64 / self.offered as f64
    }
}

fn cc_config(w: &Workload) -> CcConfig {
    CcConfig {
        checkpoint_interval: w.checkpoint_interval,
        ..CcConfig::default()
    }
}

fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs one round of `w` on `seed`. A durable round keeps its files in a fresh directory
/// `work_dir/ledger-<pid>`, removed before returning. `check_history` runs the
/// serializability oracle on the committed history; its cost grows with the square of the
/// history, and a round that reproduces a checked round's tip digest has the same history.
pub fn run_round<T: Tracer>(
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    tracer: &mut T,
    check_history: bool,
) -> Round {
    let config = cc_config(w);
    let mut r = Round::default();
    let dir = work_dir.join(format!("ledger-{}", std::process::id()));
    if w.durable {
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            r.errors.push(format!("create {}: {e}", dir.display()));
            return r;
        }
    }

    // Set-up: generator, genesis seeding, ledger open and (durable) genesis checkpoint.
    let setup = Instant::now();
    let mut generator = WorkloadGenerator::new(w.kind.clone(), w.params, seed);
    let store = {
        let mut s = StoreBackend::for_shards(config.store_shards);
        s.seed_genesis(generator.genesis());
        into_shared_backend(s)
    };
    let snapshots = SnapshotManager::new();
    snapshots.register_block(0);
    let endorser = SnapshotEndorser::new(snapshots.clone());
    let mut ledger = if w.durable {
        let opened = LedgerBackend::durable(&dir, DurableOptions::from_cc_config(&config))
            .and_then(|(backend, _)| {
                write_checkpoint(&dir, &store.read(), config.durable_fsync).map(|_| backend)
            });
        match opened {
            Ok(backend) => backend,
            Err(e) => {
                r.errors.push(format!("open durable ledger: {e}"));
                return r;
            }
        }
    } else {
        LedgerBackend::memory()
    };
    let mut cc: Box<dyn ConcurrencyControl> = SystemKind::FabricSharp.build(config);
    let needs_validation = cc.needs_peer_validation();
    let analyzer = generator.analyzer();
    let widening = WideningTable::from_conflicts(&analyzer.matrix().conflicts);
    let mut scheduler = CommitScheduler::with_widening(config.execution_threads, widening);
    r.setup_s = setup.elapsed().as_secs_f64();

    let root = tracer.open(Kind::Round, NO_PARENT, 0);
    let started = Instant::now();
    let mut last_committed: u64 = 0;
    let mut arrivals_since_cut = 0usize;
    for request_no in 1..=w.txns as u64 {
        let block_no = last_committed + 1;
        let txn_span = tracer.open(Kind::Txn, root, block_no);
        let (template, class, template_id) =
            span(tracer, Kind::Workload, txn_span, block_no, || {
                let template = generator.next_template();
                let class = analyzer.classify_instance(&template);
                let template_id = analyzer.template_index(&template);
                (template, class, template_id)
            });
        let mut txn = span(tracer, Kind::Endorse, txn_span, block_no, || {
            let guard = store.read();
            endorser.simulate_at(
                &*guard,
                TxnId(request_no),
                last_committed.saturating_sub(w.snapshot_lag),
                |ctx| template.run(ctx),
            )
        });
        txn.template_class = class;
        txn.template_id = template_id;
        r.reads += txn.read_set.len() as u64;
        let accepted = span(tracer, Kind::Arrival, txn_span, block_no, || {
            cc.on_endorsement(&txn, last_committed).is_accept() && cc.on_arrival(txn).is_accept()
        });
        r.accepted += u64::from(accepted);
        tracer.close(txn_span);
        r.offered += 1;
        arrivals_since_cut += 1;
        if arrivals_since_cut < w.block_size && request_no < w.txns as u64 {
            continue;
        }
        arrivals_since_cut = 0;

        let block_started = Instant::now();
        let block_span = tracer.open(Kind::Block, root, block_no);
        let txns = span(tracer, Kind::Formation, block_span, block_no, || {
            cc.cut_block()
        });
        if txns.is_empty() {
            tracer.close(block_span);
            continue;
        }
        let txns = Arc::new(txns);
        let outcome = span(tracer, Kind::Commit, block_span, block_no, || {
            scheduler.commit_block(&store, block_no, &txns, needs_validation)
        });
        let txns = Arc::try_unwrap(txns).unwrap_or_else(|shared| (*shared).clone());
        let block_len = txns.len() as u64;
        let (appended, statuses) = span(tracer, Kind::Ledger, block_span, block_no, || {
            let mut block = Block::build(block_no, ledger.as_ledger().tip_hash(), txns);
            for (entry, status) in block.entries.iter_mut().zip(&outcome.statuses) {
                entry.status = *status;
            }
            let statuses: Vec<(Transaction, TxnStatus)> = block
                .entries
                .iter()
                .map(|e| (e.txn.clone(), e.status))
                .collect();
            (ledger.append(block), statuses)
        });
        span(tracer, Kind::Notify, block_span, block_no, || {
            snapshots.register_block(block_no);
            cc.on_block_committed(block_no, &statuses);
        });
        last_committed = block_no;
        let checkpointed = (w.durable
            && config.checkpoint_interval > 0
            && block_no.is_multiple_of(config.checkpoint_interval))
        .then(|| {
            let at = Instant::now();
            let written = span(tracer, Kind::Checkpoint, block_span, block_no, || {
                write_checkpoint(&dir, &store.read(), config.durable_fsync)
            });
            (written, elapsed_us(at))
        });
        tracer.close(block_span);
        r.block_us.push(elapsed_us(block_started));

        r.blocks += 1;
        if let Err(e) = appended {
            r.failed += block_len;
            r.errors.push(format!("append block {block_no}: {e}"));
        }
        if let Some((written, us)) = checkpointed {
            r.checkpoint_us.push(us);
            match written {
                Ok((_, path)) => {
                    r.checkpoint_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
                }
                Err(e) => {
                    r.failed += block_len;
                    r.errors
                        .push(format!("checkpoint at block {block_no}: {e}"));
                }
            }
        }
        for (txn, status) in &statuses {
            match status {
                TxnStatus::Committed => {
                    r.committed += 1;
                    r.committed_writes += txn.write_set.len() as u64;
                }
                TxnStatus::Aborted(_) => r.validation_aborts += 1,
                TxnStatus::Pending => r.errors.push(format!("txn {} left pending", txn.id.0)),
            }
        }
    }
    r.loop_s = started.elapsed().as_secs_f64();

    // The orderer's restart path: cold recovery from the run's directory, or the controller
    // rebuild from the in-memory chain.
    let recovered_at = Instant::now();
    let recovery = span(tracer, Kind::Recovery, root, last_committed, || {
        if w.durable {
            recover_from_disk(&dir, config).map(Some)
        } else {
            recover_from_ledger(ledger.as_ledger(), config).map(|_| None)
        }
    });
    r.recover_s = recovered_at.elapsed().as_secs_f64();
    tracer.close(root);

    r.early_aborts = cc.early_aborts().iter().map(|(_, n)| n).sum();
    r.avg_hops = cc.avg_hops();
    let chain = ledger.as_ledger();
    r.tip_digest = chain.tip_hash().to_hex();
    if w.durable {
        r.segment_bytes = dir_bytes(&dir, "seg-");
    }
    match recovery {
        Ok(Some(cold)) => {
            r.blocks_replayed = cold.ledger.height() - cold.checkpoint_height;
            if cold.ledger.height() != chain.height() {
                r.errors.push(format!(
                    "recovered height {} != run height {}",
                    cold.ledger.height(),
                    chain.height()
                ));
            }
            if cold.ledger.ledger().tip_hash() != chain.tip_hash() {
                r.errors
                    .push("recovered tip digest differs from the run's".into());
            }
            if cold.store != *store.read() {
                r.errors
                    .push("recovered store differs from the run's".into());
            }
        }
        Ok(None) => {}
        Err(e) => r.errors.push(format!("recovery: {e}")),
    }
    check_chain(chain, check_history, &mut r);
    if w.durable {
        let _ = std::fs::remove_dir_all(&dir);
    }
    r
}

/// The gate on the round's chain: hash-chain integrity, serializability of the committed
/// history, and every offered transaction accounted for exactly once.
fn check_chain(chain: &Ledger, check_history: bool, r: &mut Round) {
    if let Err(e) = chain.verify_integrity() {
        r.errors.push(format!("ledger integrity: {e}"));
    }
    let history: Vec<Transaction> = chain
        .iter()
        .flat_map(|b| b.committed().map(|(txn, _)| txn.clone()))
        .collect();
    if history.len() as u64 != r.committed {
        r.errors.push(format!(
            "ledger holds {} committed txns, the loop counted {}",
            history.len(),
            r.committed
        ));
    }
    if check_history && !is_serializable(&history) {
        r.errors
            .push("committed history is not serializable".into());
    }
    let accounted = r.committed + r.early_aborts + r.validation_aborts;
    if accounted != r.offered {
        r.errors.push(format!(
            "committed {} + early aborts {} + validation aborts {} != offered {}",
            r.committed, r.early_aborts, r.validation_aborts, r.offered
        ));
    }
}

//! Dependency-graph-driven parallel commit scheduler (Block-STM-style wave execution).
//!
//! After `cut_block` fixes the committed order of a block, the commit path of the reference
//! pipeline ([`crate::commit`]) still validates and applies the block one transaction at a
//! time. This module turns the block's *conflict structure* — the same artifact the paper's
//! dependency graph materialises for abort/reorder decisions — into commit parallelism:
//!
//! 1. **Wave planning** ([`plan_waves`]): a single deterministic pass over the committed
//!    order partitions the block into **waves** — maximal contiguous runs of transactions
//!    with no pairwise rw/ww/wr key overlap. Each wave is an antichain of the block's
//!    dependency DAG (no member reads or writes a key another member touches with a write),
//!    and because waves are contiguous in the committed order, the concatenation of the
//!    waves *is* the committed topological order — the invariant the in-module proptests
//!    pin.
//! 2. **Static widening**: transactions whose instance class is
//!    [`TemplateClass::Safe`](eov_common::txn::TemplateClass), or whose template's
//!    [`WideningTable`] row is statically conflict-free against every template present in
//!    the block (no `may_unify` write overlap, computed once per mix by
//!    `eov_workload::conflict`), join the current wave **without key checks** — they neither
//!    break a wave nor register keys that would break one. This is the conflict-matrix
//!    handoff from the key-granular static analysis: statically clear pairs speculate
//!    side by side even when their key sets are unknown at planning time.
//! 3. **Optimistic validation**: every widened transaction's keys are still probed against
//!    its wave's registered and shadow key sets (and vice versa for later non-widened
//!    members) at planning time. A hit means the static claim was wrong for this block —
//!    the plan is discarded and the whole block **falls back to serial re-execution in
//!    topo order** ([`crate::commit::commit_block`]), which is bit-identical by
//!    construction. Failures and fallbacks are counted in [`WaveStats`].
//! 4. **Wave execution** ([`CommitScheduler::commit_block`]): waves run in order with a
//!    barrier between them. Per wave, a **read phase** computes MVCC staleness flags in
//!    parallel on a [`WorkPool`] (workers take the store's read lock — snapshot stability
//!    makes them safe next to concurrently pinned endorsers), then an **apply phase** under
//!    the store's write lock installs the wave's valid writes at their *original* block
//!    slots — fanning out per key-space shard when the backend is sharded and the wave is
//!    wide enough.
//!
//! # Determinism argument
//!
//! The result is bit-identical to the serial reference at every `E = execution_threads`:
//!
//! * Waves are contiguous, so every transaction's wave index is non-decreasing in block
//!   order: when wave `k`'s read phase runs, exactly the valid writes of the transactions
//!   *before* wave `k` in block order have been applied — the same store state the serial
//!   validator would see at each member's position (no same-wave member touches a member's
//!   keys, so position within the wave is irrelevant).
//! * Writes are installed at `(block_no, original_slot)`, so the version chains are
//!   byte-identical regardless of which worker installed them; per-key version monotonicity
//!   holds because a key is written by at most one transaction per wave and waves advance
//!   in block order.
//! * The anti-rw count is reconstructed exactly: `anti_rw(i) = flag_inblock(i) ||
//!   wave_stale(i)`, where `flag_inblock` (any read key written by *any* earlier in-block
//!   transaction, valid or not) is computed during planning. When `flag_inblock(i)` is
//!   false, no earlier in-block write touched `i`'s read keys, so the wave-time `latest`
//!   equals the pre-block `latest` and the two staleness notions coincide; when it is true,
//!   the serial count is already decided.
//! * Planning is a pure function of the transaction slice and the widening table — no
//!   wall-clock, no thread scheduling, no hash iteration — so the wave decomposition is
//!   reproducible run-to-run (asserted structurally by `bench_gate`).
//!
//! `E = 0` bypasses planning entirely and runs the inline serial reference — the
//! configuration every other `E` is tested bit-identical against
//! (`tests/determinism_lattice.rs`, full `S × E` grid).

use crate::commit::{self, CommitOutcome};
use eov_common::abort::AbortReason;
use eov_common::txn::{Transaction, TxnStatus};
use eov_common::version::SeqNo;
use eov_depgraph::parallel::{PoolJob, WorkPool};
use eov_vstore::{MultiVersionStore, SharedStore, StateRead, StateStore, StoreBackend};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Minimum wave width before the read phase fans out to the pool — below this the probe is
/// cheaper inline than the dispatch round-trip.
const MIN_PARALLEL_PROBE: usize = 32;

/// Minimum number of writes in a wave before the apply phase fans out per shard.
const MIN_PARALLEL_APPLY: usize = 64;

/// The static widening table: `clear[i][j]` is `true` iff templates `i` and `j` are
/// *statically conflict-free* — no read/write or write/write expression pair of the two
/// templates can unify (`eov_workload::conflict::may_unify`), so no instance pair can ever
/// carry a dependency edge. This is the negation of the workload's `ConflictMatrix`, passed
/// in as plain data so the scheduler stays independent of the workload crate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WideningTable {
    clear: Vec<Vec<bool>>,
}

impl WideningTable {
    /// Builds the table from a conflict matrix (`conflicts[i][j]` = may conflict): the
    /// widening entry is the negation. Rows must be square; a non-square input yields an
    /// empty (never-widening) table.
    pub fn from_conflicts(conflicts: &[Vec<bool>]) -> Self {
        let n = conflicts.len();
        if conflicts.iter().any(|row| row.len() != n) {
            return WideningTable::default();
        }
        WideningTable {
            clear: conflicts
                .iter()
                .map(|row| row.iter().map(|c| !c).collect())
                .collect(),
        }
    }

    /// Number of templates covered.
    pub fn len(&self) -> usize {
        self.clear.len()
    }

    /// Whether the table covers no templates (widening disabled).
    pub fn is_empty(&self) -> bool {
        self.clear.is_empty()
    }

    /// Whether templates `i` and `j` are statically conflict-free.
    pub fn is_clear(&self, i: usize, j: usize) -> bool {
        self.clear
            .get(i)
            .and_then(|row| row.get(j))
            .copied()
            .unwrap_or(false)
    }
}

/// The deterministic wave decomposition of one block: a pure function of the committed
/// transaction order and the widening table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WavePlan {
    /// Start index of each wave in the committed order; waves are contiguous, so wave `k`
    /// spans `wave_starts[k] .. wave_starts.get(k+1).unwrap_or(n)`. Empty iff the block is.
    pub wave_starts: Vec<usize>,
    /// Per position: whether any *earlier in-block* transaction (valid or not) writes one of
    /// this transaction's read keys — the in-block half of the serial anti-rw count.
    pub flag_inblock: Vec<bool>,
    /// Per position: whether the transaction was widened into its wave without key checks.
    pub widened: Vec<bool>,
    /// Planning-time probe hits: a widened transaction's keys overlapped its wave after all
    /// (a wrong static claim). Any non-zero value forces serial fallback for the block.
    pub validation_failures: u64,
}

impl WavePlan {
    /// Number of waves.
    pub fn wave_count(&self) -> usize {
        self.wave_starts.len()
    }

    /// The half-open range of block positions forming wave `k`.
    pub fn wave_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = self.wave_starts[k];
        let end = self
            .wave_starts
            .get(k + 1)
            .copied()
            .unwrap_or(self.flag_inblock.len());
        start..end
    }

    /// How many transactions were widened past the key checks.
    pub fn widened_count(&self) -> u64 {
        self.widened.iter().filter(|w| **w).count() as u64
    }
}

/// Derives the wave decomposition of a block: contiguous antichains of the committed order,
/// widened by the static conflict table. See the module docs for the invariants.
pub fn plan_waves(txns: &[Transaction], widening: &WideningTable) -> WavePlan {
    let n = txns.len();
    let mut plan = WavePlan {
        wave_starts: Vec::new(),
        flag_inblock: vec![false; n],
        widened: vec![false; n],
        validation_failures: 0,
    };
    if n == 0 {
        return plan;
    }
    plan.wave_starts.push(0);

    // Pass 0: which templates appear in this block? Matrix widening needs every transaction
    // to carry a known template id — one wildcard (None / out of range) and nothing can be
    // proven clear against the block's mix.
    let mut matrix_usable = !widening.is_empty();
    let mut present: Vec<u16> = Vec::new();
    for txn in txns {
        match txn.template_id {
            Some(t) if (t as usize) < widening.len() => {
                if !present.contains(&t) {
                    present.push(t);
                }
            }
            _ => matrix_usable = false,
        }
    }
    // Per-template verdict: row statically clear against every template present (including
    // its own — two instances of the same template must also be conflict-free).
    let row_ok: Vec<bool> = if matrix_usable {
        (0..widening.len())
            .map(|t| present.iter().all(|&p| widening.is_clear(t, p as usize)))
            .collect()
    } else {
        Vec::new()
    };

    // All earlier in-block writers, any wave (for `flag_inblock`).
    let mut writers_so_far: HashSet<&str> = HashSet::new();
    // The current wave's registered key sets (non-widened members)…
    let mut wave_writers: HashSet<&str> = HashSet::new();
    let mut wave_readers: HashSet<&str> = HashSet::new();
    // …and its shadow key sets (widened members — registered only for validation probes).
    let mut shadow_writers: HashSet<&str> = HashSet::new();
    let mut shadow_readers: HashSet<&str> = HashSet::new();

    for (i, txn) in txns.iter().enumerate() {
        plan.flag_inblock[i] = txn
            .read_set
            .iter()
            .any(|read| writers_so_far.contains(read.key.as_str()));

        let widened = txn.template_class.is_safe()
            || (matrix_usable
                && txn
                    .template_id
                    .is_some_and(|t| row_ok.get(t as usize).copied().unwrap_or(false)));
        plan.widened[i] = widened;

        if widened {
            // Optimistic validation: a widened transaction claims no overlap with its wave.
            // Probe both the registered and the shadow sets; a hit is a wrong static claim.
            let hit = txn.read_set.iter().any(|read| {
                wave_writers.contains(read.key.as_str())
                    || shadow_writers.contains(read.key.as_str())
            }) || txn.write_set.iter().any(|write| {
                wave_writers.contains(write.key.as_str())
                    || wave_readers.contains(write.key.as_str())
                    || shadow_writers.contains(write.key.as_str())
                    || shadow_readers.contains(write.key.as_str())
            });
            if hit {
                plan.validation_failures += 1;
            }
            for read in txn.read_set.iter() {
                shadow_readers.insert(read.key.as_str());
            }
            for write in txn.write_set.iter() {
                shadow_writers.insert(write.key.as_str());
            }
        } else {
            // A registered transaction conflicts with the current wave iff it reads a key the
            // wave writes, or writes a key the wave reads or writes — any dependency edge
            // direction breaks the antichain and starts the next wave.
            let conflict = txn
                .read_set
                .iter()
                .any(|read| wave_writers.contains(read.key.as_str()))
                || txn.write_set.iter().any(|write| {
                    wave_writers.contains(write.key.as_str())
                        || wave_readers.contains(write.key.as_str())
                });
            if conflict {
                plan.wave_starts.push(i);
                wave_writers.clear();
                wave_readers.clear();
                shadow_writers.clear();
                shadow_readers.clear();
            }
            // Validation in the other direction: a registered member overlapping an earlier
            // widened member of the *same* wave also falsifies the widened claim.
            let shadow_hit = txn
                .read_set
                .iter()
                .any(|read| shadow_writers.contains(read.key.as_str()))
                || txn.write_set.iter().any(|write| {
                    shadow_writers.contains(write.key.as_str())
                        || shadow_readers.contains(write.key.as_str())
                });
            if shadow_hit {
                plan.validation_failures += 1;
            }
            for read in txn.read_set.iter() {
                wave_readers.insert(read.key.as_str());
            }
            for write in txn.write_set.iter() {
                wave_writers.insert(write.key.as_str());
            }
        }

        for write in txn.write_set.iter() {
            writers_so_far.insert(write.key.as_str());
        }
    }
    plan
}

/// Cumulative, deterministic wave statistics of a scheduler instance. Every field is a pure
/// function of the scheduled blocks and the widening table (identical across `E >= 1`);
/// the inline reference (`E = 0`) schedules nothing and reports zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Blocks that went through wave planning.
    pub blocks: u64,
    /// Total waves across those blocks.
    pub waves: u64,
    /// Total transactions across those blocks.
    pub scheduled_txns: u64,
    /// Transactions widened into a wave without key checks.
    pub widened: u64,
    /// Planning-time validation probe hits (wrong static claims).
    pub validation_failures: u64,
    /// Blocks re-executed serially because a validation probe hit.
    pub reexecutions: u64,
}

impl WaveStats {
    /// Mean waves per scheduled block.
    pub fn waves_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.waves as f64 / self.blocks as f64
        }
    }

    /// Mean transactions per wave.
    pub fn mean_wave_width(&self) -> f64 {
        if self.waves == 0 {
            0.0
        } else {
            self.scheduled_txns as f64 / self.waves as f64
        }
    }
}

/// Resources shipped to the scheduler's pool workers by value.
enum ExecResource {
    /// Read-phase probe: no owned resource (the job reads through the shared store handle).
    Probe,
    /// Apply-phase: one key-space shard store, moved out of the write-locked backend.
    Shard(Box<MultiVersionStore>),
}

/// What a pool job reports back.
enum ExecOutcome {
    /// Per-position staleness flags for the probed chunk, in chunk order.
    Stale(Vec<bool>),
    /// Shard writes installed.
    Applied,
}

/// The parallel commit scheduler: plans waves, executes them on a reusable worker pool, and
/// accumulates the wave statistics exported through `SimReport`.
///
/// `threads == 0` is the inline reference — [`CommitScheduler::commit_block`] then simply
/// runs [`crate::commit::commit_block`] under the store's write lock, byte-identical to the
/// pre-scheduler pipeline.
pub struct CommitScheduler {
    threads: usize,
    pool: Option<WorkPool<ExecResource, ExecOutcome>>,
    widening: WideningTable,
    stats: WaveStats,
    commit_us: Vec<u64>,
}

impl std::fmt::Debug for CommitScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitScheduler")
            .field("threads", &self.threads)
            .field("widening_templates", &self.widening.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl CommitScheduler {
    /// Creates a scheduler with `threads` execution workers (0 = inline reference).
    pub fn new(threads: usize) -> Self {
        CommitScheduler {
            threads,
            pool: (threads >= 1).then(|| WorkPool::with_name(threads, "commit-exec-worker")),
            widening: WideningTable::default(),
            stats: WaveStats::default(),
            commit_us: Vec::new(),
        }
    }

    /// Creates a scheduler with a static widening table (from the workload's conflict
    /// matrix).
    pub fn with_widening(threads: usize, widening: WideningTable) -> Self {
        let mut s = Self::new(threads);
        s.widening = widening;
        s
    }

    /// Number of execution workers (0 = inline reference).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cumulative wave statistics.
    pub fn stats(&self) -> WaveStats {
        self.stats
    }

    /// Drains the measured per-block commit wall-clock samples (µs).
    pub fn take_commit_samples(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.commit_us)
    }

    /// Validates and applies one block, recording wall-clock and wave statistics. The result
    /// is bit-identical to [`crate::commit::commit_block`] on the same store at every
    /// thread count — see the module docs for the argument.
    pub fn commit_block(
        &mut self,
        store: &SharedStore,
        block_no: u64,
        txns: &Arc<Vec<Transaction>>,
        needs_validation: bool,
    ) -> CommitOutcome {
        let started = Instant::now();
        let outcome = if self.threads == 0 || txns.is_empty() {
            let mut guard = store.write();
            commit::commit_block(&mut *guard, block_no, txns, needs_validation)
        } else {
            self.commit_waves(store, block_no, txns, needs_validation)
        };
        self.commit_us
            .push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        outcome
    }

    /// The `E >= 1` path: plan, validate, then execute wave by wave (or fall back).
    fn commit_waves(
        &mut self,
        store: &SharedStore,
        block_no: u64,
        txns: &Arc<Vec<Transaction>>,
        needs_validation: bool,
    ) -> CommitOutcome {
        let plan = plan_waves(txns, &self.widening);
        self.stats.blocks += 1;
        self.stats.waves += plan.wave_count() as u64;
        self.stats.scheduled_txns += txns.len() as u64;
        self.stats.widened += plan.widened_count();
        self.stats.validation_failures += plan.validation_failures;

        if plan.validation_failures > 0 {
            // A widened transaction overlapped its wave: the static claim was wrong for this
            // block, so the plan is unsound. Re-execute the whole block serially in topo
            // order — the deterministic fallback.
            self.stats.reexecutions += 1;
            let mut guard = store.write();
            return commit::commit_block(&mut *guard, block_no, txns, needs_validation);
        }

        let mut stale = vec![false; txns.len()];
        for k in 0..plan.wave_count() {
            let range = plan.wave_range(k);
            // Read phase: MVCC staleness of each wave member against the current store
            // (= pre-block state plus the valid writes of all earlier waves, which is
            // exactly the serial validator's view at each member's position).
            let flags = self.probe_staleness(store, txns, range.clone());
            stale[range.clone()].copy_from_slice(&flags);

            // Apply phase, under the write lock: install the wave's valid writes at their
            // original block slots.
            let valid: Vec<usize> = range.filter(|&i| !needs_validation || !stale[i]).collect();
            let mut guard = store.write();
            self.apply_wave(&mut guard, txns, &valid, block_no);
        }
        store.write().commit_empty_block(block_no);

        let statuses = if needs_validation {
            stale
                .iter()
                .map(|s| {
                    if *s {
                        TxnStatus::Aborted(AbortReason::StaleRead)
                    } else {
                        TxnStatus::Committed
                    }
                })
                .collect()
        } else {
            vec![TxnStatus::Committed; txns.len()]
        };
        let anti_rw_commits = (0..txns.len())
            .filter(|&i| plan.flag_inblock[i] || stale[i])
            .count() as u64;
        CommitOutcome {
            statuses,
            anti_rw_commits,
        }
    }

    /// Computes the staleness flag of every transaction in `range`, fanning out to the pool
    /// when the wave is wide enough. The result is independent of the chunking.
    fn probe_staleness(
        &self,
        store: &SharedStore,
        txns: &Arc<Vec<Transaction>>,
        range: std::ops::Range<usize>,
    ) -> Vec<bool> {
        let width = range.len();
        let pool = match &self.pool {
            Some(pool) if width >= MIN_PARALLEL_PROBE && pool.threads() >= 2 => pool,
            _ => {
                let guard = store.read();
                return range.map(|i| is_stale(&*guard, &txns[i])).collect();
            }
        };
        let chunk = width.div_ceil(pool.threads());
        let mut batch: Vec<(ExecResource, PoolJob<ExecResource, ExecOutcome>)> = Vec::new();
        let mut start = range.start;
        while start < range.end {
            let end = (start + chunk).min(range.end);
            let store = SharedStore::clone(store);
            let txns = Arc::clone(txns);
            let job: PoolJob<ExecResource, ExecOutcome> = Box::new(move |_| {
                let guard = store.read();
                ExecOutcome::Stale((start..end).map(|i| is_stale(&*guard, &txns[i])).collect())
            });
            batch.push((ExecResource::Probe, job));
            start = end;
        }
        let mut flags = Vec::with_capacity(width);
        for (_, outcome) in pool.run(batch) {
            match outcome {
                ExecOutcome::Stale(chunk_flags) => flags.extend(chunk_flags),
                ExecOutcome::Applied => unreachable!("probe jobs return staleness flags"),
            }
        }
        flags
    }

    /// Installs the writes of the wave's valid transactions at their original slots. Fans
    /// out per key-space shard when the backend is sharded and the wave carries enough
    /// writes; the write lock is held by the caller throughout, so taking the shard stores
    /// out of the backend is invisible to readers.
    fn apply_wave(
        &self,
        backend: &mut StoreBackend,
        txns: &Arc<Vec<Transaction>>,
        valid: &[usize],
        block_no: u64,
    ) {
        let writes: usize = valid.iter().map(|&i| txns[i].write_set.len()).sum();
        if let (StoreBackend::Sharded(sharded), Some(pool)) = (&mut *backend, &self.pool) {
            if writes >= MIN_PARALLEL_APPLY && sharded.shard_count() >= 2 && pool.threads() >= 2 {
                let router = *sharded.router();
                let valid: Arc<Vec<usize>> = Arc::new(valid.to_vec());
                let batch: Vec<(ExecResource, PoolJob<ExecResource, ExecOutcome>)> = (0..sharded
                    .shard_count())
                    .map(|shard| {
                        let resource =
                            ExecResource::Shard(Box::new(std::mem::take(sharded.shard_mut(shard))));
                        let txns = Arc::clone(txns);
                        let valid = Arc::clone(&valid);
                        let job: PoolJob<ExecResource, ExecOutcome> = Box::new(move |resource| {
                            let ExecResource::Shard(store) = resource else {
                                unreachable!("apply jobs own a shard store")
                            };
                            for &pos in valid.iter() {
                                let version = SeqNo::new(block_no, pos as u32 + 1);
                                for write in txns[pos].write_set.iter() {
                                    if router.shard_of(&write.key) == shard {
                                        store.put(write.key.clone(), version, write.value.clone());
                                    }
                                }
                            }
                            ExecOutcome::Applied
                        });
                        (resource, job)
                    })
                    .collect();
                for (shard, (resource, _)) in pool.run(batch).into_iter().enumerate() {
                    let ExecResource::Shard(store) = resource else {
                        unreachable!("apply jobs return the shard store they own")
                    };
                    *sharded.shard_mut(shard) = *store;
                }
                return;
            }
        }
        for &pos in valid {
            let version = SeqNo::new(block_no, pos as u32 + 1);
            for write in txns[pos].write_set.iter() {
                backend.put(write.key.clone(), version, write.value.clone());
            }
        }
    }
}

/// Whether any of `txn`'s reads no longer sees the latest version — the serial MVCC check.
fn is_stale<S: StateRead>(store: &S, txn: &Transaction) -> bool {
    txn.read_set.iter().any(|read| {
        let latest = store
            .latest(&read.key)
            .map(|vv| vv.version)
            .unwrap_or(SeqNo::zero());
        latest != read.version
    })
}

/// Compile-time audit: everything shipped to pool workers must be sendable.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ExecResource>();
    assert_send::<ExecOutcome>();
    assert_send::<CommitScheduler>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::TemplateClass;
    use eov_vstore::into_shared_backend;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn txn(id: u64, reads: &[(&str, (u64, u32))], writes: &[(&str, i64)]) -> Transaction {
        Transaction::from_parts(
            id,
            0,
            reads
                .iter()
                .map(|(key, (b, s))| (k(key), SeqNo::new(*b, *s))),
            writes.iter().map(|(key, v)| (k(key), Value::from_i64(*v))),
        )
    }

    fn seeded_backend(shards: usize) -> StoreBackend {
        let mut backend = StoreBackend::for_shards(shards);
        backend.seed_genesis((0..40).map(|i| (k(&format!("acct:{i}")), Value::from_i64(i))));
        backend
    }

    /// Genesis version of `acct:{i}`: seeded in iteration order, so `(0, i + 1)`.
    fn genesis_v(i: u64) -> (u64, u32) {
        (0, i as u32 + 1)
    }

    #[test]
    fn disjoint_transactions_form_one_wave() {
        let txns: Vec<Transaction> = (0..6)
            .map(|i| {
                txn(
                    i,
                    &[(&format!("acct:{i}"), genesis_v(i))],
                    &[(&format!("acct:{}", i + 10), 1)],
                )
            })
            .collect();
        let plan = plan_waves(&txns, &WideningTable::default());
        assert_eq!(plan.wave_starts, vec![0]);
        assert_eq!(plan.validation_failures, 0);
        assert_eq!(plan.widened_count(), 0);
        assert!(plan.flag_inblock.iter().all(|f| !f));
    }

    #[test]
    fn every_edge_direction_breaks_a_wave() {
        // wr: txn 1 reads what txn 0 writes.
        let wr = vec![
            txn(0, &[], &[("a", 1)]),
            txn(1, &[("a", genesis_v(0))], &[]),
        ];
        assert_eq!(
            plan_waves(&wr, &WideningTable::default()).wave_starts,
            vec![0, 1]
        );
        // ww: both write the same key.
        let ww = vec![txn(0, &[], &[("a", 1)]), txn(1, &[], &[("a", 2)])];
        assert_eq!(
            plan_waves(&ww, &WideningTable::default()).wave_starts,
            vec![0, 1]
        );
        // rw (anti): txn 1 writes what txn 0 reads.
        let rw = vec![
            txn(0, &[("a", genesis_v(0))], &[]),
            txn(1, &[], &[("a", 2)]),
        ];
        assert_eq!(
            plan_waves(&rw, &WideningTable::default()).wave_starts,
            vec![0, 1]
        );
    }

    #[test]
    fn flag_inblock_counts_all_earlier_writers_across_waves() {
        // txn 0 writes "a" (wave 0); txn 1 writes "a" (wave 1); txn 2 reads "a" (wave 2,
        // flagged even though txn 1's write may later abort); txn 3 reads "b" (joins wave 2,
        // unflagged — nobody writes "b").
        let txns = vec![
            txn(0, &[], &[("a", 1)]),
            txn(1, &[], &[("a", 2)]),
            txn(2, &[("a", genesis_v(0))], &[]),
            txn(3, &[("b", genesis_v(1))], &[]),
        ];
        let plan = plan_waves(&txns, &WideningTable::default());
        assert_eq!(plan.wave_starts, vec![0, 1, 2]);
        assert_eq!(plan.flag_inblock, vec![false, false, true, false]);
    }

    #[test]
    fn safe_instances_join_without_breaking_waves() {
        // txn 1 is instance-Safe: it neither breaks the wave nor registers keys, so txns 0
        // and 2 (which conflict with each other, not with 1) still split while 1 rides
        // wave 0.
        let txns = vec![
            txn(0, &[], &[("a", 1)]),
            txn(1, &[("z", genesis_v(5))], &[]).with_template_class(TemplateClass::Safe),
            txn(2, &[], &[("a", 2)]),
        ];
        let plan = plan_waves(&txns, &WideningTable::default());
        assert_eq!(plan.wave_starts, vec![0, 2]);
        assert_eq!(plan.widened, vec![false, true, false]);
        assert_eq!(plan.validation_failures, 0);
    }

    #[test]
    fn forged_safe_tags_are_caught_by_validation_probes() {
        // A "Safe" transaction that actually writes a key its wave writes: probe hits.
        let widened_after = vec![
            txn(0, &[], &[("a", 1)]),
            txn(1, &[], &[("a", 9)]).with_template_class(TemplateClass::Safe),
        ];
        assert_eq!(
            plan_waves(&widened_after, &WideningTable::default()).validation_failures,
            1
        );
        // The other direction: a registered member lands on an earlier widened member's key.
        let widened_before = vec![
            txn(0, &[], &[("a", 9)]).with_template_class(TemplateClass::Safe),
            txn(1, &[], &[("a", 1)]),
        ];
        assert_eq!(
            plan_waves(&widened_before, &WideningTable::default()).validation_failures,
            1
        );
        // Widened-vs-widened overlap is also caught.
        let both = vec![
            txn(0, &[], &[("a", 9)]).with_template_class(TemplateClass::Safe),
            txn(1, &[("a", genesis_v(0))], &[]).with_template_class(TemplateClass::Safe),
        ];
        assert_eq!(
            plan_waves(&both, &WideningTable::default()).validation_failures,
            1
        );
    }

    #[test]
    fn matrix_widening_requires_every_template_known() {
        // Templates 0 and 1 are mutually clear; template 0 conflicts with itself.
        let table = WideningTable::from_conflicts(&[vec![true, false], vec![false, false]]);
        let clear_pair = vec![
            txn(0, &[], &[("a", 1)]).with_template_id(Some(1)),
            txn(1, &[], &[("a", 2)]).with_template_id(Some(1)),
        ];
        // Template 1 is clear vs itself: both instances widen and the ww overlap is caught
        // by validation instead of a wave break.
        let plan = plan_waves(&clear_pair, &table);
        assert_eq!(plan.widened, vec![true, true]);
        assert_eq!(plan.validation_failures, 1);

        // One wildcard (no template id) disables matrix widening for the whole block.
        let with_wildcard = vec![
            txn(0, &[], &[("a", 1)]).with_template_id(Some(1)),
            txn(1, &[], &[("b", 2)]),
        ];
        let plan = plan_waves(&with_wildcard, &table);
        assert_eq!(plan.widened, vec![false, false]);

        // A template conflicting with itself never widens while present.
        let self_conflicting = vec![
            txn(0, &[], &[("a", 1)]).with_template_id(Some(0)),
            txn(1, &[], &[("b", 2)]).with_template_id(Some(0)),
        ];
        let plan = plan_waves(&self_conflicting, &table);
        assert_eq!(plan.widened, vec![false, false]);
    }

    fn scheduler_matches_serial(
        txns: Vec<Transaction>,
        threads: usize,
        shards: usize,
        needs_validation: bool,
    ) {
        let mut serial_store = seeded_backend(shards);
        let expected = commit::commit_block(&mut serial_store, 1, &txns, needs_validation);

        let shared = into_shared_backend(seeded_backend(shards));
        let mut scheduler = CommitScheduler::new(threads);
        let got = scheduler.commit_block(&shared, 1, &Arc::new(txns), needs_validation);

        assert_eq!(got, expected, "outcome (E={threads}, S={shards})");
        let parallel_store = shared.read();
        assert_eq!(
            format!("{parallel_store:?}"),
            format!("{serial_store:?}"),
            "store state (E={threads}, S={shards})"
        );
    }

    /// A contended block — every edge direction, stale reads, in-block overwrites — commits
    /// bit-identically to the serial reference at every E and S.
    #[test]
    fn wave_execution_matches_serial_on_a_contended_block() {
        let mk = || {
            vec![
                txn(1, &[("acct:0", genesis_v(0))], &[("acct:1", 100)]),
                txn(2, &[("acct:1", genesis_v(1))], &[("acct:2", 200)]), // stale once 1 lands
                txn(3, &[("acct:5", (9, 9))], &[("acct:6", 300)]),       // stale vs genesis
                txn(4, &[], &[("acct:1", 400)]),                         // ww with txn 1
                txn(5, &[("acct:30", genesis_v(30))], &[("acct:31", 500)]),
                txn(6, &[("acct:2", genesis_v(2))], &[]), // reads txn 2's key
            ]
        };
        for threads in [0, 1, 2, 4] {
            for shards in [0, 2, 4] {
                for needs_validation in [true, false] {
                    scheduler_matches_serial(mk(), threads, shards, needs_validation);
                }
            }
        }
    }

    /// A forged Safe tag on a conflicting transaction triggers the serial fallback — and the
    /// result is still bit-identical.
    #[test]
    fn fallback_reexecution_is_bit_identical() {
        let mk = || {
            vec![
                txn(1, &[], &[("acct:1", 100)]),
                txn(2, &[("acct:1", genesis_v(1))], &[("acct:2", 200)])
                    .with_template_class(TemplateClass::Safe), // forged: overlaps txn 1
                txn(3, &[], &[("acct:3", 300)]),
            ]
        };
        for shards in [0, 2] {
            scheduler_matches_serial(mk(), 2, shards, true);
        }
        let shared = into_shared_backend(seeded_backend(0));
        let mut scheduler = CommitScheduler::new(2);
        scheduler.commit_block(&shared, 1, &Arc::new(mk()), true);
        let stats = scheduler.stats();
        assert_eq!(stats.reexecutions, 1);
        assert!(stats.validation_failures >= 1);
    }

    /// Wide waves exercise the parallel probe and the per-shard parallel apply.
    #[test]
    fn wide_blocks_take_the_parallel_paths() {
        // 80 disjoint writers (one wave, > both thresholds) plus a conflicting tail.
        let mut txns: Vec<Transaction> = (0..80)
            .map(|i| {
                txn(
                    i,
                    &[(&format!("acct:{}", i % 40), genesis_v(i % 40))],
                    &[(&format!("wide:{i}"), i as i64)],
                )
            })
            .collect();
        txns.push(txn(80, &[("wide:0", (0, 0))], &[("wide:1", -1)]));
        for needs_validation in [true, false] {
            scheduler_matches_serial(txns.clone(), 4, 4, needs_validation);
        }

        let shared = into_shared_backend(seeded_backend(4));
        let mut scheduler = CommitScheduler::new(4);
        scheduler.commit_block(&shared, 1, &Arc::new(txns), true);
        let stats = scheduler.stats();
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.waves, 2);
        assert!(scheduler.take_commit_samples().len() == 1);
    }

    #[test]
    fn empty_blocks_and_inline_mode_advance_height_only() {
        let shared = into_shared_backend(seeded_backend(0));
        let mut scheduler = CommitScheduler::new(2);
        let outcome = scheduler.commit_block(&shared, 1, &Arc::new(Vec::new()), true);
        assert!(outcome.statuses.is_empty());
        assert_eq!(shared.read().last_block(), 1);
        // No waves were planned for the empty block.
        assert_eq!(scheduler.stats(), WaveStats::default());

        let mut inline = CommitScheduler::new(0);
        let outcome = inline.commit_block(&shared, 2, &Arc::new(Vec::new()), true);
        assert!(outcome.statuses.is_empty());
        assert_eq!(inline.stats(), WaveStats::default());
        assert_eq!(inline.take_commit_samples().len(), 1);
    }

    #[test]
    fn wave_stats_ratios() {
        let stats = WaveStats {
            blocks: 4,
            waves: 10,
            scheduled_txns: 100,
            ..WaveStats::default()
        };
        assert!((stats.waves_per_block() - 2.5).abs() < 1e-9);
        assert!((stats.mean_wave_width() - 10.0).abs() < 1e-9);
        assert_eq!(WaveStats::default().waves_per_block(), 0.0);
        assert_eq!(WaveStats::default().mean_wave_width(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::TemplateClass;
    use eov_vstore::into_shared_backend;
    use proptest::prelude::*;

    /// Random transactions over a small key pool: (id, reads, writes, forged-safe).
    fn arb_txns() -> impl Strategy<Value = Vec<Transaction>> {
        proptest::collection::vec(
            (
                proptest::collection::vec((0u8..12, 0u64..3, 0u32..3), 0..3),
                proptest::collection::vec((0u8..12, -50i64..50), 0..3),
                0u8..2,
            ),
            0..24,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (reads, writes, safe))| {
                    let safe = safe == 1;
                    let t = Transaction::from_parts(
                        i as u64 + 1,
                        0,
                        reads
                            .into_iter()
                            .map(|(key, b, s)| (Key::new(format!("k{key}")), SeqNo::new(b, s))),
                        writes
                            .into_iter()
                            .map(|(key, v)| (Key::new(format!("k{key}")), Value::from_i64(v))),
                    );
                    if safe {
                        t.with_template_class(TemplateClass::Safe)
                    } else {
                        t
                    }
                })
                .collect()
        })
    }

    fn seeded(shards: usize) -> StoreBackend {
        let mut backend = StoreBackend::for_shards(shards);
        backend.seed_genesis((0..12).map(|i| (Key::new(format!("k{i}")), Value::from_i64(i))));
        backend
    }

    proptest! {
        /// Every wave is an antichain: among its non-widened members, no read/write or
        /// write/write key overlap in either direction; and wave concatenation equals the
        /// committed topo order (waves are contiguous, strictly increasing runs).
        #[test]
        fn waves_are_antichains_and_concatenate_to_block_order(txns in arb_txns()) {
            let plan = plan_waves(&txns, &WideningTable::default());
            // Contiguity/concatenation: strictly increasing starts, beginning at 0.
            if !txns.is_empty() {
                prop_assert_eq!(plan.wave_starts[0], 0);
            }
            prop_assert!(plan.wave_starts.windows(2).all(|w| w[0] < w[1]));

            for k in 0..plan.wave_count() {
                let members: Vec<usize> = plan
                    .wave_range(k)
                    .filter(|i| !plan.widened[*i])
                    .collect();
                for (ai, &a) in members.iter().enumerate() {
                    for &b in &members[ai + 1..] {
                        let (ta, tb) = (&txns[a], &txns[b]);
                        let ww = ta.write_set.iter().any(|w| {
                            tb.write_set.iter().any(|x| x.key == w.key)
                        });
                        let a_reads_b = ta.read_set.iter().any(|r| {
                            tb.write_set.iter().any(|x| x.key == r.key)
                        });
                        let b_reads_a = tb.read_set.iter().any(|r| {
                            ta.write_set.iter().any(|x| x.key == r.key)
                        });
                        prop_assert!(
                            !(ww || a_reads_b || b_reads_a),
                            "wave {} members {} and {} overlap", k, a, b
                        );
                    }
                }
                // Widened members either truly don't overlap their wave, or the probe
                // counted a validation failure (checked globally below on the re-plan).
            }

            // A widened member that overlaps its wave must have been flagged: re-plan with
            // widening off and compare — any same-wave overlap among all members implies
            // validation_failures > 0 in the widened plan.
            for k in 0..plan.wave_count() {
                let members: Vec<usize> = plan.wave_range(k).collect();
                let mut overlap = false;
                for (ai, &a) in members.iter().enumerate() {
                    for &b in &members[ai + 1..] {
                        let (ta, tb) = (&txns[a], &txns[b]);
                        let hit = ta.write_set.iter().any(|w| {
                            tb.write_set.iter().any(|x| x.key == w.key)
                                || tb.read_set.iter().any(|x| x.key == w.key)
                        }) || tb.write_set.iter().any(|w| {
                            ta.read_set.iter().any(|x| x.key == w.key)
                        });
                        overlap = overlap || hit;
                    }
                }
                if overlap {
                    prop_assert!(plan.validation_failures > 0);
                }
            }
        }

        /// Wave planning is a pure function: two runs over the same block are identical
        /// (the bench_gate reproducibility property, pinned here at the unit level).
        #[test]
        fn planning_is_reproducible(txns in arb_txns()) {
            let a = plan_waves(&txns, &WideningTable::default());
            let b = plan_waves(&txns, &WideningTable::default());
            prop_assert_eq!(a, b);
        }

        /// End-to-end bit-identity: the scheduler's outcome and resulting store state equal
        /// the serial reference for random blocks — including blocks whose forged Safe tags
        /// force the fallback.
        #[test]
        fn scheduler_commits_match_serial(txns in arb_txns(), shards in 0usize..3) {
            let shards = if shards == 1 { 2 } else { shards }; // 0 or 2: both backends
            for needs_validation in [true, false] {
                let mut serial_store = seeded(shards);
                let expected =
                    commit::commit_block(&mut serial_store, 1, &txns, needs_validation);

                let shared = into_shared_backend(seeded(shards));
                let mut scheduler = CommitScheduler::new(2);
                let got = scheduler.commit_block(
                    &shared,
                    1,
                    &Arc::new(txns.clone()),
                    needs_validation,
                );
                prop_assert_eq!(&got, &expected);
                let parallel_store = shared.read();
                prop_assert_eq!(
                    format!("{:?}", &*parallel_store),
                    format!("{:?}", &serial_store)
                );
            }
        }
    }
}

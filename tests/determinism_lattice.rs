//! The determinism lattice: every engine configuration must produce the reference ledger.
//!
//! Orderers must form identical blocks (the replication requirement of §3.5), so the engine
//! knobs — key-space store shards `S` (`CcConfig::store_shards`), commit execution threads
//! `E` (`CcConfig::execution_threads`) and the template fast path
//! (`CcConfig::template_fastpath`) — may change how a run executes but never what it commits.
//! [`LATTICE`] is the one table of knob values. Each row names a check and the
//! `S × E × fast path` points it covers; every point is compared to the reference
//! configuration, `S0/E0` with the fast path off:
//!
//! - [`Check::Sim`]: whole simulator runs. The reference runs once per (base, system, mix,
//!   seed) cell. Every point must reproduce its report (every field except wall-clock
//!   timings), its ledger block for block (a failure names the first divergent entry), its
//!   tip hash and its store histories. `E >= 1` points must also leave the store
//!   byte-identical to the same-`S` `E0` run and plan the same waves as every other `E >= 1`
//!   point of the cell.
//! - [`Check::Lockstep`]: FabricSharp `SimpleChain`s, one per point, driven transaction by
//!   transaction (or in batches endorsed against one snapshot) must agree on every
//!   endorsement, decision and commit order, keep a serializable history, and end with the
//!   same ledger.
//! - [`Check::Recovery`]: controllers recovered from a ledger prefix must resume at the same
//!   block, know the same transactions, give the same verdicts on fresh arrivals and cut the
//!   same next block; the prefix replayed into every store backend must answer every read
//!   identically.
//! - [`Orderer`]: the raw `FabricSharpCC` fast path keeps safe transactions out of the
//!   graph and preserves the commit sequence.

mod support;

use fabricsharp::baselines::{SimpleChain, SystemKind};
use fabricsharp::common::abort::AbortReason;
use fabricsharp::common::config::{CcConfig, WorkloadParams};
use fabricsharp::common::rwset::{Key, Value};
use fabricsharp::common::txn::{CommitDecision, TemplateClass, Transaction, TxnId, TxnStatus};
use fabricsharp::common::version::SeqNo;
use fabricsharp::core::recovery::recover_from_ledger;
use fabricsharp::core::serializability::is_serializable;
use fabricsharp::core::{FabricSharpCC, WaveStats};
use fabricsharp::ledger::{Block, Ledger, TxnEntry};
use fabricsharp::sim::runner::{SimulationConfig, Simulator};
use fabricsharp::sim::SimReport;
use fabricsharp::vstore::{StateRead, StateStore, StoreBackend};
use fabricsharp::workload::generator::{TxnTemplate, WorkloadGenerator, WorkloadKind};
use fabricsharp::workload::YcsbProfile;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use support::{assert_controllers_equivalent, assert_ledgers_match, first_divergence, prefix_of};

use Check::*;
use Mix::*;
use SystemKind::*;

/// Every point of the lattice. Rows that share a simulator cell share its reference run.
#[rustfmt::skip]
const LATTICE: &[Row] = &[
    // Store shards, every system: modified Smallbank and half-cross-shard YCSB-A.
    Row { check: Sim { base: B1, systems: ALL, seeds: &[1, 42], runs: 1 },
          mixes: &[ModifiedSmallbank, YcsbACross(4, 0.5)],
          shards: &[1, 2, 4], threads: &[0], fastpath: &[false] },
    // Every transaction cross-shard: the coordinator's worst case.
    Row { check: Sim { base: B1, systems: &[FabricSharp], seeds: &[3], runs: 1 },
          mixes: &[YcsbFCross(2, 1.0)],
          shards: &[2], threads: &[0], fastpath: &[false] },
    // Formation over sharded graphs composed with wave commit.
    Row { check: Sim { base: B1, systems: ALL, seeds: &[1, 7, 42], runs: 1 },
          mixes: &[ModifiedSmallbank, YcsbFCross(4, 1.0)],
          shards: &[0, 2, 4], threads: &[0, 2], fastpath: &[false] },
    // Wave commit at every thread count: wide conflict-free waves (write-partitioned YCSB-B)
    // and mostly singleton waves with serial fallbacks (all-cross-shard YCSB-F).
    Row { check: Sim { base: B2, systems: ALL, seeds: &[7], runs: 1 },
          mixes: &[YcsbBPart(0.2), YcsbFCross(4, 1.0)],
          shards: &[0, 2, 4], threads: &[0, 1, 2, 4], fastpath: &[false] },
    // The most parallel point, run twice: no scheduling nondeterminism across invocations.
    Row { check: Sim { base: B2, systems: &[FabricSharp], seeds: &[7], runs: 2 },
          mixes: &[YcsbFCross(4, 1.0)],
          shards: &[4], threads: &[4], fastpath: &[false] },
    // Fast path on: all-safe (YCSB-C), fresh writers (CreateAccount), instance-rescued
    // (write-partitioned YCSB-B) and all-unknown mixes, where the knob must be inert.
    Row { check: Sim { base: B1, systems: ALL, seeds: &[7, 42], runs: 1 },
          mixes: &[YcsbC, CreateAccount, YcsbBPart(0.125), YcsbA, ModifiedSmallbank],
          shards: &[0, 2, 4], threads: &[0], fastpath: &[true] },
    // Cross-shard Smallbank transfers and all-cross YCSB-F through the sharded graph.
    Row { check: Lockstep { accounts: 12, txns: 120, cadence: 8, batch: false },
          mixes: &[MixedSmallbank(0.8), YcsbFCross(2, 1.0)],
          shards: &[2], threads: &[0], fastpath: &[false] },
    Row { check: Lockstep { accounts: 12, txns: 160, cadence: 10, batch: false },
          mixes: &[YcsbFCross(4, 1.0)],
          shards: &[4], threads: &[0], fastpath: &[false] },
    // Wave commit per transaction, and per block of transactions endorsed at one snapshot.
    Row { check: Lockstep { accounts: 12, txns: 120, cadence: 10, batch: false },
          mixes: &[YcsbFCross(4, 1.0)],
          shards: &[4], threads: &[2], fastpath: &[false] },
    Row { check: Lockstep { accounts: 12, txns: 120, cadence: 10, batch: true },
          mixes: &[YcsbFCross(4, 1.0)],
          shards: &[4], threads: &[0, 2], fastpath: &[false] },
    // Safe and generic traffic interleaved on the fast path.
    Row { check: Lockstep { accounts: 24, txns: 120, cadence: 10, batch: false },
          mixes: &[YcsbC, YcsbA, YcsbBPart(0.125), CreateAccount],
          shards: &[0, 2], threads: &[0], fastpath: &[true] },
    // Recovery from a mid-run prefix across shardings.
    Row { check: Recovery { accounts: 16, txns: 16..48, cadence: 2..6, cut: 30..95 },
          mixes: &[MixedSmallbank(0.7)],
          shards: &[2, 4], threads: &[0], fastpath: &[false] },
    Row { check: Recovery { accounts: 12, txns: 16..40, cadence: 2..6, cut: 30..95 },
          mixes: &[MixedSmallbank(0.7)],
          shards: &[2, 4], threads: &[0], fastpath: &[false] },
    // Recovery of whole fast-path ledgers: with every transaction safe (CreateAccount)
    // nothing in the suffix was graph-inserted; write-partitioned YCSB-B interleaves
    // untracked and graph-inserted commits inside every block.
    Row { check: Recovery { accounts: 16, txns: 20..48, cadence: 3..7, cut: 100..101 },
          mixes: &[CreateAccount],
          shards: &[0, 2, 4], threads: &[0], fastpath: &[false, true] },
    Row { check: Recovery { accounts: 64, txns: 24..44, cadence: 4..8, cut: 100..101 },
          mixes: &[YcsbBPart(0.25)],
          shards: &[0, 2, 4], threads: &[0], fastpath: &[false, true] },
    Row { check: Recovery { accounts: 12, txns: 20..40, cadence: 3..7, cut: 100..101 },
          mixes: &[CreateAccount],
          shards: &[0, 2, 4], threads: &[0], fastpath: &[true] },
    // The raw orderer's fast path.
    Row { check: Orderer,
          mixes: &[],
          shards: &[0, 2, 4], threads: &[0], fastpath: &[true] },
];

const ALL: &[SystemKind] = &[Fabric, FabricPlusPlus, FabricSharp, FoccS, FoccL];

#[rustfmt::skip]
const B1: Base = Base { name: "B1", duration_s: 1.2, accounts: 400, tps: 400, block: 40 };
#[rustfmt::skip]
const B2: Base = Base { name: "B2", duration_s: 1.0, accounts: 300, tps: 300, block: 30 };

/// The workload seed of every lockstep row.
const LOCKSTEP_SEED: u64 = 99;

/// One row of [`LATTICE`]: a check over `mixes × shards × threads × fastpath`.
struct Row {
    check: Check,
    mixes: &'static [Mix],
    shards: &'static [usize],
    threads: &'static [usize],
    fastpath: &'static [bool],
}

/// What a row checks, with the parameters its driver needs.
#[rustfmt::skip]
enum Check {
    /// Simulator runs of `systems × seeds`; every point runs `runs` times.
    Sim { base: Base, systems: &'static [SystemKind], seeds: &'static [u64], runs: usize },
    /// FabricSharp chains over `txns` transactions, sealing every `cadence`; `batch`
    /// endorses each block's transactions against one snapshot.
    Lockstep { accounts: usize, txns: usize, cadence: usize, batch: bool },
    /// Controllers recovered from a random FabricSharp ledger of `txns` transactions, sealed
    /// every `cadence` and cut at `cut` percent of its height.
    Recovery { accounts: usize, txns: Range<usize>, cadence: Range<usize>, cut: Range<usize> },
    /// Raw `FabricSharpCC` fast-path checks.
    Orderer,
}

/// Simulator run parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Base {
    name: &'static str,
    duration_s: f64,
    accounts: usize,
    tps: u64,
    block: usize,
}

/// A workload mix of the lattice.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mix {
    ModifiedSmallbank,
    /// Mixed Smallbank at Zipf skew θ.
    MixedSmallbank(f64),
    CreateAccount,
    YcsbA,
    /// YCSB-A over `.0` shards with cross-shard fraction `.1`.
    YcsbACross(usize, f64),
    /// YCSB-B with writes confined to the top `.0` of the key space.
    YcsbBPart(f64),
    YcsbC,
    /// YCSB-F over `.0` shards with cross-shard fraction `.1`.
    YcsbFCross(usize, f64),
}

impl Mix {
    fn kind(self) -> WorkloadKind {
        let ycsb = WorkloadKind::Ycsb;
        match self {
            ModifiedSmallbank => WorkloadKind::ModifiedSmallbank,
            MixedSmallbank(theta) => WorkloadKind::MixedSmallbank { theta },
            CreateAccount => WorkloadKind::CreateAccount,
            YcsbA => ycsb(YcsbProfile::a()),
            YcsbACross(shards, fraction) => {
                ycsb(YcsbProfile::a().with_cross_shard(shards, fraction))
            }
            YcsbBPart(fraction) => ycsb(YcsbProfile::b().with_write_partition(fraction)),
            YcsbC => ycsb(YcsbProfile::c()),
            YcsbFCross(shards, fraction) => {
                ycsb(YcsbProfile::f().with_cross_shard(shards, fraction))
            }
        }
    }
}

/// One engine configuration. Field order is the sort order: within a fast-path setting and a
/// shard count, the `E0` point comes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Knob {
    fastpath: bool,
    shards: usize,
    threads: usize,
}

impl Knob {
    #[rustfmt::skip]
    const REFERENCE: Knob = Knob { fastpath: false, shards: 0, threads: 0 };

    fn cc(self) -> CcConfig {
        CcConfig {
            store_shards: self.shards,
            execution_threads: self.threads,
            template_fastpath: self.fastpath,
            ..CcConfig::default()
        }
    }
}

impl fmt::Display for Knob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fastpath = if self.fastpath { "/fastpath" } else { "" };
        write!(f, "S{}/E{}{fastpath}", self.shards, self.threads)
    }
}

impl Row {
    /// The row's points.
    fn knobs(&self) -> Vec<Knob> {
        let mut knobs = Vec::new();
        for &fastpath in self.fastpath {
            for &shards in self.shards {
                for &threads in self.threads {
                    knobs.push(Knob {
                        fastpath,
                        shards,
                        threads,
                    });
                }
            }
        }
        knobs
    }

    /// The reference followed by the row's other points.
    fn knobs_after_reference(&self) -> Vec<Knob> {
        let mut knobs = vec![Knob::REFERENCE];
        knobs.extend(self.knobs().into_iter().filter(|k| *k != Knob::REFERENCE));
        knobs
    }

    /// Whether transactions carry the analyzer's instance class, as the simulator tags them:
    /// only rows that switch the fast path on depend on it.
    fn tagged(&self) -> bool {
        self.fastpath.contains(&true)
    }
}

// --- Simulator runs -----------------------------------------------------------------------

/// A simulator cell's reference configuration and how often each of its points runs.
type Cell = (SimulationConfig, BTreeMap<Knob, usize>);

/// The simulator cells of `system` by name, merged across rows so a point listed by several
/// rows runs once (or as often as the most demanding row asks).
fn sim_cells(system: SystemKind) -> BTreeMap<String, Cell> {
    let mut cells = BTreeMap::new();
    for row in LATTICE {
        let Sim {
            base,
            systems,
            seeds,
            runs,
        } = row.check
        else {
            continue;
        };
        if !systems.contains(&system) {
            continue;
        }
        for &mix in row.mixes {
            for &seed in seeds {
                let name = format!("{system}/{}/{mix:?}/seed{seed}", base.name);
                let (_, points) = cells.entry(name).or_insert_with(|| {
                    let mut config = SimulationConfig::new(system, mix.kind());
                    config.duration_s = base.duration_s;
                    config.params.num_accounts = base.accounts;
                    config.params.request_rate_tps = base.tps;
                    config.block.max_txns_per_block = base.block;
                    config.seed = seed;
                    (config, BTreeMap::from([(Knob::REFERENCE, 1)]))
                });
                for knob in row.knobs() {
                    let count = points.entry(knob).or_insert(0);
                    *count = (*count).max(runs);
                }
            }
        }
    }
    cells
}

/// Asserts every report field that does not measure wall-clock time matches. `wave` and
/// `fastpath_accepted` describe how a point executed and are checked per point instead.
fn assert_reports_match(ctx: &str, want: &SimReport, got: &SimReport) {
    // Destructuring without `..` turns a new report field into a compile error here.
    #[rustfmt::skip]
    let SimReport {
        system, duration_s, offered, in_ledger, committed, aborts, blocks, avg_latency_ms,
        avg_block_span, avg_hops, committed_with_anti_rw, safe_tagged, conflict_matrix,
        occupancy, measured_reorder_ms_per_block: _, measured_arrival_us_per_txn: _,
        formation: _, commit: _, wave: _, fastpath_accepted: _,
    } = got;
    macro_rules! same {
        ($($field:ident),+) => {
            $(assert_eq!(&want.$field, $field, "{ctx}: {}", stringify!($field));)+
        };
    }
    // Abort counts by reason pin the verdicts, bloom false positives included: a single
    // divergent accept/reject shifts a reason bucket.
    same! {
        system, duration_s, offered, in_ledger, committed, aborts, blocks, avg_latency_ms,
        avg_block_span, avg_hops, committed_with_anti_rw, safe_tagged, conflict_matrix,
        occupancy
    }
}

/// Runs every simulator cell of `system` against its reference.
fn check_sim(system: SystemKind) {
    for (name, (config, points)) in sim_cells(system) {
        let run = |knob: Knob| {
            Simulator::run_full(&SimulationConfig {
                cc: knob.cc(),
                ..config.clone()
            })
        };
        let reference = run(Knob::REFERENCE);
        let (want, want_ledger, want_store) = &reference;
        assert!(want.committed > 0, "{name}: reference run must commit work");

        // The `Debug` of the first `E0` store at each (fast path, S): the oracle for `E >= 1`.
        let mut serial_stores = BTreeMap::new();
        let (mut cell_wave, mut cell_accepted) = (None, None);
        for (&knob, &runs) in &points {
            for repeat in 0..runs {
                let (got, ledger, store) = if knob == Knob::REFERENCE && repeat == 0 {
                    reference.clone()
                } else {
                    run(knob)
                };
                let ctx = format!("{name}/{knob}");
                assert_reports_match(&ctx, want, &got);
                assert_ledgers_match(&ctx, want_ledger, &ledger);
                assert_eq!(want_ledger.tip_hash(), ledger.tip_hash(), "{ctx}: tip");
                assert!(ledger.verify_integrity().is_ok(), "{ctx}: integrity");
                assert_eq!(want_store.last_block(), store.last_block(), "{ctx}: height");
                assert_eq!(want_store.histories(), store.histories(), "{ctx}: store");
                if knob.shards >= 1 {
                    assert_eq!(store.shard_count(), knob.shards, "{ctx}: shards");
                }

                let serial = (knob.fastpath, knob.shards);
                let listed = knob.threads == 0 || serial_stores.contains_key(&serial);
                assert!(listed, "{ctx}: the lattice must list the same-S E0 point");
                let store = format!("{store:?}");
                let serial = serial_stores.entry(serial).or_insert_with(|| store.clone());
                assert_eq!(*serial, store, "{ctx}: store differs from the E0 run");

                // The wave decomposition is a pure function of the committed blocks: zeros at
                // E0, and the same plan at every E >= 1.
                if knob.threads == 0 {
                    assert_eq!(got.wave, WaveStats::default(), "{ctx}: E0 planned waves");
                } else {
                    assert!(got.wave.blocks > 0, "{ctx}: scheduler must plan waves");
                    let wave = *cell_wave.get_or_insert(got.wave);
                    assert_eq!(wave, got.wave, "{ctx}: wave decomposition diverged");
                }
                let accepted = match knob.fastpath {
                    true => *cell_accepted.get_or_insert(got.fastpath_accepted),
                    false => 0,
                };
                assert_eq!(accepted, got.fastpath_accepted, "{ctx}: fastpath_accepted");
            }
        }
    }
}

/// One test per system, so the systems run in parallel.
macro_rules! sim_tests {
    ($($test:ident: $system:ident),+) => {
        $(#[test] fn $test() { check_sim($system) })+
    };
}
sim_tests! {
    sim_lattice_fabric: Fabric,
    sim_lattice_fabric_plus_plus: FabricPlusPlus,
    sim_lattice_fabricsharp: FabricSharp,
    sim_lattice_focc_s: FoccS,
    sim_lattice_focc_l: FoccL
}

// --- Chains in lockstep --------------------------------------------------------------------

/// A template with the analyzer's instance class, when the row tags transactions.
type Tagged = (TxnTemplate, Option<TemplateClass>);

/// Endorses `template` on `chain`, against `snapshot` when given.
fn endorse(
    chain: &mut SimpleChain,
    snapshot: Option<u64>,
    (template, class): &Tagged,
) -> Transaction {
    let txn = match snapshot {
        Some(height) => chain.execute_at(height, |ctx| template.run(ctx)),
        None => chain.execute(|ctx| template.run(ctx)),
    };
    match class {
        Some(class) => txn.with_template_class(*class),
        None => txn,
    }
}

/// The workload generator of a lockstep or recovery row.
fn generator(row: &Row, mix: Mix, seed: u64) -> WorkloadGenerator {
    let (Lockstep { accounts, .. } | Recovery { accounts, .. }) = row.check else {
        unreachable!("only chain rows generate workloads");
    };
    let params = WorkloadParams {
        num_accounts: accounts,
        ..WorkloadParams::default()
    };
    WorkloadGenerator::new(mix.kind(), params, seed)
}

/// Drives one FabricSharp chain per point of `row` (the reference first) over `txns`
/// transactions of `mix`, sealing every `cadence`, and asserts they agree on every
/// endorsement, decision and commit order, keep serializable histories, and end with the
/// same ledger. Returns the chains.
fn lockstep(row: &Row, mix: Mix, seed: u64, txns: usize, cadence: usize) -> Vec<SimpleChain> {
    let name = format!("{mix:?}/seed{seed}");
    let batch = matches!(row.check, Lockstep { batch: true, .. });
    let knobs = row.knobs_after_reference();
    let mut generator = generator(row, mix, seed);
    let analyzer = generator.analyzer();
    let mut chains: Vec<_> = knobs
        .iter()
        .map(|k| SimpleChain::with_cc_config(FabricSharp, k.cc()))
        .collect();
    for chain in &mut chains {
        chain.seed(generator.genesis());
    }

    for start in (0..txns).step_by(cadence) {
        let block: Vec<Tagged> = (start..txns.min(start + cadence))
            .map(|_| {
                let template = generator.next_template();
                let class = row.tagged().then(|| analyzer.classify_instance(&template));
                (template, class)
            })
            .collect();
        let mut expected = None;
        for (knob, chain) in knobs.iter().zip(&mut chains) {
            let ctx = format!("{name}/{knob}");
            let outcomes: Vec<(Transaction, CommitDecision)> = if batch {
                let snapshot = Some(chain.ledger().height());
                let txns: Vec<_> = block.iter().map(|t| endorse(chain, snapshot, t)).collect();
                txns.into_iter()
                    .map(|txn| (txn.clone(), chain.submit(txn)))
                    .collect()
            } else {
                let submit = |t| {
                    let txn = endorse(chain, None, t);
                    (txn.clone(), chain.submit(txn))
                };
                block.iter().map(submit).collect()
            };
            let sealed = chain.seal_block();
            let sealed = (sealed.block_number, sealed.committed);
            let (want, want_sealed) =
                expected.get_or_insert_with(|| (outcomes.clone(), sealed.clone()));
            if let Some(i) = (0..outcomes.len()).find(|&i| outcomes[i] != want[i]) {
                let (txn, want, got) = (start + i, &want[i], &outcomes[i]);
                panic!("{ctx}: txn {txn}: expected {want:?}, found {got:?}");
            }
            assert_eq!(*want_sealed, sealed, "{ctx}: block of txn {start}");
            let serializable = is_serializable(chain.committed_history());
            assert!(serializable, "{ctx}: non-serializable after txn {start}");
        }
    }

    let (reference, candidates) = chains.split_first().expect("the reference chain");
    let want = reference.ledger();
    assert!(want.committed_txn_count() > 0, "{name}: no commits");
    for (knob, chain) in knobs[1..].iter().zip(candidates) {
        let ctx = format!("{name}/{knob}");
        assert_ledgers_match(&ctx, want, chain.ledger());
        assert_eq!(want.tip_hash(), chain.ledger().tip_hash(), "{ctx}: tip");
        let intact = chain.ledger().verify_integrity().is_ok();
        assert!(intact, "{ctx}: integrity");
        // Early aborts carry the cycle verdicts, bloom false positives included.
        let verdicts = reference.early_aborted() == chain.early_aborted();
        assert!(verdicts, "{ctx}: early-abort sequences diverged");
        let waved = knob.threads == 0 || chain.wave_stats().scheduled_txns > 0;
        assert!(waved, "{ctx}: the waved chain must schedule transactions");
    }
    chains
}

#[test]
fn lockstep_chains_agree() {
    for row in LATTICE {
        if let Lockstep { txns, cadence, .. } = row.check {
            for &mix in row.mixes {
                lockstep(row, mix, LOCKSTEP_SEED, txns, cadence);
            }
        }
    }
}

// --- Recovered controllers -----------------------------------------------------------------

/// Rebuilds a controller from `ledger` under `knob`.
fn recovered(ledger: &Ledger, knob: Knob) -> FabricSharpCC {
    let config = CcConfig {
        track_exact_reachability: true,
        ..knob.cc()
    };
    let (cc, report) = recover_from_ledger(ledger, config).expect("prefix ledger verifies");
    assert_eq!(report.ledger_height, ledger.height());
    cc
}

/// A Smallbank probe's (account, read-version block, read-version sequence) pick.
type Pick = (usize, u64, u32);

/// Fresh arrivals whose verdicts depend on everything recovery rebuilt. Every probe keeps
/// the fast-path contract on every recovery mix: the safe-tagged ones touch only keys no
/// mix writes (fresh accounts, and YCSB reads below the write partition).
fn probes(height: u64, picks: &[Vec<Pick>]) -> Vec<Transaction> {
    let key = |table: &str, i: u64| Key::new(format!("{table}:{i}"));
    let value = Value::from_i64;
    let safe = TemplateClass::Safe;
    // Smallbank read-write probes with arbitrary read versions.
    let mut probes: Vec<Transaction> = (10_000..)
        .zip(picks)
        .map(|(id, picks)| {
            let version = |block: u64, seq: u32| SeqNo::new(block % (height + 1), seq % 4);
            let reads = picks
                .iter()
                .map(|&(a, b, s)| (key("checking", a as u64), version(b, s)));
            let writes = picks
                .iter()
                .map(|&(a, _, _)| (key("savings", a as u64), value(id as i64)));
            Transaction::from_parts(id, height, reads, writes)
        })
        .collect();
    for i in 0..6u64 {
        // A fresh account nobody else touches.
        let (id, snapshot) = (100_000 + i, height.saturating_sub(i % 3));
        let writes = [key("checking", id), key("savings", id)].map(|k| (k, value(1_000)));
        probes.push(Transaction::from_parts(id, snapshot, [], writes).with_template_class(safe));
        // A read below a quarter-width YCSB write partition, or a writer into its tail.
        let id = 200_000 + i;
        probes.push(if i % 2 == 0 {
            let reads = [(key("usertable", i % 48), SeqNo::zero())];
            Transaction::from_parts(id, height, reads, []).with_template_class(safe)
        } else {
            Transaction::from_parts(id, height, [], [(key("usertable", 48 + i % 16), value(1))])
        });
    }
    probes
}

/// `draw` reduced into `range`.
fn within(range: &Range<usize>, draw: u64) -> usize {
    range.start + (draw % (range.end - range.start) as u64) as usize
}

/// Builds the row's ledger with one chain per point, recovers a controller per point from
/// its own chain's prefix of `cut` percent and compares it to the reference, then replays
/// the prefix into every store backend.
fn check_recovery(row: &Row, mix: Mix, seed: u64, sizes: [usize; 3], picks: &[Vec<Pick>]) {
    let [txns, cadence, cut] = sizes;
    let knobs = row.knobs_after_reference();
    let chains = lockstep(row, mix, seed, txns, cadence);
    let full = chains[0].ledger();
    assert!(full.height() >= 2, "degenerate run: {txns} txns");
    let height = (full.height() * cut as u64 / 100).max(1);
    let name = format!("{mix:?}/seed{seed}/{txns}txns/cut{height}");

    let reference_prefix = prefix_of(full, height);
    let reference = recovered(&reference_prefix, Knob::REFERENCE);
    let graph = reference.graph();
    // Recovery replays the last `max_span` blocks; the fast path logs their safe commits as
    // untracked instead of inserting graph nodes.
    let replay_from = height.saturating_sub(CcConfig::default().max_span).max(1);
    for (&knob, chain) in knobs.iter().zip(&chains).skip(1) {
        let ctx = format!("{name}/{knob}");
        let prefix = prefix_of(chain.ledger(), height);
        let candidate = recovered(&prefix, knob);
        let (got, entries) = (candidate.graph(), prefix.iter().flat_map(|b| &b.entries));
        if knob.fastpath {
            assert!(got.len() <= graph.len(), "{ctx}: graph size");
            let replayed = |e: &&TxnEntry| e.slot.block >= replay_from && e.status.is_committed();
            for id in entries.filter(replayed).map(|e| e.txn.id) {
                assert!(got.knows(id), "{ctx}: recoverer must know replayed {id:?}");
            }
        } else {
            assert_eq!(got.len(), graph.len(), "{ctx}: graph size");
            for id in entries.map(|e| e.txn.id) {
                assert_eq!(
                    got.contains(id),
                    graph.contains(id),
                    "{ctx}: membership of {id:?}"
                );
            }
        }
        let reference = recovered(&reference_prefix, Knob::REFERENCE);
        assert_controllers_equivalent(candidate, reference, probes(height, picks), &ctx);
    }

    // The store side: the prefix's committed writes replayed into every backend shape must
    // answer every read of every key the run touched identically, at every height.
    let genesis = generator(row, mix, seed).genesis();
    let mut keys: BTreeSet<Key> = genesis.iter().map(|(key, _)| key.clone()).collect();
    let shard_counts: BTreeSet<usize> = knobs.iter().map(|k| k.shards).collect();
    let backends: Vec<(usize, StoreBackend)> = shard_counts
        .into_iter()
        .map(|shards| {
            let mut backend = StoreBackend::for_shards(shards);
            backend.seed_genesis(genesis.clone());
            for block in reference_prefix.iter() {
                let committed: Vec<_> = block.committed().collect();
                keys.extend(
                    committed
                        .iter()
                        .flat_map(|(txn, _)| txn.write_set.iter().map(|w| w.key.clone())),
                );
                backend.apply_block(block.number(), committed);
            }
            (shards, backend)
        })
        .collect();
    let (_, want) = &backends[0];
    assert_eq!(want.last_block(), height, "{name}: replayed store height");
    for (shards, got) in &backends[1..] {
        let ctx = format!("{name}/S{shards} store");
        assert_eq!(want.last_block(), got.last_block(), "{ctx}: height");
        assert_eq!(want.key_count(), got.key_count(), "{ctx}: keys");
        assert_eq!(want.version_count(), got.version_count(), "{ctx}: versions");
        for key in &keys {
            assert_eq!(want.latest(key), got.latest(key), "{ctx}: {key}");
            for block in 0..=height {
                let (want, got) = (want.read_at(key, block), got.read_at(key, block));
                assert_eq!(want.unwrap(), got.unwrap(), "{ctx}: {key} @ {block}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every recovery row, on one random seed, size draw and probe set per case.
    #[test]
    fn recovered_controllers_match_the_reference(
        seed in any::<u64>(),
        draws in (any::<u64>(), any::<u64>(), any::<u64>()),
        picks in proptest::collection::vec(
            proptest::collection::vec((0usize..16, 0u64..12, 0u32..4), 1..4),
            4..10,
        ),
    ) {
        for row in LATTICE {
            if let Recovery { txns, cadence, cut, .. } = &row.check {
                let sizes = [within(txns, draws.0), within(cadence, draws.1), within(cut, draws.2)];
                for &mix in row.mixes {
                    check_recovery(row, mix, seed, sizes, &picks);
                }
            }
        }
    }
}

// --- The raw orderer -----------------------------------------------------------------------

/// The fast-path points of the [`Orderer`] row.
fn orderer_knobs() -> Vec<Knob> {
    LATTICE
        .iter()
        .filter(|r| matches!(r.check, Orderer))
        .flat_map(Row::knobs)
        .collect()
}

/// Structural check that the fast path actually engages: on pure read-only traffic the
/// fast-path controller's graph stays empty (everything lands in the untracked-commit log)
/// while the reference controller's graph grows — and both still cut identical blocks.
#[test]
fn fastpath_keeps_safe_transactions_out_of_the_graph() {
    for knob in orderer_knobs() {
        let mut fast = FabricSharpCC::new(knob.cc());
        let mut reference = FabricSharpCC::with_defaults();

        for batch in 0..4u64 {
            for i in 0..10u64 {
                let id = batch * 10 + i + 1;
                let txn = Transaction::from_parts(
                    id,
                    batch,
                    [(Key::new(format!("u:{}", id % 7)), SeqNo::zero())],
                    [],
                )
                .with_template_class(TemplateClass::Safe);
                assert!(fast.on_arrival(txn.clone()).is_accept());
                assert!(reference.on_arrival(txn).is_accept());
            }
            let cut_fast = fast.cut_block();
            let cut_ref = reference.cut_block();
            let ids_fast: Vec<TxnId> = cut_fast.iter().map(|t| t.id).collect();
            let ids_ref: Vec<TxnId> = cut_ref.iter().map(|t| t.id).collect();
            assert_eq!(
                ids_fast, ids_ref,
                "{knob} batch {batch}: commit order diverged"
            );
            assert_eq!(
                cut_fast.iter().map(|t| t.end_ts).collect::<Vec<_>>(),
                cut_ref.iter().map(|t| t.end_ts).collect::<Vec<_>>(),
                "{knob} batch {batch}: slots diverged"
            );

            assert_eq!(
                fast.graph().len(),
                0,
                "{knob}: fast path must not populate the graph"
            );
            assert!(
                fast.graph().untracked_len() > 0,
                "{knob}: fast path must log untracked commits"
            );
            assert!(
                !reference.graph().is_empty(),
                "reference must track every transaction"
            );
        }
    }
}

mod instance_soundness {
    //! Randomized soundness: for arbitrary write-partition geometry, instance-safe bypass
    //! must preserve the raw orderer's commit sequence (ids *and* slots) exactly, at every
    //! fast-path point of the lattice.

    use super::*;
    use fabricsharp::core::endorser::SnapshotEndorser;
    use fabricsharp::vstore::{MultiVersionStore, SnapshotManager};

    /// Endorses `count` write-partitioned YCSB-B transactions, instance-tagged by the
    /// conflict analyzer, and returns them plus the analyzer's predicted safe count.
    fn endorsed(seed: u64, records: usize, fraction: f64, count: usize) -> (Vec<Transaction>, u64) {
        let kind = WorkloadKind::Ycsb(YcsbProfile::b().with_write_partition(fraction));
        let params = WorkloadParams {
            num_accounts: records,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(kind, params, seed);
        let analyzer = generator.analyzer();
        let mut store = MultiVersionStore::new();
        store.seed_genesis(generator.genesis());
        let snapshots = SnapshotManager::new();
        snapshots.register_block(0);
        let endorser = SnapshotEndorser::new(snapshots);
        let mut predicted = 0u64;
        let txns = (0..count)
            .map(|i| {
                let template = generator.next_template();
                let class = analyzer.classify_instance(&template);
                if class.is_safe() {
                    predicted += 1;
                }
                endorser
                    .simulate_at(&store, TxnId(i as u64 + 1), 0, |ctx| template.run(ctx))
                    .with_template_class(class)
            })
            .collect();
        (txns, predicted)
    }

    /// Runs every arrival plus one cut and returns the committed (id, slot) sequence and the
    /// runtime fast-path bypass count.
    fn commit_sequence(txns: &[Transaction], config: CcConfig) -> (Vec<(TxnId, SeqNo)>, u64) {
        let mut cc = FabricSharpCC::new(config);
        for txn in txns {
            let _ = cc.on_arrival(txn.clone());
        }
        let sequence = cc
            .cut_block()
            .iter()
            .map(|t| (t.id, t.end_ts.expect("cut transactions carry a slot")))
            .collect();
        (sequence, cc.stats().fastpath_accepted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// For any partition geometry, fast path on reproduces the fastpath-off commit
        /// sequence at every S, and the bypass count matches the analyzer's prediction
        /// exactly.
        #[test]
        fn instance_fastpath_preserves_the_commit_sequence(
            seed in 0u64..10_000,
            records in 50usize..500,
            fraction in 0.02f64..0.9,
        ) {
            let (txns, predicted) = endorsed(seed, records, fraction, 120);
            let (reference, _) = commit_sequence(&txns, CcConfig::default());
            prop_assert!(!reference.is_empty(), "reference run must commit work");

            for knob in orderer_knobs() {
                let (fast, bypassed) = commit_sequence(&txns, knob.cc());
                prop_assert_eq!(&reference, &fast, "commit sequence diverged at {}", knob);
                prop_assert_eq!(
                    predicted, bypassed,
                    "analyzer predicted {} safe but {} bypassed {}",
                    predicted, knob, bypassed
                );
            }
        }
    }
}

// --- The divergence report -----------------------------------------------------------------

/// Two hand-built ledgers that differ in one entry's status: the report names that block,
/// entry and transaction, and says the status differs.
#[test]
fn first_divergence_names_the_differing_entry() {
    let build = |aborted: Option<(u64, usize)>| {
        let mut ledger = Ledger::new();
        for height in 1..=3u64 {
            let txn = |i: u64| {
                let write = (Key::new(format!("k{i}")), Value::from_i64(1));
                Transaction::from_parts(height * 10 + i, height - 1, [], [write])
            };
            let mut block = Block::build(height, ledger.tip_hash(), (0..3).map(txn).collect());
            for (index, entry) in block.entries.iter_mut().enumerate() {
                entry.status = match aborted == Some((height, index)) {
                    true => TxnStatus::Aborted(AbortReason::StaleRead),
                    false => TxnStatus::Committed,
                };
            }
            ledger.append(block).expect("hand-built blocks chain");
        }
        ledger
    };
    let (expected, actual) = (build(None), build(Some((2, 1))));

    assert_eq!(first_divergence(&expected, &expected), None);
    let report = first_divergence(&expected, &actual).expect("the ledgers differ");
    assert_eq!(
        report,
        "block 2, entry 1 (txn Txn21): status differs: expected Committed, found \
         Aborted(StaleRead)"
    );
    // The status is not hashed, so the tip hashes agree: only the entry comparison sees it.
    assert_eq!(expected.tip_hash(), actual.tip_hash());
}

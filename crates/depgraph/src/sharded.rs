//! Key-space sharded dependency graph: per-shard [`DependencyGraph`]s plus the cross-shard
//! coordinator for border transactions.
//!
//! Every dependency edge is induced by a key, so the edge set of the global graph partitions
//! cleanly across shards: shard `s` holds the edges whose inducing key routes to `s`. A
//! transaction whose keys all live in one shard (*local*) has exactly one graph node, in that
//! shard. A transaction touching two or more shards (*border*) gets one node copy per touched
//! shard — its edges split across them — and is registered with the coordinator.
//!
//! # The reachability invariant
//!
//! Every copy of every node carries the transaction's **global** `anti_reachable` set (and
//! age). For local-only shards this holds for free: with no border transaction in a shard,
//! everything downstream of a node stays inside the shard, so the shard's own Algorithm 4 walk
//! is the global walk. The moment a border transaction exists, insertion switches to the
//! coordinator's cross-shard walk: node copies are inserted with their per-shard predecessor
//! edges, the copies' reach sets are merged, successor edges are wired per shard without
//! unions, and one global downstream walk (crossing shards at border transactions) applies the
//! delta to *every copy* of every reachable node — the same per-node update, over the same
//! node set, as the unsharded walk.
//!
//! Because bloom filters are order-insensitive bitwise-OR accumulators over transaction ids,
//! maintaining equal reach *sets* yields bit-identical filters — so the arrival-time cycle
//! probe returns the same verdict (including the same false positives) as the unsharded graph,
//! and the topological order (same closure relation, same arrival tie-break) is identical.
//! That is the foundation of the ledger identity `tests/determinism_lattice.rs` checks, and the
//! module's property tests pin it directly against a global reference graph.
//!
//! # Coordinator scratch
//!
//! The coordinator interns every tracked transaction into a dense *global* slot space
//! ([`crate::interner::Interner`]), parallel to the per-shard interners, and runs all of its
//! cross-shard walks (the Algorithm 4 downstream walk, the formation closure sweep, the
//! Algorithm 5 propagation order, exact reachability) on reusable epoch-tagged visited sets
//! ([`crate::visited::EpochVisited`]) over that slot space — the same allocation-free scratch
//! discipline the local engine adopted in the dense-engine rewrite. Walk deltas are *moved*
//! out of a node copy for the duration of a walk and moved back (never cloned), so a warm
//! coordinator updates reachability without allocating.
//!
//! This mirrors the per-partition reasoning of transaction-template robustness work
//! (Vandevoort et al., arXiv:2201.05021): conflicts decompose per key partition, and only the
//! border transactions require cross-partition reasoning.

use crate::bloom::BloomFilter;
use crate::graph::{CycleCheck, DependencyGraph, InsertReport, PendingTxnSpec, TxnNode};
use crate::interner::Interner;
use crate::visited::EpochVisited;
use eov_common::config::CcConfig;
use eov_common::rwset::Key;
use eov_common::txn::TxnId;
use eov_common::version::SeqNo;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One shard's slice of a new transaction: the keys it touches there and the dependency edges
/// induced by those keys.
#[derive(Clone, Debug, Default)]
pub struct ShardDeps {
    /// The shard these keys route to.
    pub shard: usize,
    /// Read keys owned by this shard.
    pub read_keys: Vec<Key>,
    /// Write keys owned by this shard.
    pub write_keys: Vec<Key>,
    /// Predecessors resolved against this shard's indices (deduplicated).
    pub predecessors: Vec<TxnId>,
    /// Successors resolved against this shard's indices (deduplicated).
    pub successors: Vec<TxnId>,
}

/// Global arrival order of the pending set, shared by all shards (the tie-break of the
/// deterministic topological sort).
#[derive(Clone, Debug, Default)]
struct PendingOrder {
    seq_of: HashMap<u64, u64>,
    by_seq: BTreeMap<u64, TxnId>,
    next_seq: u64,
}

impl PendingOrder {
    fn push(&mut self, id: TxnId) {
        if self.seq_of.contains_key(&id.0) {
            return;
        }
        self.seq_of.insert(id.0, self.next_seq);
        self.by_seq.insert(self.next_seq, id);
        self.next_seq += 1;
    }

    fn remove(&mut self, id: TxnId) {
        if let Some(seq) = self.seq_of.remove(&id.0) {
            self.by_seq.remove(&seq);
        }
    }

    fn seq(&self, id: TxnId) -> Option<u64> {
        self.seq_of.get(&id.0).copied()
    }

    fn len(&self) -> usize {
        self.by_seq.len()
    }

    fn iter(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.by_seq.values().copied()
    }
}

/// Reusable coordinator traversal scratch (the cross-shard counterpart of the local engine's
/// `graph::Scratch`). Lives behind a `RefCell` because several walk entry points take `&self`.
#[derive(Clone, Debug, Default)]
struct CoordScratch {
    /// Visited set over the coordinator's global slot space.
    visited: EpochVisited,
    /// DFS stack of global slots.
    stack: Vec<u32>,
    /// Per-successor (global slot, bloom hash pair) cache for the arrival-time cycle probe.
    succ_info: Vec<(Option<u32>, (u64, u64))>,
}

/// The sharded dependency graph: `S` per-shard graphs plus the border-transaction coordinator.
#[derive(Clone, Debug)]
pub struct ShardedDependencyGraph {
    config: CcConfig,
    shards: Vec<DependencyGraph>,
    /// Coordinator interner: txn id → dense global slot (independent of the per-shard slots).
    gid: Interner,
    /// Home shards (ascending) per global slot; stale for vacant slots. `len() > 1` marks a
    /// border transaction.
    homes_at: Vec<Vec<usize>>,
    /// Live border transactions per shard; a shard with zero border txns runs entirely on its
    /// local fast path (its downstream closures cannot leave the shard).
    border_in_shard: Vec<usize>,
    /// Live border transactions in total; zero means the global graph is a disjoint union of
    /// the per-shard graphs and the coordinator is bypassed everywhere.
    border_total: usize,
    pending: PendingOrder,
    scratch: RefCell<CoordScratch>,
}

impl ShardedDependencyGraph {
    /// Creates an empty sharded graph with `shards` partitions (clamped to at least 1).
    pub fn new(config: CcConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedDependencyGraph {
            shards: (0..shards).map(|_| DependencyGraph::new(config)).collect(),
            config,
            gid: Interner::new(),
            homes_at: Vec::new(),
            border_in_shard: vec![0; shards],
            border_total: 0,
            pending: PendingOrder::default(),
            scratch: RefCell::new(CoordScratch::default()),
        }
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> &CcConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard graph (diagnostics and tests).
    pub fn shard(&self, shard: usize) -> &DependencyGraph {
        &self.shards[shard]
    }

    /// Number of distinct transactions currently tracked.
    pub fn len(&self) -> usize {
        self.gid.len()
    }

    /// Whether no transaction is tracked.
    pub fn is_empty(&self) -> bool {
        self.gid.is_empty()
    }

    /// Whether `id` is currently tracked.
    pub fn contains(&self, id: TxnId) -> bool {
        self.gid.get(id).is_some()
    }

    /// Number of live border (multi-shard) transactions.
    pub fn border_count(&self) -> usize {
        self.border_total
    }

    /// Whether `id` is a border transaction.
    pub fn is_border(&self, id: TxnId) -> bool {
        self.gid
            .get(id)
            .map(|slot| self.homes_at[slot as usize].len() > 1)
            .unwrap_or(false)
    }

    /// Number of pending transactions (globally).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending transactions in global arrival order.
    pub fn pending_ids(&self) -> Vec<TxnId> {
        self.pending.iter().collect()
    }

    /// The home shards of a tracked transaction (ascending).
    fn homes(&self, id: TxnId) -> Option<&[usize]> {
        let slot = self.gid.get(id)?;
        Some(&self.homes_at[slot as usize])
    }

    /// Records `id`'s home shards under a (possibly recycled) global slot.
    fn record_homes(&mut self, id: TxnId, homes: Vec<usize>) -> u32 {
        let slot = self.gid.intern(id);
        if slot as usize == self.homes_at.len() {
            self.homes_at.push(homes);
        } else {
            self.homes_at[slot as usize] = homes;
        }
        slot
    }

    /// One of `id`'s node copies (they agree on everything except per-shard edges).
    pub fn node(&self, id: TxnId) -> Option<&TxnNode> {
        let homes = self.homes(id)?;
        self.shards[homes[0]].node(id)
    }

    /// The union of `id`'s immediate successors across its home shards (deduplicated).
    pub fn successors_global(&self, id: TxnId) -> Vec<TxnId> {
        let Some(homes) = self.homes(id) else {
            return Vec::new();
        };
        if homes.len() == 1 {
            return self.shards[homes[0]].successors(id);
        }
        let mut out: Vec<TxnId> = Vec::new();
        for &shard in homes {
            for s in self.shards[shard].successors(id) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Section 4.4's cycle test over the global reach sets. Identical verdict (bit for bit,
    /// including bloom false positives) to the unsharded graph thanks to the reachability
    /// invariant: any copy of a predecessor carries the merged global filter, so one probe per
    /// pair suffices no matter how many shards the path crosses. Like the local engine, each
    /// candidate successor's double-hashing pair is precomputed once (on the coordinator
    /// scratch), so the pair scan costs one filter probe per pair.
    pub fn would_close_cycle(&self, preds: &[TxnId], succs: &[TxnId]) -> CycleCheck {
        let mut hit: Option<(TxnId, TxnId)> = None;
        {
            let mut scratch = self.scratch.borrow_mut();
            scratch.succ_info.clear();
            for s in succs {
                scratch
                    .succ_info
                    .push((self.gid.get(*s), BloomFilter::hash_pair(s.0)));
            }
            'pairs: for &p in preds {
                let p_node = self.node(p);
                for (i, &s) in succs.iter().enumerate() {
                    if p == s {
                        return CycleCheck::Cycle {
                            confirmed_exact: Some(true),
                        };
                    }
                    let Some(p_node) = p_node else {
                        continue;
                    };
                    let (s_slot, s_hashes) = scratch.succ_info[i];
                    if s_slot.is_none() {
                        continue;
                    }
                    if p_node.anti_reachable.contains_prehashed(s_hashes) {
                        hit = Some((p, s));
                        break 'pairs;
                    }
                }
            }
        }
        match hit {
            None => CycleCheck::Acyclic,
            Some((p, s)) => {
                let p_node = self.node(p).expect("bloom hit implies a tracked pred");
                let confirmed = p_node
                    .anti_reachable
                    .contains_exact(s)
                    .map(|exact| exact || self.reaches_exact(s, p));
                CycleCheck::Cycle {
                    confirmed_exact: confirmed,
                }
            }
        }
    }

    /// Algorithm 4 across shards. `per_shard` carries the transaction's keys and resolved
    /// dependencies split by owning shard; an empty slice means "single shard 0 with the
    /// spec's full key set and the given global dependency lists" (the `S = 1` convenience).
    ///
    /// Local fast path: a single-home transaction whose home shard tracks no border
    /// transaction delegates wholesale to that shard's own insert — the coordinator is never
    /// touched. Otherwise the coordinator inserts the node copies, merges their reach sets,
    /// wires successor edges per shard, and runs one global downstream walk — on the epoch
    /// scratch, with the delta moved out of the first copy instead of cloned — that applies
    /// the delta to every copy of every reachable node (crossing shards at border
    /// transactions).
    ///
    /// Re-inserting a still-tracked id is a contract-level **no-op** on every copy and on the
    /// coordinator's bookkeeping, exactly like the flat engine: replayed consensus deliveries
    /// must not re-wire edges or disturb border counts (pinned by the replay regression tests
    /// below).
    pub fn insert_pending(
        &mut self,
        spec: PendingTxnSpec,
        global_preds: &[TxnId],
        global_succs: &[TxnId],
        per_shard: &[ShardDeps],
        next_block: u64,
    ) -> InsertReport {
        let id = spec.id;
        if self.contains(id) {
            // Same contract as the unsharded graph: replayed deliveries are a no-op.
            return InsertReport::default();
        }

        let single_shard_fallback;
        let per_shard: &[ShardDeps] = if per_shard.is_empty() {
            single_shard_fallback = [ShardDeps {
                shard: 0,
                read_keys: spec.read_keys.clone(),
                write_keys: spec.write_keys.clone(),
                predecessors: global_preds.to_vec(),
                successors: global_succs.to_vec(),
            }];
            &single_shard_fallback
        } else {
            per_shard
        };

        let homes: Vec<usize> = per_shard.iter().map(|d| d.shard).collect();
        debug_assert!(homes.windows(2).all(|w| w[0] < w[1]), "homes ascending");

        // Local fast path: no coordinator involvement possible or needed.
        if homes.len() == 1 && self.border_in_shard[homes[0]] == 0 {
            let d = &per_shard[0];
            let report = self.shards[d.shard].insert_pending(
                PendingTxnSpec {
                    id,
                    start_ts: spec.start_ts,
                    read_keys: d.read_keys.clone(),
                    write_keys: d.write_keys.clone(),
                },
                &d.predecessors,
                &d.successors,
                next_block,
            );
            self.record_homes(id, homes);
            self.pending.push(id);
            return report;
        }

        // Coordinator path. 1) Insert the node copies with predecessor edges only (no local
        // walk fires without successors). Each shard's predecessors carry global reach sets by
        // the invariant, so each copy's set is the union of its shard's contribution.
        for d in per_shard {
            self.shards[d.shard].insert_pending(
                PendingTxnSpec {
                    id,
                    start_ts: spec.start_ts,
                    read_keys: d.read_keys.clone(),
                    write_keys: d.write_keys.clone(),
                },
                &d.predecessors,
                &[],
                next_block,
            );
        }

        // 2) Merge the copies so every one carries the global set.
        if homes.len() > 1 {
            let mut merged = self.shards[homes[0]]
                .node(id)
                .expect("just inserted")
                .anti_reachable
                .clone();
            for &shard in &homes[1..] {
                merged.union_with(
                    &self.shards[shard]
                        .node(id)
                        .expect("just inserted")
                        .anti_reachable,
                );
            }
            for &shard in &homes {
                self.shards[shard].replace_reach(id, merged.clone());
            }
            self.border_total += 1;
            for &shard in &homes {
                self.border_in_shard[shard] += 1;
            }
        }
        let gslot = self.record_homes(id, homes.clone());
        self.pending.push(id);

        // 3) Wire successor edges per shard, without unions — the walk below applies the delta.
        for d in per_shard {
            for &s in &d.successors {
                self.shards[d.shard].add_edge(id, s);
            }
        }

        // 4) One global downstream walk (Algorithm 4 lines 5–7): every node reachable from the
        // successors learns the new transaction's reach set plus the transaction itself, on
        // every copy, and has its age bumped. `hops` counts distinct visited nodes, exactly
        // like the unsharded walk. The delta is *moved* out of the first copy for the duration
        // (the graph is acyclic, so the walk can never reach `id` itself) and moved back; the
        // visited set is the reusable epoch scratch over global slots.
        let delta = self.shards[homes[0]].take_reach(id).expect("just inserted");
        let mut hops = 0usize;
        {
            let ShardedDependencyGraph {
                shards,
                gid,
                homes_at,
                scratch,
                ..
            } = &mut *self;
            let CoordScratch { visited, stack, .. } = scratch.get_mut();
            visited.reset(gid.capacity());
            visited.insert(gslot);
            stack.clear();
            for d in per_shard {
                for &s in &d.successors {
                    if s == id {
                        continue;
                    }
                    if let Some(s_slot) = gid.get(s) {
                        if !visited.contains(s_slot) {
                            stack.push(s_slot);
                        }
                    }
                }
            }
            while let Some(slot) = stack.pop() {
                if !visited.insert(slot) {
                    continue;
                }
                hops += 1;
                let t = gid.id_at(slot);
                for &shard in &homes_at[slot as usize] {
                    shards[shard].absorb_reach(t, &delta, Some(id), next_block);
                }
                for &shard in &homes_at[slot as usize] {
                    shards[shard].for_each_successor(t, |s| {
                        if let Some(s_slot) = gid.get(s) {
                            if !visited.contains(s_slot) {
                                stack.push(s_slot);
                            }
                        }
                    });
                }
            }
        }
        self.shards[homes[0]].replace_reach(id, delta);
        InsertReport { hops }
    }

    /// Marks a transaction as committed at `end_ts` on every copy.
    pub fn mark_committed(&mut self, id: TxnId, end_ts: SeqNo) {
        let ShardedDependencyGraph {
            shards,
            gid,
            homes_at,
            ..
        } = self;
        if let Some(slot) = gid.get(id) {
            for &shard in &homes_at[slot as usize] {
                shards[shard].mark_committed(id, end_ts);
            }
        }
        self.pending.remove(id);
    }

    /// Removes a transaction entirely (withdrawals / adversarial tests).
    pub fn remove(&mut self, id: TxnId) {
        let Some(slot) = self.gid.release(id) else {
            return;
        };
        let homes = std::mem::take(&mut self.homes_at[slot as usize]);
        if homes.len() > 1 {
            self.border_total -= 1;
            for &shard in &homes {
                self.border_in_shard[shard] -= 1;
            }
        }
        for &shard in &homes {
            self.shards[shard].remove(id);
        }
        self.pending.remove(id);
    }

    /// Whether `earlier` already reaches `later` (bloom probe on `later`'s global set).
    pub fn already_connected(&self, earlier: TxnId, later: TxnId) -> bool {
        self.node(later)
            .map(|n| n.anti_reachable.contains(earlier))
            .unwrap_or(false)
    }

    /// Algorithm 5's restored ww edge, attributed to the shard owning the restored key: adds
    /// the edge there with the union, then mirrors the delta onto `to`'s other copies so the
    /// invariant holds before the caller's downstream propagation. The delta is moved out of
    /// `from`'s first copy (never cloned) and moved back.
    pub fn add_ww_edge(&mut self, shard: usize, from: TxnId, to: TxnId) {
        if from == to {
            return;
        }
        let (Some(from_slot), Some(to_slot)) = (self.gid.get(from), self.gid.get(to)) else {
            return;
        };
        self.shards[shard].add_edge_with_union(from, to);
        if self.homes_at[to_slot as usize].len() > 1 {
            let from_home = self.homes_at[from_slot as usize][0];
            let delta = self.shards[from_home]
                .take_reach(from)
                .expect("tracked ids have a node in their first home");
            {
                let ShardedDependencyGraph {
                    shards, homes_at, ..
                } = &mut *self;
                for &h in &homes_at[to_slot as usize] {
                    if h != shard {
                        shards[h].absorb_reach(to, &delta, Some(from), 0);
                    }
                }
            }
            self.shards[from_home].replace_reach(from, delta);
        }
    }

    /// Propagates reachability downstream of `heads` exactly once per node in topological
    /// order (the tail of Algorithm 5). With no border transactions this runs each shard's
    /// local topo walk; otherwise the coordinator computes a global topological order over the
    /// union adjacency and pushes every node's set into all copies of its successors, moving
    /// each node's set out for the duration of its push instead of cloning it.
    pub fn propagate_from(&mut self, heads: &[TxnId]) {
        if heads.is_empty() {
            return;
        }
        if self.border_total == 0 {
            // BTreeMap: shard visit order must not depend on hash seeding (the shards are
            // disjoint here, but deterministic order keeps traces reproducible).
            let mut heads_by_shard: BTreeMap<usize, Vec<TxnId>> = BTreeMap::new();
            for &head in heads {
                if let Some(homes) = self.homes(head) {
                    heads_by_shard.entry(homes[0]).or_default().push(head);
                }
            }
            for (shard, heads) in heads_by_shard {
                let graph = &mut self.shards[shard];
                let iteration = graph.reachable_in_topo_order(&heads);
                for txn in iteration {
                    for s in graph.successors(txn) {
                        graph.propagate_reachability(txn, s);
                    }
                }
            }
            return;
        }

        for txn in self.reachable_in_topo_order_global(heads) {
            let succs = self.successors_global(txn);
            if succs.is_empty() {
                continue;
            }
            let slot = self
                .gid
                .get(txn)
                .expect("topo order only visits tracked nodes");
            let home0 = self.homes_at[slot as usize][0];
            let delta = self.shards[home0]
                .take_reach(txn)
                .expect("tracked ids have a node in their first home");
            {
                let ShardedDependencyGraph {
                    shards,
                    gid,
                    homes_at,
                    ..
                } = &mut *self;
                for s in succs {
                    if let Some(s_slot) = gid.get(s) {
                        for &shard in &homes_at[s_slot as usize] {
                            shards[shard].absorb_reach(s, &delta, Some(txn), 0);
                        }
                    }
                }
            }
            self.shards[home0].replace_reach(txn, delta);
        }
    }

    /// Every transaction reachable from `roots` over the union adjacency, in topological order
    /// (reverse postorder of an iterative DFS on the coordinator's epoch scratch — the global
    /// counterpart of [`DependencyGraph::reachable_in_topo_order`]).
    fn reachable_in_topo_order_global(&self, roots: &[TxnId]) -> Vec<TxnId> {
        let mut postorder: Vec<TxnId> = Vec::new();
        let mut scratch = self.scratch.borrow_mut();
        let CoordScratch { visited, .. } = &mut *scratch;
        visited.reset(self.gid.capacity());
        let mut dfs: Vec<(u32, Vec<TxnId>, usize)> = Vec::new();
        for &root in roots {
            let Some(root_slot) = self.gid.get(root) else {
                continue;
            };
            if !visited.insert(root_slot) {
                continue;
            }
            dfs.push((root_slot, self.successors_global(root), 0));
            while let Some((slot, succs, child_idx)) = dfs.last_mut() {
                if let Some(&child) = succs.get(*child_idx) {
                    *child_idx += 1;
                    if let Some(child_slot) = self.gid.get(child) {
                        if visited.insert(child_slot) {
                            let child_succs = self.successors_global(child);
                            dfs.push((child_slot, child_succs, 0));
                        }
                    }
                } else {
                    postorder.push(self.gid.id_at(*slot));
                    dfs.pop();
                }
            }
        }
        postorder.reverse();
        postorder
    }

    /// The pending transactions in a topological order consistent with global reachability,
    /// ties broken by global arrival order — the same order the unsharded graph computes.
    ///
    /// With zero border transactions the global closure graph is a disjoint union of the
    /// per-shard closure graphs, so the global Kahn-by-arrival order is exactly the k-way merge
    /// of the per-shard orders by arrival index (each per-shard order is the restriction of
    /// the global one). Otherwise the coordinator computes the cross-shard closure and runs
    /// Kahn's algorithm itself.
    pub fn topo_sort_pending(&self) -> Vec<TxnId> {
        if self.pending.len() <= 1 {
            return self.pending.iter().collect();
        }
        if self.border_total == 0 {
            let orders: Vec<Vec<TxnId>> =
                self.shards.iter().map(|g| g.topo_sort_pending()).collect();
            return self.merge_orders(orders);
        }
        self.topo_sort_pending_global()
    }

    /// K-way merge of per-shard topological orders by global arrival index. Shards are
    /// disjoint (no border transaction), so each per-shard order is the restriction of the
    /// global order and the merge reconstructs it exactly.
    fn merge_orders(&self, orders: Vec<Vec<TxnId>>) -> Vec<TxnId> {
        let mut orders: Vec<std::vec::IntoIter<TxnId>> =
            orders.into_iter().map(|o| o.into_iter()).collect();
        let mut heads: Vec<Option<(u64, TxnId)>> = orders
            .iter_mut()
            .map(|it| it.next().map(|id| (self.seq_or_max(id), id)))
            .collect();
        let mut out = Vec::with_capacity(self.pending.len());
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some((seq, _)) = head {
                    if best.map(|(s, _)| *seq < s).unwrap_or(true) {
                        best = Some((*seq, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let (_, id) = heads[i].take().expect("best head exists");
            out.push(id);
            heads[i] = orders[i].next().map(|id| (self.seq_or_max(id), id));
        }
        out
    }

    fn seq_or_max(&self, id: TxnId) -> u64 {
        self.pending.seq(id).unwrap_or(u64::MAX)
    }

    /// Coordinator path: closure over the union adjacency + Kahn with arrival tie-breaks. The
    /// per-pending reach walks run on the epoch scratch (reset per walk is one counter bump).
    fn topo_sort_pending_global(&self) -> Vec<TxnId> {
        let pending: Vec<TxnId> = self.pending.iter().collect();
        let p = pending.len();
        // Dense pending index per global slot (u32::MAX = not pending).
        let mut pos_of_slot: Vec<u32> = vec![u32::MAX; self.gid.capacity()];
        for (i, id) in pending.iter().enumerate() {
            let slot = self.gid.get(*id).expect("pending ids are tracked");
            pos_of_slot[slot as usize] = i as u32;
        }

        // Closure edges: i → j iff pending[i] reaches pending[j] through any path, committed
        // intermediaries and cross-shard hops included.
        let mut closure: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut indegree: Vec<u32> = vec![0; p];
        {
            let mut scratch = self.scratch.borrow_mut();
            let CoordScratch { visited, stack, .. } = &mut *scratch;
            for (i, &pid) in pending.iter().enumerate() {
                visited.reset(self.gid.capacity());
                let pid_slot = self.gid.get(pid).expect("pending ids are tracked");
                visited.insert(pid_slot);
                stack.clear();
                for &shard in &self.homes_at[pid_slot as usize] {
                    self.shards[shard].for_each_successor(pid, |s| {
                        if let Some(s_slot) = self.gid.get(s) {
                            stack.push(s_slot);
                        }
                    });
                }
                while let Some(slot) = stack.pop() {
                    if !visited.insert(slot) {
                        continue;
                    }
                    let j = pos_of_slot[slot as usize];
                    if j != u32::MAX {
                        closure[i].push(j);
                        indegree[j as usize] += 1;
                    }
                    let t = self.gid.id_at(slot);
                    for &shard in &self.homes_at[slot as usize] {
                        self.shards[shard].for_each_successor(t, |s| {
                            if let Some(s_slot) = self.gid.get(s) {
                                if !visited.contains(s_slot) {
                                    stack.push(s_slot);
                                }
                            }
                        });
                    }
                }
            }
        }

        // Kahn with a min-heap on arrival index (identical tie-break to the unsharded engine).
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<u32>> = indegree
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| Reverse(i as u32))
            .collect();
        let mut order: Vec<TxnId> = Vec::with_capacity(p);
        let mut emitted = vec![false; p];
        while let Some(Reverse(next)) = heap.pop() {
            emitted[next as usize] = true;
            order.push(pending[next as usize]);
            for &j in &closure[next as usize] {
                let d = &mut indegree[j as usize];
                *d -= 1;
                if *d == 0 {
                    heap.push(Reverse(j));
                }
            }
        }
        // Defensive fallback, mirroring the unsharded engine: emit leftovers in arrival order.
        if order.len() < p {
            for (i, &t) in pending.iter().enumerate() {
                if !emitted[i] {
                    order.push(t);
                }
            }
        }
        order
    }

    /// Exact reachability over the union adjacency (cross-shard DFS on the epoch scratch).
    pub fn reaches_exact(&self, from: TxnId, to: TxnId) -> bool {
        if from == to {
            return self.contains(from);
        }
        let (Some(from_slot), Some(to_slot)) = (self.gid.get(from), self.gid.get(to)) else {
            return false;
        };
        let mut scratch = self.scratch.borrow_mut();
        let CoordScratch { visited, stack, .. } = &mut *scratch;
        visited.reset(self.gid.capacity());
        visited.insert(from_slot);
        stack.clear();
        stack.push(from_slot);
        let mut found = false;
        while let Some(slot) = stack.pop() {
            let t = self.gid.id_at(slot);
            for &shard in &self.homes_at[slot as usize] {
                self.shards[shard].for_each_successor(t, |s| {
                    if let Some(s_slot) = self.gid.get(s) {
                        if s_slot == to_slot {
                            found = true;
                        } else if visited.insert(s_slot) {
                            stack.push(s_slot);
                        }
                    }
                });
            }
            if found {
                return true;
            }
        }
        false
    }

    /// Exact whole-graph acyclicity over the union adjacency (test oracle).
    pub fn is_acyclic_exact(&self) -> bool {
        // Iterative 3-colour DFS over transaction ids.
        let mut colour: HashMap<u64, u8> = HashMap::new(); // 1 = grey, 2 = black
        let ids: Vec<u64> = self.gid.live_ids().map(|t| t.0).collect();
        let mut dfs: Vec<(TxnId, Vec<TxnId>, usize)> = Vec::new();
        for &start in &ids {
            if colour.contains_key(&start) {
                continue;
            }
            colour.insert(start, 1);
            dfs.push((TxnId(start), self.successors_global(TxnId(start)), 0));
            while let Some((node, succs, child_idx)) = dfs.last_mut() {
                if let Some(&child) = succs.get(*child_idx) {
                    *child_idx += 1;
                    match colour.get(&child.0) {
                        Some(1) => return false,
                        Some(_) => {}
                        None => {
                            colour.insert(child.0, 1);
                            let child_succs = self.successors_global(child);
                            dfs.push((child, child_succs, 0));
                        }
                    }
                } else {
                    colour.insert(node.0, 2);
                    dfs.pop();
                }
            }
        }
        true
    }

    /// Section 4.6 pruning across shards. Ages are kept in sync on every copy, so each border
    /// transaction leaves all its shards in the same call; the coordinator then retires its
    /// bookkeeping. Returns the number of distinct transactions removed.
    pub fn prune_for_next_block(&mut self, next_block: u64) -> usize {
        let threshold = crate::prune::snapshot_threshold(next_block, self.config.max_span);
        let mut removed: HashSet<u64> = HashSet::new();
        for shard in &mut self.shards {
            for id in shard.prune_stale(threshold) {
                removed.insert(id.0);
            }
        }
        // Release in sorted id order: the interner recycles slots LIFO, so iterating the
        // HashSet directly would make future slot assignments (and thus slot-ordered walks)
        // depend on hash-seeded iteration order.
        // lint-determinism: allow (sorted immediately below)
        let mut removed_ids: Vec<u64> = removed.into_iter().collect();
        removed_ids.sort_unstable();
        for id in &removed_ids {
            if let Some(slot) = self.gid.release(TxnId(*id)) {
                let homes = std::mem::take(&mut self.homes_at[slot as usize]);
                if homes.len() > 1 {
                    self.border_total -= 1;
                    for &shard in &homes {
                        self.border_in_shard[shard] -= 1;
                    }
                }
            }
        }
        removed_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_exact() -> CcConfig {
        CcConfig {
            track_exact_reachability: true,
            ..CcConfig::default()
        }
    }

    fn spec(id: u64, read_keys: Vec<Key>, write_keys: Vec<Key>) -> PendingTxnSpec {
        PendingTxnSpec {
            id: TxnId(id),
            start_ts: SeqNo::snapshot_after(0),
            read_keys,
            write_keys,
        }
    }

    /// Splits a flat dependency list into per-shard slices for a two-shard graph where even
    /// ids live on shard 0 and odd ids on shard 1 — a synthetic router for tests that need
    /// precise control of border membership.
    fn deps_for(
        shards: &[usize],
        preds: &[(usize, TxnId)],
        succs: &[(usize, TxnId)],
    ) -> Vec<ShardDeps> {
        shards
            .iter()
            .map(|&shard| ShardDeps {
                shard,
                read_keys: vec![],
                write_keys: vec![],
                predecessors: preds
                    .iter()
                    .filter(|(s, _)| *s == shard)
                    .map(|(_, t)| *t)
                    .collect(),
                successors: succs
                    .iter()
                    .filter(|(s, _)| *s == shard)
                    .map(|(_, t)| *t)
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn local_transactions_never_touch_the_coordinator() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(2, vec![], vec![]),
            &[TxnId(1)],
            &[],
            &deps_for(&[0], &[(0, TxnId(1))], &[]),
            1,
        );
        g.insert_pending(
            spec(3, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[1], &[], &[]),
            1,
        );
        assert_eq!(g.border_count(), 0);
        assert_eq!(g.len(), 3);
        assert!(g.contains(TxnId(2)));
        assert!(!g.is_border(TxnId(2)));
        assert!(g.reaches_exact(TxnId(1), TxnId(2)));
        assert!(!g.reaches_exact(TxnId(1), TxnId(3)));
        assert_eq!(g.topo_sort_pending(), vec![TxnId(1), TxnId(2), TxnId(3)]);
        assert!(g.is_acyclic_exact());
    }

    #[test]
    fn border_transactions_bridge_reachability_across_shards() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        // Local chain on shard 0: 1 → 2.
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(2, vec![], vec![]),
            &[TxnId(1)],
            &[],
            &deps_for(&[0], &[(0, TxnId(1))], &[]),
            1,
        );
        // Border txn 5 with a predecessor on shard 0 (txn 2) and nothing on shard 1 yet.
        g.insert_pending(
            spec(5, vec![], vec![]),
            &[TxnId(2)],
            &[],
            &deps_for(&[0, 1], &[(0, TxnId(2))], &[]),
            1,
        );
        assert_eq!(g.border_count(), 1);
        assert!(g.is_border(TxnId(5)));
        // Local txn 7 on shard 1 downstream of the border txn.
        g.insert_pending(
            spec(7, vec![], vec![]),
            &[TxnId(5)],
            &[],
            &deps_for(&[1], &[(1, TxnId(5))], &[]),
            1,
        );

        // Cross-shard transitive reachability: 1 → 2 → 5 → 7.
        assert!(g.reaches_exact(TxnId(1), TxnId(7)));
        let n7 = g.node(TxnId(7)).unwrap();
        for upstream in [1u64, 2, 5] {
            assert_eq!(
                n7.anti_reachable.contains_exact(TxnId(upstream)),
                Some(true),
                "txn 7 must know {upstream} reaches it"
            );
        }
        // The cycle probe sees the cross-shard path: pred 7, succ 1 closes 1→…→7→new→1.
        assert!(!g.would_close_cycle(&[TxnId(7)], &[TxnId(1)]).is_acyclic());
        assert!(g.would_close_cycle(&[TxnId(1)], &[TxnId(7)]).is_acyclic());
        assert_eq!(
            g.topo_sort_pending(),
            vec![TxnId(1), TxnId(2), TxnId(5), TxnId(7)]
        );
    }

    /// Successor edges wired at insert time must propagate the new transaction's reach set
    /// across shards too (the downstream-walk half of the invariant).
    #[test]
    fn insert_with_cross_shard_downstream_updates_every_copy() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        // Border txn 10 homed on both shards; local txn 11 downstream on shard 1.
        g.insert_pending(
            spec(10, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0, 1], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(11, vec![], vec![]),
            &[TxnId(10)],
            &[],
            &deps_for(&[1], &[(1, TxnId(10))], &[]),
            1,
        );
        // New txn 3 on shard 0 whose successor is the border txn 10: 11 (shard 1) must learn
        // that 3 reaches it, through the coordinator walk.
        let report = g.insert_pending(
            spec(3, vec![], vec![]),
            &[],
            &[TxnId(10)],
            &deps_for(&[0], &[], &[(0, TxnId(10))]),
            1,
        );
        assert!(
            report.hops >= 2,
            "walk must visit 10 and 11, got {}",
            report.hops
        );
        assert_eq!(
            g.node(TxnId(11))
                .unwrap()
                .anti_reachable
                .contains_exact(TxnId(3)),
            Some(true)
        );
        // Both copies of the border txn agree.
        for shard in 0..2 {
            assert_eq!(
                g.shard(shard)
                    .node(TxnId(10))
                    .unwrap()
                    .anti_reachable
                    .contains_exact(TxnId(3)),
                Some(true),
                "copy in shard {shard}"
            );
        }
        assert!(g.reaches_exact(TxnId(3), TxnId(11)));
    }

    /// Regression test for the coordinator's delta take/restore dance: after a coordinator
    /// walk, the inserted transaction's own copy must still carry its full (merged) reach set
    /// — losing it to the placeholder would silently disable future cycle detection through
    /// the new node (the cross-shard analogue of the flat engine's restore regression test).
    #[test]
    fn insert_restores_the_new_nodes_reach_set_after_the_coordinator_walk() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(2, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[1], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(3, vec![], vec![]),
            &[TxnId(2)],
            &[],
            &deps_for(&[1], &[(1, TxnId(2))], &[]),
            1,
        );
        // Border txn 9: preds {1 on shard 0, 2 on shard 1}, succ {3 on shard 1} — the
        // coordinator walk runs over 3 while 9's delta is taken out.
        g.insert_pending(
            spec(9, vec![], vec![]),
            &[TxnId(1), TxnId(2)],
            &[TxnId(3)],
            &deps_for(&[0, 1], &[(0, TxnId(1)), (1, TxnId(2))], &[(1, TxnId(3))]),
            1,
        );
        for shard in 0..2 {
            let copy = g.shard(shard).node(TxnId(9)).unwrap();
            for upstream in [1u64, 2] {
                assert_eq!(
                    copy.anti_reachable.contains_exact(TxnId(upstream)),
                    Some(true),
                    "copy in shard {shard} must still know {upstream} after the walk"
                );
            }
            assert_eq!(copy.anti_reachable.contains_exact(TxnId(9)), Some(false));
            assert_eq!(copy.anti_reachable.contains_exact(TxnId(3)), Some(false));
        }
        // The downstream node learned the delta {1, 2, 9}.
        let n3 = g.node(TxnId(3)).unwrap();
        for member in [1u64, 2, 9] {
            assert_eq!(n3.anti_reachable.contains_exact(TxnId(member)), Some(true));
        }
        // And the probe through the new node still fires.
        assert!(!g.would_close_cycle(&[TxnId(3)], &[TxnId(1)]).is_acyclic());
    }

    #[test]
    fn ww_edges_and_propagation_keep_copies_in_sync() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(2, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0, 1], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(3, vec![], vec![]),
            &[TxnId(2)],
            &[],
            &deps_for(&[1], &[(1, TxnId(2))], &[]),
            1,
        );
        // Restore a ww edge 1 → 2 on shard 0, then propagate downstream from 2.
        assert!(!g.already_connected(TxnId(1), TxnId(2)));
        g.add_ww_edge(0, TxnId(1), TxnId(2));
        assert!(g.already_connected(TxnId(1), TxnId(2)));
        for shard in 0..2 {
            assert_eq!(
                g.shard(shard)
                    .node(TxnId(2))
                    .unwrap()
                    .anti_reachable
                    .contains_exact(TxnId(1)),
                Some(true),
                "both copies of 2 must learn the restored edge (shard {shard})"
            );
        }
        // The ww-edge source's own set must survive the take/restore mirror step.
        assert_eq!(
            g.node(TxnId(1)).unwrap().anti_reachable.bloom_popcount(),
            0,
            "txn 1 has no predecessors; its set must be restored empty, not lost"
        );
        g.propagate_from(&[TxnId(2)]);
        assert_eq!(
            g.node(TxnId(3))
                .unwrap()
                .anti_reachable
                .contains_exact(TxnId(1)),
            Some(true),
            "downstream of the border txn must learn the restored reachability"
        );
        assert!(g.reaches_exact(TxnId(1), TxnId(3)));
        // propagate_from's take/restore must leave the source sets intact too.
        assert_eq!(
            g.node(TxnId(2))
                .unwrap()
                .anti_reachable
                .contains_exact(TxnId(1)),
            Some(true)
        );
    }

    #[test]
    fn mark_committed_and_prune_retire_border_bookkeeping() {
        let mut g = ShardedDependencyGraph::new(
            CcConfig {
                max_span: 2,
                track_exact_reachability: true,
                ..CcConfig::default()
            },
            2,
        );
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0, 1], &[], &[]),
            1,
        );
        assert_eq!(g.border_count(), 1);
        g.mark_committed(TxnId(1), SeqNo::new(1, 1));
        assert_eq!(g.pending_len(), 0);
        assert!(g.contains(TxnId(1)));

        // Once the age falls behind the threshold the node leaves every shard and the
        // coordinator forgets it.
        let removed = g.prune_for_next_block(10);
        assert_eq!(removed, 1);
        assert!(!g.contains(TxnId(1)));
        assert_eq!(g.border_count(), 0);
        assert!(g.is_empty());
        for shard in 0..2 {
            assert!(g.shard(shard).is_empty(), "shard {shard} must be empty");
        }
    }

    #[test]
    fn remove_and_reinsert_handle_border_transactions() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0, 1], &[], &[]),
            1,
        );
        // Replay is a no-op, like the unsharded engine.
        let report = g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0, 1], &[], &[]),
            2,
        );
        assert_eq!(report, InsertReport::default());
        assert_eq!(g.len(), 1);
        assert_eq!(g.border_count(), 1);

        g.remove(TxnId(1));
        assert!(g.is_empty());
        assert_eq!(g.border_count(), 0);
        assert_eq!(g.pending_len(), 0);
    }

    /// Replay regression (PR 3's flat-engine contract extended to the sharded copies): a
    /// replayed delivery of a transaction that was already *cut into a block* — committed on
    /// every copy but not yet pruned — must not disturb any shard graph, the coordinator's
    /// pending order, or the border bookkeeping.
    #[test]
    fn replaying_a_cut_but_unpruned_border_txn_is_a_noop_on_every_copy() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0], &[], &[]),
            1,
        );
        g.insert_pending(
            spec(5, vec![], vec![]),
            &[TxnId(1)],
            &[],
            &deps_for(&[0, 1], &[(0, TxnId(1))], &[]),
            1,
        );
        g.mark_committed(TxnId(5), SeqNo::new(1, 1));
        assert_eq!(g.pending_len(), 1);
        assert_eq!(g.border_count(), 1);

        // Replay of the cut transaction, with *different* (stale) dependency lists — the
        // guard must win before any shard sees the new lists.
        let report = g.insert_pending(
            spec(5, vec![], vec![]),
            &[],
            &[TxnId(1)],
            &deps_for(&[0, 1], &[], &[(0, TxnId(1))]),
            2,
        );
        assert_eq!(report, InsertReport::default());
        assert_eq!(g.border_count(), 1);
        assert_eq!(g.pending_ids(), vec![TxnId(1)]);
        assert!(
            !g.node(TxnId(5)).unwrap().is_pending(),
            "replay must not resurrect the committed copy"
        );
        for shard in 0..2 {
            assert!(
                g.shard(shard).successors(TxnId(5)).is_empty(),
                "replay must not wire the stale successor edge in shard {shard}"
            );
        }
        assert!(g.is_acyclic_exact());
    }

    /// Recycled-slot regression across shards: removing a border transaction frees its slots
    /// in *both* shard interners and in the coordinator; fresh transactions that recycle those
    /// slots must start with clean adjacency and clean filters, with no phantom cross-shard
    /// reachability from the previous occupant.
    #[test]
    fn recycled_slots_start_clean_across_shards_and_coordinator() {
        let mut g = ShardedDependencyGraph::new(cfg_exact(), 2);
        g.insert_pending(
            spec(1, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0], &[], &[]),
            1,
        );
        // Border txn 5 downstream of 1, homed on both shards.
        g.insert_pending(
            spec(5, vec![], vec![]),
            &[TxnId(1)],
            &[],
            &deps_for(&[0, 1], &[(0, TxnId(1))], &[]),
            1,
        );
        g.remove(TxnId(5));
        assert_eq!(g.border_count(), 0);

        // Txn 6 recycles 5's slots: a *local* txn on shard 1, unrelated to txn 1.
        g.insert_pending(
            spec(6, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[1], &[], &[]),
            1,
        );
        assert!(!g.is_border(TxnId(6)));
        assert!(
            g.shard(1).predecessors(TxnId(6)).is_empty(),
            "recycled slot leaked adjacency"
        );
        assert_eq!(
            g.node(TxnId(6)).unwrap().anti_reachable.bloom_popcount(),
            0,
            "recycled slot leaked filter bits"
        );
        assert!(!g.reaches_exact(TxnId(1), TxnId(6)));
        assert!(g.shard(0).successors(TxnId(1)).is_empty());
        // And a border txn recycling coordinator slots keeps the bookkeeping exact.
        g.insert_pending(
            spec(7, vec![], vec![]),
            &[],
            &[],
            &deps_for(&[0, 1], &[], &[]),
            1,
        );
        assert_eq!(g.border_count(), 1);
        g.remove(TxnId(7));
        assert_eq!(g.border_count(), 0);
        assert_eq!(g.topo_sort_pending(), vec![TxnId(1), TxnId(6)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference-vs-sharded equivalence on random DAG workloads with cross-shard edges: the
    /// sharded graph must agree with a single global [`DependencyGraph`] on every cycle
    /// verdict, every reach set (exact *and* bloom bits via `contains`), and the topological
    /// order — the micro-scale version of the ledger-identity acceptance criterion.
    ///
    /// The sharded graph under test runs on a caller-chosen bloom geometry, so the same
    /// harness pins two things at once: the coordinator's epoch-scratch walks against the
    /// flat engine's (the old clone-based walk produced exactly the flat engine's sets, so
    /// agreement with the flat engine *is* agreement with the old walk), and saturated-bloom
    /// behaviour (false positives included) against the reference.
    fn run_equivalence(
        edges: Vec<(u64, u64)>,
        probes: Vec<(u64, u64)>,
        ww_edges: Vec<(u64, u64)>,
        shards: usize,
        config: CcConfig,
    ) {
        let mut global = DependencyGraph::new(config);
        let mut sharded = ShardedDependencyGraph::new(config, shards);

        // Synthetic router: txn t "touches" shard (t % shards) always, plus shard
        // ((t / 3) % shards) — so roughly a third of transactions are border. An edge (a, b)
        // is attributed to a shard both endpoints touch if one exists, else it forces both
        // endpoints to become border there (we precompute homes so insertion sees them).
        let n = 12u64;
        let home_of = |t: u64| -> Vec<usize> {
            let mut h = vec![(t % shards as u64) as usize];
            let extra = ((t / 3) % shards as u64) as usize;
            if !h.contains(&extra) {
                h.push(extra);
            }
            h.sort_unstable();
            h
        };
        // Dependency lists per txn: edge (a, b), a < b becomes pred a of b, attributed to the
        // smallest shard shared by a's and b's homes (guaranteed non-empty after widening:
        // if disjoint, attribute to a shard of a, and widen b's membership up front).
        let mut homes: Vec<Vec<usize>> = (0..n).map(home_of).collect();
        let mut preds: HashMap<u64, Vec<(usize, TxnId)>> = HashMap::new();
        for &(a, b) in &edges {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo == hi {
                continue;
            }
            let shared: Option<usize> = homes[lo as usize]
                .iter()
                .find(|s| homes[hi as usize].contains(s))
                .copied();
            let shard = match shared {
                Some(s) => s,
                None => {
                    let s = homes[lo as usize][0];
                    homes[hi as usize].push(s);
                    homes[hi as usize].sort_unstable();
                    s
                }
            };
            preds.entry(hi).or_default().push((shard, TxnId(lo)));
        }

        for id in 0..n {
            let p = preds.remove(&id).unwrap_or_default();
            let global_preds: Vec<TxnId> = {
                let mut seen = Vec::new();
                for &(_, t) in &p {
                    if !seen.contains(&t) {
                        seen.push(t);
                    }
                }
                seen
            };
            let spec = PendingTxnSpec {
                id: TxnId(id),
                start_ts: SeqNo::snapshot_after(0),
                read_keys: vec![],
                write_keys: vec![],
            };
            let per_shard: Vec<ShardDeps> = homes[id as usize]
                .iter()
                .map(|&shard| ShardDeps {
                    shard,
                    read_keys: vec![],
                    write_keys: vec![],
                    predecessors: {
                        let mut seen = Vec::new();
                        for &(s, t) in &p {
                            if s == shard && !seen.contains(&t) {
                                seen.push(t);
                            }
                        }
                        seen
                    },
                    successors: vec![],
                })
                .collect();
            let report_global = global.insert_pending(spec.clone(), &global_preds, &[], 1);
            let report_sharded = sharded.insert_pending(spec, &global_preds, &[], &per_shard, 1);
            assert_eq!(report_global.hops, report_sharded.hops, "hops for txn {id}");
        }

        // Algorithm 5 phase: restore extra ww edges (oriented low → high id to stay acyclic,
        // skipping pairs already connected and pairs whose reverse is reachable) on a shard
        // both endpoints call home, then propagate downstream from the restored heads — the
        // exact sequence block formation drives, pinning add_ww_edge + propagate_from (and
        // their take/restore delta handling) against the flat engine.
        let mut heads: Vec<TxnId> = Vec::new();
        for &(a, b) in &ww_edges {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo == hi {
                continue;
            }
            let (lo_t, hi_t) = (TxnId(lo), TxnId(hi));
            assert_eq!(
                global.already_connected(lo_t, hi_t),
                sharded.already_connected(lo_t, hi_t),
                "already_connected({lo}, {hi})"
            );
            if global.already_connected(lo_t, hi_t) || global.reaches_exact(hi_t, lo_t) {
                continue;
            }
            let Some(&shard) = homes[lo as usize]
                .iter()
                .find(|s| homes[hi as usize].contains(s))
            else {
                continue;
            };
            global.add_edge_with_union(lo_t, hi_t);
            sharded.add_ww_edge(shard, lo_t, hi_t);
            if !heads.contains(&hi_t) {
                heads.push(hi_t);
            }
        }
        if !heads.is_empty() {
            let iteration = global.reachable_in_topo_order(&heads);
            for txn in iteration {
                for s in global.successors(txn) {
                    global.propagate_reachability(txn, s);
                }
            }
            sharded.propagate_from(&heads);
        }

        // Same reach sets — exact and probabilistic — for every (a, b) pair.
        for a in 0..n {
            for b in 0..n {
                let ta = TxnId(a);
                let tb = TxnId(b);
                assert_eq!(
                    global.reaches_exact(ta, tb),
                    sharded.reaches_exact(ta, tb),
                    "reaches_exact({a}, {b})"
                );
                let g_node = global.node(tb).unwrap();
                let s_node = sharded.node(tb).unwrap();
                assert_eq!(
                    g_node.anti_reachable.contains(ta),
                    s_node.anti_reachable.contains(ta),
                    "bloom bit for {a} in reach({b})"
                );
                assert_eq!(
                    g_node.anti_reachable.contains_exact(ta),
                    s_node.anti_reachable.contains_exact(ta),
                    "exact membership for {a} in reach({b})"
                );
            }
        }

        // Same commit order.
        assert_eq!(global.topo_sort_pending(), sharded.topo_sort_pending());
        assert!(sharded.is_acyclic_exact());

        // Same cycle verdicts on random probes.
        for (a, b) in probes {
            let preds = [TxnId(a % n)];
            let succs = [TxnId(b % n)];
            assert_eq!(
                global.would_close_cycle(&preds, &succs),
                sharded.would_close_cycle(&preds, &succs),
                "cycle probe ({a}, {b})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharded_graph_is_bit_identical_to_the_global_reference(
            edges in proptest::collection::vec((0u64..12, 0u64..12), 0..40),
            probes in proptest::collection::vec((0u64..12, 0u64..12), 1..12),
            ww in proptest::collection::vec((0u64..12, 0u64..12), 0..10),
            shards in 2usize..5,
        ) {
            let config = CcConfig {
                track_exact_reachability: true,
                ..CcConfig::default()
            };
            run_equivalence(edges, probes, ww, shards, config);
        }

        /// Bloom-saturation configuration: a 64-bit filter over 12 transactions saturates
        /// quickly, so agreement here pins the coordinator's scratch walks in the regime where
        /// false positives dominate — any deviation from the old clone-based walk's bit
        /// pattern (which was, by construction, the flat engine's) shows up as a verdict or
        /// bloom-bit mismatch.
        #[test]
        fn epoch_scratch_coordinator_matches_under_bloom_saturation(
            edges in proptest::collection::vec((0u64..12, 0u64..12), 0..40),
            probes in proptest::collection::vec((0u64..12, 0u64..12), 1..12),
            ww in proptest::collection::vec((0u64..12, 0u64..12), 0..10),
            shards in 2usize..5,
        ) {
            let config = CcConfig {
                bloom_bits: 64,
                bloom_hashes: 1,
                track_exact_reachability: true,
                ..CcConfig::default()
            };
            run_equivalence(edges, probes, ww, shards, config);
        }
    }
}

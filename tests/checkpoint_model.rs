//! Model-based property tests for the checkpoint store.
//!
//! The store underpins every rollback: if `restore` ever reconstructs the
//! wrong state, DEFINED silently replays from a corrupt base and every
//! theorem downstream is void. The model is a plain map from checkpoint id
//! to a deep copy of the state; the store (under each strategy, including
//! the page-diffing `MemIntercept`) must agree with it under arbitrary
//! interleavings of checkpoint / mutate / restore / truncate / release.

use defined::checkpoint::enc::Reader;
use defined::checkpoint::{Checkpointer, Snapshotable, Strategy as CkptStrategy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A routing-table-like state: large enough to span pages, mutated in
/// place.
#[derive(Clone, Debug, PartialEq)]
struct Table {
    cells: Vec<u64>,
}

impl Snapshotable for Table {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.cells.len() as u64).to_le_bytes());
        for c in &self.cells {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len()?;
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(r.u64()?);
        }
        Some(Table { cells })
    }
}

#[derive(Clone, Debug)]
enum Op {
    Checkpoint,
    /// Poke `cells[i % len] = v`.
    Mutate(usize, u64),
    /// Restore the `k`-th oldest retained checkpoint (if any) and truncate
    /// everything at or after it — the rollback pattern.
    Rollback(usize),
    /// Release the oldest `k` retained checkpoints — the commit pattern.
    Release(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Checkpoint),
        4 => (any::<usize>(), any::<u64>()).prop_map(|(i, v)| Op::Mutate(i, v)),
        2 => (0usize..6).prop_map(Op::Rollback),
        1 => (0usize..4).prop_map(Op::Release),
    ]
}

fn run_model(strategy: CkptStrategy, ops: &[Op], size: usize) {
    let mut cp: Checkpointer<Table> = Checkpointer::new(strategy);
    let mut state = Table { cells: (0..size as u64).collect() };
    // The model: retained ids in order, each with its full expected state.
    let mut model: BTreeMap<u64, Table> = BTreeMap::new();
    for o in ops {
        match o {
            Op::Checkpoint => {
                let id = cp.checkpoint(&state);
                model.insert(id.0, state.clone());
            }
            Op::Mutate(i, v) => {
                let n = state.cells.len();
                state.cells[i % n] = *v;
            }
            Op::Rollback(k) => {
                let ids: Vec<u64> = model.keys().copied().collect();
                if let Some(&target) = ids.get(*k % ids.len().max(1)) {
                    let restored =
                        cp.restore(defined::checkpoint::CheckpointId(target)).expect("retained");
                    assert_eq!(restored, model[&target], "restore must match the model");
                    state = restored;
                    cp.truncate_from(defined::checkpoint::CheckpointId(target));
                    model.retain(|&id, _| id < target);
                }
            }
            Op::Release(k) => {
                let ids: Vec<u64> = model.keys().copied().collect();
                if let Some(&cut) = ids.get(*k % ids.len().max(1)) {
                    cp.release_before(defined::checkpoint::CheckpointId(cut));
                    model.retain(|&id, _| id >= cut);
                }
            }
        }
        assert_eq!(cp.len(), model.len(), "retained count must match the model");
    }
    // Every still-retained checkpoint restores to exactly the model state.
    for (&id, expect) in &model {
        let got = cp.restore(defined::checkpoint::CheckpointId(id)).expect("retained");
        assert_eq!(&got, expect, "checkpoint {id} must survive the op sequence");
    }
    // Memory accounting stays coherent. Physical may transiently exceed
    // virtual by exactly the image parked between a rollback truncation and
    // the next capture — never by more.
    let stats = cp.stats();
    assert_eq!(stats.retained, model.len());
    assert!(
        stats.physical_bytes <= stats.virtual_bytes.max(1) + stats.parked_bytes,
        "physical {} vs virtual {} + parked {}",
        stats.physical_bytes,
        stats.virtual_bytes,
        stats.parked_bytes,
    );
    // Refcount-leak property: releasing every checkpoint (and draining the
    // parked rollback image) must return every page ref to the pool.
    cp.release_before(defined::checkpoint::CheckpointId(u64::MAX));
    cp.truncate_from(defined::checkpoint::CheckpointId(0));
    let pool = cp.pool_stats();
    assert_eq!(pool.live_pages, 0, "leaked page refcounts");
    assert_eq!(pool.resident_bytes, 0, "leaked resident bytes");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn clone_strategy_matches_model(ops in proptest::collection::vec(op(), 1..60)) {
        run_model(CkptStrategy::CloneState, &ops, 2_000);
    }

    #[test]
    fn fork_strategy_matches_model(ops in proptest::collection::vec(op(), 1..60)) {
        run_model(CkptStrategy::Fork, &ops, 2_000);
    }

    #[test]
    fn mem_intercept_matches_model(ops in proptest::collection::vec(op(), 1..60)) {
        run_model(CkptStrategy::MemIntercept, &ops, 2_000);
    }

    /// Dedup-correctness: a page-deduplicated (MI) timeline fed the same
    /// history as an owning (Fork) timeline restores byte-identical states
    /// at every query position, across thinning — so thinning never frees a
    /// page a retained checkpoint still references.
    #[test]
    fn deduped_timeline_matches_owning_timeline(
        pokes in proptest::collection::vec((0usize..2_000, any::<u64>()), 8..40),
        queries in proptest::collection::vec(any::<u64>(), 8),
    ) {
        use defined::checkpoint::{RetentionPolicy, Timeline};
        let policy = RetentionPolicy { max_retained: 6 }; // Force thinning.
        let mut mi: Timeline<Table> = Timeline::new(CkptStrategy::MemIntercept, policy);
        let mut fork: Timeline<Table> = Timeline::new(CkptStrategy::Fork, policy);
        let mut state = Table { cells: (0..2_000).collect() };
        for (step, &(i, v)) in pokes.iter().enumerate() {
            let n = state.cells.len();
            state.cells[i % n] = v;
            let pos = (step as u64 + 1) * 3;
            mi.record(pos, &state);
            fork.record(pos, &state);
        }
        let enc = |s: &Table| {
            let mut b = Vec::new();
            s.encode(&mut b);
            b
        };
        let max_pos = pokes.len() as u64 * 3 + 5;
        let retained: Vec<u64> = mi.positions().collect();
        for q in queries.iter().map(|q| q % max_pos).chain(retained) {
            let a = mi.restore_at_or_before(q).map(|(p, s)| (p, enc(&s)));
            let b = fork.restore_at_or_before(q).map(|(p, s)| (p, enc(&s)));
            prop_assert_eq!(a, b, "deduped restore diverged at position {}", q);
        }
    }

    /// MI's page sharing: under localized mutation, physical stays far
    /// below virtual for long checkpoint chains.
    #[test]
    fn mi_shares_pages_under_local_mutation(
        pokes in proptest::collection::vec((0usize..64, any::<u64>()), 20..40),
    ) {
        let mut cp: Checkpointer<Table> = Checkpointer::new(CkptStrategy::MemIntercept);
        let mut t = Table { cells: (0..50_000).collect() }; // ~400 KiB
        cp.checkpoint(&t);
        for (i, v) in pokes {
            t.cells[i] = v; // All pokes land in the first page.
            cp.checkpoint(&t);
        }
        let s = cp.stats();
        prop_assert!(s.retained >= 21);
        prop_assert!(
            (s.physical_bytes as f64) < (s.virtual_bytes as f64) * 0.1,
            "physical {} vs virtual {}",
            s.physical_bytes,
            s.virtual_bytes,
        );
    }
}

//! A position-keyed checkpoint timeline with a bounded-retention policy —
//! the substrate behind reverse execution.
//!
//! A [`Timeline`] maps *positions* (monotone external keys, e.g. "events
//! delivered so far") to checkpoints stored in a [`Checkpointer`]. Backward
//! navigation restores the nearest checkpoint at or before the target
//! position and re-executes forward from there, so rewind cost is bounded
//! by the spacing between retained checkpoints, not by the run length.
//!
//! Retention: when more than [`RetentionPolicy::max_retained`] checkpoints
//! are held, the timeline *thins* instead of refusing — it drops the
//! interior checkpoint whose removal creates the smallest gap between its
//! neighbours (ties broken toward older history). The first checkpoint
//! (the anchor, usually position 0) and the most recent one are never
//! dropped, so `goto 0` and short rewinds stay cheap while memory stays
//! bounded. With the [`Strategy::MemIntercept`] page-diff strategy the
//! retained images additionally share every unchanged 4 KiB page.

use crate::store::{CheckpointId, Checkpointer, MemStats, Strategy};
use crate::Snapshotable;
use defined_obs as obs;

/// How many checkpoints a [`Timeline`] retains before thinning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum number of retained checkpoints (minimum 2: the anchor and
    /// the most recent). Thinning keeps the retained set roughly evenly
    /// spaced over the covered position range.
    pub max_retained: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy { max_retained: 256 }
    }
}

/// An ordered, position-keyed store of checkpoints with bounded retention.
pub struct Timeline<S> {
    store: Checkpointer<S>,
    /// `(position, id)` pairs sorted by position.
    index: Vec<(u64, CheckpointId)>,
    policy: RetentionPolicy,
}

impl<S: Snapshotable> Timeline<S> {
    /// An empty timeline with the given storage strategy and retention.
    pub fn new(strategy: Strategy, policy: RetentionPolicy) -> Self {
        let policy = RetentionPolicy { max_retained: policy.max_retained.max(2) };
        Timeline { store: Checkpointer::new(strategy), index: Vec::new(), policy }
    }

    /// Records a checkpoint of `state` at `position`. Returns false (and
    /// stores nothing) when the position already has a checkpoint — replays
    /// over already-covered ground are free.
    pub fn record(&mut self, position: u64, state: &S) -> bool {
        let at = self.index.partition_point(|&(p, _)| p < position);
        if self.index.get(at).map(|&(p, _)| p == position).unwrap_or(false) {
            return false;
        }
        let id = self.store.checkpoint(state);
        self.index.insert(at, (position, id));
        self.thin();
        true
    }

    /// Restores the checkpoint nearest at-or-before `position`, returning
    /// its position and state, or `None` when nothing that early is
    /// retained.
    pub fn restore_at_or_before(&mut self, position: u64) -> Option<(u64, S)> {
        let at = self.index.partition_point(|&(p, _)| p <= position);
        let &(pos, id) = self.index.get(at.checked_sub(1)?)?;
        Some((pos, self.store.restore(id)?))
    }

    /// Like [`Timeline::restore_at_or_before`], but writes the checkpoint's
    /// encoded bytes into `buf` (cleared first) instead of decoding them,
    /// and returns only the position — the restore a caller makes when it
    /// decodes just the parts of the state that differ from its own.
    pub fn restore_bytes_at_or_before(&mut self, position: u64, buf: &mut Vec<u8>) -> Option<u64> {
        let at = self.index.partition_point(|&(p, _)| p <= position);
        let &(pos, id) = self.index.get(at.checked_sub(1)?)?;
        self.store.restore_bytes(id, buf).then_some(pos)
    }

    /// The position of the checkpoint nearest at-or-before `position`,
    /// without restoring it — the cheap peek a replay farm uses to decide
    /// whether seeding from a checkpoint beats running forward from where
    /// it already is.
    pub fn position_at_or_before(&self, position: u64) -> Option<u64> {
        let at = self.index.partition_point(|&(p, _)| p <= position);
        self.index.get(at.checked_sub(1)?).map(|&(p, _)| p)
    }

    /// Whether a checkpoint exists exactly at `position`.
    pub fn contains(&self, position: u64) -> bool {
        self.index.binary_search_by_key(&position, |&(p, _)| p).is_ok()
    }

    /// Retained checkpoint positions, in increasing order.
    pub fn positions(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.iter().map(|&(p, _)| p)
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the timeline holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The largest gap between consecutive retained positions (including
    /// neither end of the covered range) — an upper bound, in positions, on
    /// the forward re-execution any backward jump inside the covered range
    /// needs.
    pub fn max_gap(&self) -> u64 {
        self.index.windows(2).map(|w| w[1].0 - w[0].0).max().unwrap_or(0)
    }

    /// Full memory statistics of the underlying store.
    pub fn stats(&self) -> MemStats {
        self.store.stats()
    }

    /// Drops interior checkpoints until the retention cap holds.
    fn thin(&mut self) {
        while self.index.len() > self.policy.max_retained {
            // Victim: interior entry whose removal leaves the smallest
            // neighbour gap; on ties prefer the oldest (thin far history
            // first). The anchor and the newest entry are exempt.
            let victim = (1..self.index.len() - 1)
                .min_by_key(|&i| self.index[i + 1].0 - self.index[i - 1].0)
                .expect("cap >= 2 leaves an interior entry whenever len > cap");
            let (_, id) = self.index.remove(victim);
            obs::counter!("ckpt.thinned").add(1);
            self.store.remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Word(u64);
    impl Snapshotable for Word {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode_from(r: &mut crate::enc::Reader<'_>) -> Option<Self> {
            Some(Word(r.u64()?))
        }
    }

    fn filled(strategy: Strategy, cap: usize, step: u64, n: u64) -> Timeline<Word> {
        let mut t = Timeline::new(strategy, RetentionPolicy { max_retained: cap });
        for i in 0..n {
            t.record(i * step, &Word(i * step));
        }
        t
    }

    #[test]
    fn nearest_at_or_before_finds_the_right_image() {
        for strategy in [Strategy::CloneState, Strategy::Fork, Strategy::MemIntercept] {
            let mut t = filled(strategy, 64, 10, 8);
            assert_eq!(t.restore_at_or_before(35), Some((30, Word(30))));
            assert_eq!(t.restore_at_or_before(30), Some((30, Word(30))));
            assert_eq!(t.restore_at_or_before(0), Some((0, Word(0))));
            assert_eq!(t.restore_at_or_before(1_000), Some((70, Word(70))));
        }
    }

    #[test]
    fn byte_restores_pick_the_same_checkpoint() {
        for strategy in [Strategy::CloneState, Strategy::Fork, Strategy::MemIntercept] {
            let mut t = filled(strategy, 64, 10, 8);
            let mut buf = Vec::new();
            for q in [0, 35, 30, 1_000] {
                let (pos, word) = t.restore_at_or_before(q).expect("retained");
                assert_eq!(t.restore_bytes_at_or_before(q, &mut buf), Some(pos));
                assert_eq!(Word::decode(&buf), Some(word));
            }
            let mut t5 = Timeline::new(strategy, RetentionPolicy::default());
            t5.record(5, &Word(5));
            assert_eq!(t5.restore_bytes_at_or_before(4, &mut buf), None);
        }
    }

    #[test]
    fn peek_matches_restore_without_touching_the_store() {
        // Two identical timelines: one only peeks, the other restores.
        let peeker = filled(Strategy::Fork, 64, 10, 8);
        let mut restorer = filled(Strategy::Fork, 64, 10, 8);
        for q in [0, 5, 30, 35, 1_000] {
            assert_eq!(
                peeker.position_at_or_before(q),
                restorer.restore_at_or_before(q).map(|(p, _)| p)
            );
        }
        // The peeks above performed no restores; the restores did.
        assert_eq!(peeker.stats().restores, 0);
        assert_eq!(restorer.stats().restores, 5);
        let empty: Timeline<Word> = Timeline::new(Strategy::Fork, RetentionPolicy::default());
        assert_eq!(empty.position_at_or_before(9), None);
    }

    #[test]
    fn duplicate_positions_are_free() {
        let mut t = Timeline::new(Strategy::Fork, RetentionPolicy::default());
        assert!(t.record(5, &Word(5)));
        assert!(!t.record(5, &Word(99)), "second record at the same position is a no-op");
        assert_eq!(t.restore_at_or_before(5), Some((5, Word(5))));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn out_of_order_record_after_a_rewind_keeps_the_index_sorted() {
        let mut t = filled(Strategy::Fork, 64, 10, 5);
        // A rewind re-executed past a thinned position re-records it.
        assert!(t.record(15, &Word(15)));
        let ps: Vec<u64> = t.positions().collect();
        assert_eq!(ps, vec![0, 10, 15, 20, 30, 40]);
        assert_eq!(t.restore_at_or_before(16), Some((15, Word(15))));
    }

    #[test]
    fn thinning_keeps_anchor_newest_and_even_spacing() {
        let t = filled(Strategy::MemIntercept, 8, 1, 100);
        assert_eq!(t.len(), 8);
        let ps: Vec<u64> = t.positions().collect();
        assert_eq!(ps[0], 0, "anchor survives thinning");
        assert_eq!(*ps.last().unwrap(), 99, "newest survives thinning");
        // Spacing stays within a small factor of the ideal 99/7 ≈ 14.
        assert!(t.max_gap() <= 3 * (99_u64.div_ceil(7)), "max gap {}", t.max_gap());
    }

    #[test]
    fn before_first_checkpoint_is_none() {
        let mut t = filled(Strategy::Fork, 64, 10, 3);
        let mut empty: Timeline<Word> = Timeline::new(Strategy::Fork, RetentionPolicy::default());
        assert_eq!(empty.restore_at_or_before(7), None);
        // Drop the anchor case: first retained position is 5.
        let mut t5 = Timeline::new(Strategy::Fork, RetentionPolicy::default());
        t5.record(5, &Word(5));
        assert_eq!(t5.restore_at_or_before(4), None);
        assert!(t.restore_at_or_before(0).is_some());
    }

    #[test]
    fn stats_reflect_thinning() {
        let t = filled(Strategy::Fork, 4, 1, 32);
        let s = t.stats();
        assert_eq!(s.retained, 4);
        assert_eq!(s.taken, 32);
        assert_eq!(s.virtual_bytes, 4 * 8);
    }
}

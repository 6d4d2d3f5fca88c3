//! The checkpoint store: ordered snapshots with rollback truncation and
//! commit-horizon garbage collection, backed by a content-addressed page
//! pool so storage grows with *state that changed*, not with checkpoints.

use crate::pages::PageImage;
use crate::pool::PagePool;
use crate::Snapshotable;
use defined_obs as obs;
use std::collections::VecDeque;

/// Identifier of one checkpoint; strictly increasing per [`Checkpointer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CheckpointId(pub u64);

/// Snapshot storage strategy (paper §3 / §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Deep-clone the state object (fast functional baseline).
    CloneState,
    /// FK: store the full encoded image per checkpoint.
    Fork,
    /// MI: store a page-granular diff against the previous checkpoint.
    MemIntercept,
}

enum Stored<S> {
    Clone(S),
    Full(Vec<u8>),
    Paged(PageImage),
}

/// Memory and activity statistics for a [`Checkpointer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Checkpoints currently retained.
    pub retained: usize,
    /// Checkpoints ever taken.
    pub taken: u64,
    /// Restores ever performed.
    pub restores: u64,
    /// Sum of full logical image sizes over retained checkpoints (the VM
    /// curve of Fig. 7c). Zero for `CloneState`.
    pub virtual_bytes: usize,
    /// Unique materialised bytes over retained checkpoints (the PM curve):
    /// full images for `Fork` plus the page pool's distinct live pages for
    /// `MemIntercept`. Maintained incrementally — O(1) to read.
    pub physical_bytes: usize,
    /// Dirty pages (changed vs. the previous image) of the most recent
    /// checkpoint (MI only).
    pub last_dirty_pages: usize,
    /// Total dirty pages since creation (MI only).
    pub total_dirty_pages: u64,
    /// Of the most recent checkpoint's dirty pages, how many were new to
    /// the page pool and actually copied (MI only).
    pub last_fresh_pages: usize,
    /// Total bytes the store materialised since creation — what
    /// `ckpt.bytes_stored` records. Fork counts full images; MI counts only
    /// pool-fresh pages.
    pub fresh_bytes: u64,
    /// Page-pool lookups satisfied without copying (MI only).
    pub pool_hits: u64,
    /// Page-pool lookups that materialised a new page (MI only).
    pub pool_misses: u64,
    /// Bytes dedup avoided copying (MI only).
    pub bytes_deduped: u64,
    /// Logical size of the image parked between a rollback truncation and
    /// the next capture (MI only). Its pages stay resident — and counted in
    /// `physical_bytes` — so the post-rollback re-capture copies nothing.
    pub parked_bytes: usize,
}

/// Cap on spare encode buffers kept for reuse.
const SPARE_BUFS: usize = 8;

/// An ordered store of state checkpoints.
///
/// Supports the three operations DEFINED-RB needs: `checkpoint` before each
/// speculative delivery, `restore` + `truncate_from` on rollback, and
/// `release_before` when the commit horizon advances (§2.2: "an entry in the
/// history can be removed after all messages that might be ordered before it
/// have arrived").
///
/// Under [`Strategy::MemIntercept`] every page lives in a [`PagePool`]
/// shared by all of this store's images: identical content is stored once
/// across checkpoints and across rollback generations, and every eviction
/// path (thinning, truncation, the commit horizon) decrements refcounts
/// instead of dropping bytes. The restored-to image invalidated by
/// `truncate_from` is parked until the next capture completes, so a
/// post-rollback re-capture re-uses its pages instead of copying them back.
pub struct Checkpointer<S> {
    strategy: Strategy,
    entries: VecDeque<(CheckpointId, Stored<S>)>,
    pool: PagePool,
    /// The restored-to image invalidated by the latest `truncate_from`,
    /// kept alive until the next `checkpoint` so the forced post-rollback
    /// re-capture diffs against it (at most one element).
    graveyard: Vec<PageImage>,
    next: u64,
    taken: u64,
    restores: u64,
    last_dirty: usize,
    total_dirty: u64,
    last_fresh: usize,
    fresh_bytes: u64,
    /// Incrementally maintained so the hot path never scans entries.
    virtual_bytes: usize,
    /// Bytes held by `Stored::Full` entries (Fork's physical footprint).
    full_bytes: usize,
    encode_buf: Vec<u8>,
    spare_bufs: Vec<Vec<u8>>,
}

impl<S> Stored<S> {
    fn logical_len(&self) -> usize {
        match self {
            Stored::Clone(_) => 0,
            Stored::Full(b) => b.len(),
            Stored::Paged(img) => img.len(),
        }
    }
}

impl<S: Snapshotable> Checkpointer<S> {
    /// Creates an empty store with the given strategy.
    pub fn new(strategy: Strategy) -> Self {
        Checkpointer {
            strategy,
            entries: VecDeque::new(),
            pool: PagePool::new(),
            graveyard: Vec::new(),
            next: 0,
            taken: 0,
            restores: 0,
            last_dirty: 0,
            total_dirty: 0,
            last_fresh: 0,
            fresh_bytes: 0,
            virtual_bytes: 0,
            full_bytes: 0,
            encode_buf: Vec::new(),
            spare_bufs: Vec::new(),
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Records a checkpoint of `state`, returning its id.
    pub fn checkpoint(&mut self, state: &S) -> CheckpointId {
        let _span = obs::span!("ckpt.capture");
        let id = CheckpointId(self.next);
        self.next += 1;
        self.taken += 1;
        let mut stored_fresh = 0usize;
        let stored = match self.strategy {
            Strategy::CloneState => Stored::Clone(state.clone()),
            Strategy::Fork => {
                let mut buf = self.spare_bufs.pop().unwrap_or_default();
                buf.clear();
                state.encode(&mut buf);
                stored_fresh = buf.len();
                self.full_bytes += buf.len();
                Stored::Full(buf)
            }
            Strategy::MemIntercept => {
                self.encode_buf.clear();
                state.encode(&mut self.encode_buf);
                let before = self.pool.stats();
                // Diff base: the newest live paged image, or — right after a
                // rollback truncation — the parked image of the checkpoint
                // we restored to, whose pages this re-capture can re-use
                // wholesale.
                let prev = self.graveyard.last().or_else(|| {
                    self.entries.iter().rev().find_map(|(_, s)| match s {
                        Stored::Paged(img) => Some(img),
                        _ => None,
                    })
                });
                let (img, cost) = match prev {
                    Some(p) => PageImage::diff_from(&mut self.pool, p, &self.encode_buf),
                    None => PageImage::from_bytes(&mut self.pool, &self.encode_buf),
                };
                for dead in self.graveyard.drain(..) {
                    dead.release(&mut self.pool);
                }
                let after = self.pool.stats();
                self.last_dirty = cost.dirty_pages;
                self.total_dirty += cost.dirty_pages as u64;
                self.last_fresh = cost.fresh_pages;
                stored_fresh = cost.fresh_bytes;
                obs::counter!("ckpt.pages_dirty").add(cost.dirty_pages as u64);
                obs::counter!("ckpt.pages_total").add(img.page_count() as u64);
                obs::counter!("ckpt.pool.hits").add(after.hits - before.hits);
                obs::counter!("ckpt.pool.misses").add(after.misses - before.misses);
                obs::counter!("ckpt.pool.bytes_deduped")
                    .add(after.bytes_deduped - before.bytes_deduped);
                Stored::Paged(img)
            }
        };
        self.fresh_bytes += stored_fresh as u64;
        obs::counter!("ckpt.captures").add(1);
        obs::counter!("ckpt.bytes_stored").add(stored_fresh as u64);
        self.virtual_bytes += stored.logical_len();
        self.entries.push_back((id, stored));
        id
    }

    /// Reconstructs the state recorded under `id`.
    pub fn restore(&mut self, id: CheckpointId) -> Option<S> {
        let _span = obs::span!("ckpt.restore");
        let mut buf = self.spare_bufs.pop().unwrap_or_default();
        let out = match self.lookup(id) {
            None => None,
            Some(Stored::Clone(s)) => Some(s.clone()),
            Some(Stored::Full(bytes)) => S::decode(bytes),
            Some(Stored::Paged(img)) => {
                img.write_bytes(&mut buf);
                S::decode(&buf)
            }
        };
        self.put_spare(buf);
        out
    }

    /// Writes the encoding of the state recorded under `id` into `buf`
    /// (cleared first) without decoding it — for a caller that decodes
    /// only the parts it needs. Counts as a restore. Returns false for an
    /// unknown id.
    pub fn restore_bytes(&mut self, id: CheckpointId, buf: &mut Vec<u8>) -> bool {
        let _span = obs::span!("ckpt.restore");
        let Some(stored) = self.lookup(id) else { return false };
        match stored {
            Stored::Clone(s) => {
                buf.clear();
                s.encode(buf);
            }
            Stored::Full(bytes) => {
                buf.clear();
                buf.extend_from_slice(bytes);
            }
            Stored::Paged(img) => img.write_bytes(buf),
        }
        true
    }

    /// The entry recorded under `id`, counting the restore it serves.
    fn lookup(&mut self, id: CheckpointId) -> Option<&Stored<S>> {
        obs::counter!("ckpt.restores").add(1);
        self.restores += 1;
        // Ids are pushed in increasing order; binary-search the deque.
        let slice = self.entries.make_contiguous();
        let pos = slice.partition_point(|(i, _)| *i < id);
        let (found, stored) = slice.get(pos)?;
        (*found == id).then_some(stored)
    }

    /// Returns a stored entry's backing bytes to the reuse pools.
    fn dispose(&mut self, stored: Stored<S>, park: bool) {
        match stored {
            Stored::Clone(_) => {}
            Stored::Full(b) => {
                self.full_bytes -= b.len();
                self.put_spare(b);
            }
            Stored::Paged(img) => {
                if park {
                    self.graveyard.push(img);
                } else {
                    img.release(&mut self.pool);
                }
            }
        }
    }

    fn put_spare(&mut self, buf: Vec<u8>) {
        if self.spare_bufs.len() < SPARE_BUFS {
            self.spare_bufs.push(buf);
        }
    }

    /// Discards exactly the checkpoint `id`, wherever it sits in the order
    /// (retention thinning). A no-op for unknown ids. Images reference the
    /// shared page pool, so removing an interior checkpoint drops only the
    /// refcounts it held: neighbours stay restorable and pages they still
    /// reference stay resident.
    pub fn remove(&mut self, id: CheckpointId) {
        let slice = self.entries.make_contiguous();
        let pos = slice.partition_point(|(i, _)| *i < id);
        if slice.get(pos).map(|(i, _)| *i == id).unwrap_or(false) {
            let (_, stored) = self.entries.remove(pos).expect("checked");
            obs::counter!("ckpt.evictions").add(1);
            obs::counter!("ckpt.evicted_bytes").add(stored.logical_len() as u64);
            self.virtual_bytes -= stored.logical_len();
            self.dispose(stored, false);
        }
    }

    /// Discards checkpoints at or after `id` (rollback invalidates them).
    ///
    /// The invalidated paged images are parked until the next `checkpoint`
    /// call so the post-rollback re-capture shares their pages instead of
    /// copying the restored state afresh.
    pub fn truncate_from(&mut self, id: CheckpointId) {
        // At most one parked image at a time.
        for dead in std::mem::take(&mut self.graveyard) {
            dead.release(&mut self.pool);
        }
        while self.entries.back().map(|(i, _)| *i >= id).unwrap_or(false) {
            let (popped, stored) = self.entries.pop_back().expect("checked");
            self.virtual_bytes -= stored.logical_len();
            // Only the restored-to image (`id` itself, popped last) is a
            // useful diff base for the forced re-capture; newer invalidated
            // images release their page refs immediately.
            self.dispose(stored, popped == id);
        }
    }

    /// Releases checkpoints strictly before `id` (the commit horizon).
    pub fn release_before(&mut self, id: CheckpointId) {
        while self.entries.front().map(|(i, _)| *i < id).unwrap_or(false) {
            let (_, stored) = self.entries.pop_front().expect("checked");
            self.virtual_bytes -= stored.logical_len();
            self.dispose(stored, false);
        }
    }

    /// Id of the most recent retained checkpoint.
    pub fn latest(&self) -> Option<CheckpointId> {
        self.entries.back().map(|(i, _)| *i)
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct live pages and their bytes in the shared page pool.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Memory statistics, O(1): every figure is maintained incrementally.
    /// `physical_bytes` counts `Fork` full images plus the page pool's
    /// distinct live pages (including, transiently, images parked between a
    /// rollback truncation and the next capture).
    pub fn stats(&self) -> MemStats {
        let pool = self.pool.stats();
        MemStats {
            retained: self.entries.len(),
            taken: self.taken,
            restores: self.restores,
            virtual_bytes: self.virtual_bytes,
            physical_bytes: self.full_bytes + pool.resident_bytes,
            last_dirty_pages: self.last_dirty,
            total_dirty_pages: self.total_dirty,
            last_fresh_pages: self.last_fresh,
            fresh_bytes: self.fresh_bytes,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            bytes_deduped: pool.bytes_deduped,
            parked_bytes: self.graveyard.iter().map(|img| img.len()).sum(),
        }
    }
}

impl<S> Drop for Checkpointer<S> {
    fn drop(&mut self) {
        // Release image refs so pool bookkeeping stays consistent even if a
        // debug assertion inspects the pool mid-drop. (The pool itself is
        // dropped right after, so this is belt-and-braces.)
        for dead in std::mem::take(&mut self.graveyard) {
            dead.release(&mut self.pool);
        }
        for (_, stored) in std::mem::take(&mut self.entries) {
            if let Stored::Paged(img) = stored {
                img.release(&mut self.pool);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PAGE_SIZE;

    /// A large state with localised mutation, mimicking a routing table.
    #[derive(Clone, Debug, PartialEq)]
    struct Table {
        cells: Vec<u64>,
    }

    impl Table {
        fn new(n: usize) -> Self {
            Table { cells: (0..n as u64).collect() }
        }
        fn poke(&mut self, i: usize, v: u64) {
            self.cells[i] = v;
        }
    }

    impl Snapshotable for Table {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(self.cells.len() as u64).to_le_bytes());
            for c in &self.cells {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        fn decode_from(r: &mut crate::enc::Reader<'_>) -> Option<Self> {
            let n = r.len()?;
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                cells.push(r.u64()?);
            }
            Some(Table { cells })
        }
    }

    fn round_trip(strategy: Strategy) {
        let mut cp = Checkpointer::new(strategy);
        let mut t = Table::new(10_000);
        let a = cp.checkpoint(&t);
        let a_bytes = {
            let mut b = Vec::new();
            t.encode(&mut b);
            b
        };
        t.poke(5, 99);
        let b = cp.checkpoint(&t);
        assert_eq!(cp.restore(a).unwrap().cells[5], 5);
        assert_eq!(cp.restore(b).unwrap().cells[5], 99);
        assert_eq!(cp.len(), 2);
        // The raw bytes are the encoding, whatever the strategy stored.
        let mut buf = vec![7u8; 3];
        assert!(cp.restore_bytes(a, &mut buf));
        assert_eq!(buf, a_bytes);
        assert!(!cp.restore_bytes(CheckpointId(99), &mut buf));
        assert_eq!(cp.stats().restores, 4, "byte restores count as restores");
    }

    #[test]
    fn clone_round_trip() {
        round_trip(Strategy::CloneState);
    }

    #[test]
    fn fork_round_trip() {
        round_trip(Strategy::Fork);
    }

    #[test]
    fn mem_intercept_round_trip() {
        round_trip(Strategy::MemIntercept);
    }

    #[test]
    fn mi_physical_much_smaller_than_virtual() {
        let mut cp = Checkpointer::new(Strategy::MemIntercept);
        let mut t = Table::new(100_000); // ~800 KiB state
        for i in 0..50 {
            t.poke(i, i as u64 + 1_000_000);
            cp.checkpoint(&t);
        }
        let s = cp.stats();
        assert_eq!(s.retained, 50);
        assert!(s.virtual_bytes > 50 * 700_000);
        // All pokes land in the low pages; physical must be near one image.
        assert!(
            (s.physical_bytes as f64) < (s.virtual_bytes as f64) * 0.05,
            "physical {} vs virtual {}",
            s.physical_bytes,
            s.virtual_bytes
        );
        // The paper reports < 2% inflation over the base process size.
        let base = 100_000 * 8 + 8;
        let inflation = s.physical_bytes as f64 / base as f64 - 1.0;
        assert!(inflation < 0.30, "inflation {inflation}");
    }

    #[test]
    fn fork_physical_equals_virtual() {
        let mut cp = Checkpointer::new(Strategy::Fork);
        let t = Table::new(10_000);
        for _ in 0..10 {
            cp.checkpoint(&t);
        }
        let s = cp.stats();
        assert_eq!(s.physical_bytes, s.virtual_bytes);
        assert!(s.virtual_bytes >= 10 * 80_000);
    }

    #[test]
    fn truncate_discards_rollback_targets() {
        let mut cp = Checkpointer::new(Strategy::CloneState);
        let t = Table::new(10);
        let a = cp.checkpoint(&t);
        let b = cp.checkpoint(&t);
        let c = cp.checkpoint(&t);
        cp.truncate_from(b);
        assert_eq!(cp.len(), 1);
        assert_eq!(cp.latest(), Some(a));
        assert!(cp.restore(b).is_none());
        assert!(cp.restore(c).is_none());
    }

    #[test]
    fn remove_discards_only_the_target() {
        for strategy in [Strategy::CloneState, Strategy::Fork, Strategy::MemIntercept] {
            let mut cp = Checkpointer::new(strategy);
            let mut t = Table::new(1000);
            let a = cp.checkpoint(&t);
            t.poke(3, 30);
            let b = cp.checkpoint(&t);
            t.poke(3, 99);
            let c = cp.checkpoint(&t);
            cp.remove(b);
            assert_eq!(cp.len(), 2);
            assert!(cp.restore(b).is_none());
            // Neighbours stay restorable: their pool refs are independent.
            assert_eq!(cp.restore(a).unwrap().cells[3], 3);
            assert_eq!(cp.restore(c).unwrap().cells[3], 99);
            cp.remove(b); // Unknown id: a no-op.
            assert_eq!(cp.len(), 2);
        }
    }

    #[test]
    fn release_advances_horizon() {
        let mut cp = Checkpointer::new(Strategy::Fork);
        let t = Table::new(10);
        let a = cp.checkpoint(&t);
        let b = cp.checkpoint(&t);
        cp.release_before(b);
        assert_eq!(cp.len(), 1);
        assert!(cp.restore(a).is_none());
        assert!(cp.restore(b).is_some());
    }

    #[test]
    fn mi_dirty_counting() {
        let mut cp = Checkpointer::new(Strategy::MemIntercept);
        let mut t = Table::new(10_000);
        cp.checkpoint(&t);
        let first_dirty = cp.stats().last_dirty_pages;
        assert_eq!(first_dirty, (10_000usize * 8 + 8).div_ceil(PAGE_SIZE));
        t.poke(0, 42);
        cp.checkpoint(&t);
        assert_eq!(cp.stats().last_dirty_pages, 1);
        assert!(cp.stats().total_dirty_pages > first_dirty as u64);
    }

    #[test]
    fn recapture_after_truncation_reuses_parked_pages() {
        let mut cp = Checkpointer::new(Strategy::MemIntercept);
        let mut t = Table::new(50_000);
        let a = cp.checkpoint(&t);
        t.poke(7, 1);
        cp.checkpoint(&t);
        t.poke(7, 2);
        cp.checkpoint(&t);
        // Roll all the way back: every image is invalidated…
        let restored = cp.restore(a).unwrap();
        cp.truncate_from(a);
        assert!(cp.is_empty());
        // …but re-capturing the restored state copies nothing: the parked
        // images still hold every page.
        let before = cp.stats().fresh_bytes;
        let b = cp.checkpoint(&restored);
        let s = cp.stats();
        assert_eq!(s.fresh_bytes, before, "re-capture materialised no bytes");
        assert_eq!(s.last_fresh_pages, 0);
        assert_eq!(cp.restore(b).unwrap(), restored);
    }

    #[test]
    fn fresh_bytes_track_what_is_materialised() {
        let mut cp = Checkpointer::new(Strategy::MemIntercept);
        let mut t = Table::new(10_000);
        cp.checkpoint(&t);
        let full = cp.stats().fresh_bytes;
        assert_eq!(full, (10_000 * 8 + 8) as u64, "first capture is all fresh");
        // An unchanged re-capture materialises nothing.
        cp.checkpoint(&t);
        assert_eq!(cp.stats().fresh_bytes, full);
        // A one-page change materialises at most one page.
        t.poke(0, 42);
        cp.checkpoint(&t);
        let delta = cp.stats().fresh_bytes - full;
        assert!(delta <= PAGE_SIZE as u64, "delta {delta}");
        assert!(cp.stats().bytes_deduped > 0);
    }

    #[test]
    fn pool_empties_when_all_checkpoints_are_released() {
        let mut cp = Checkpointer::new(Strategy::MemIntercept);
        let mut t = Table::new(10_000);
        for i in 0..10 {
            t.poke(i, 99 + i as u64);
            cp.checkpoint(&t);
        }
        cp.release_before(CheckpointId(u64::MAX));
        assert!(cp.is_empty());
        let pool = cp.pool_stats();
        assert_eq!(pool.live_pages, 0, "no leaked refcounts");
        assert_eq!(pool.resident_bytes, 0);
        assert_eq!(cp.stats().physical_bytes, 0);
    }

    #[test]
    fn empty_store_behaviour() {
        let mut cp: Checkpointer<Table> = Checkpointer::new(Strategy::Fork);
        assert!(cp.is_empty());
        assert_eq!(cp.latest(), None);
        assert!(cp.restore(CheckpointId(0)).is_none());
        cp.truncate_from(CheckpointId(0));
        cp.release_before(CheckpointId(5));
        assert_eq!(cp.stats().retained, 0);
    }

    #[test]
    fn stats_count_activity() {
        let mut cp = Checkpointer::new(Strategy::CloneState);
        let t = Table::new(5);
        let a = cp.checkpoint(&t);
        cp.checkpoint(&t);
        cp.restore(a);
        let s = cp.stats();
        assert_eq!(s.taken, 2);
        assert_eq!(s.restores, 1);
        assert_eq!(s.retained, 2);
    }
}

//! Simulated-time cost model for checkpoint operations.
//!
//! The microbenchmarks of Fig. 7 are *measured* (Criterion over the real
//! [`crate::Checkpointer`] implementations); this model is what the
//! network-level simulations (Figs. 6 and 8) charge on nodes' critical
//! paths, calibrated to the magnitudes the paper reports.

use crate::pages::PAGE_SIZE;

/// When the per-message checkpoint cost lands on the critical path
/// (paper §5.2, Fig. 7b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForkTiming {
    /// TF — fork when the packet arrives: the full fork cost is paid before
    /// processing.
    OnArrival,
    /// PF — pre-fork after the previous packet: only the copy-on-write
    /// residual is paid at arrival.
    PreFork,
    /// TM — pre-fork and pre-touch heap memory: the residual is also
    /// (mostly) eliminated.
    PreForkTouch,
}

/// Nanosecond costs per operation, tunable per experiment.
///
/// Defaults are calibrated so simulated overheads land in the ranges of
/// Fig. 7: full-fork checkpoints cost on the order of a millisecond for a
/// routing-daemon-sized state, memory-intercept rollbacks ~0.6 ms, and
/// pre-forked non-rollback overhead tens of microseconds.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed cost of invoking the checkpoint machinery (syscall analogue).
    pub fork_base_ns: u64,
    /// Per-page cost of materialising a copied page.
    pub copy_page_ns: u64,
    /// Fraction of the full copy cost still paid at arrival under
    /// [`ForkTiming::PreFork`] (deferred copy-on-write faults).
    pub prefork_residual: f64,
    /// Fraction still paid under [`ForkTiming::PreForkTouch`].
    pub touch_residual: f64,
    /// Per-page cost of recognising a dirty page as already pooled (hash +
    /// compare + refcount, no copy). An order of magnitude below
    /// [`CostModel::copy_page_ns`]: dedup hits are priced, not free.
    pub dedup_page_ns: u64,
    /// Fixed cost of a restore (process switch analogue).
    pub restore_base_ns: u64,
    /// Copy-on-write working-set pages a full-fork (FK) restore must touch
    /// beyond the protocol state itself. A real routing daemon is a large
    /// process (the paper's XORP images run to hundreds of MB, Fig. 7c);
    /// restoring a forked checkpoint faults that working set back in, which
    /// is exactly the cost memory interception (MI) avoids by copying only
    /// changed bytes. Without this term a simulator-sized protocol state
    /// (KBs) would make FK ≈ MI and erase the paper's Fig. 7a gap.
    pub fork_restore_extra_pages: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fork_base_ns: 60_000,      // 60 µs fork() overhead
            copy_page_ns: 600,         // ~0.6 µs per 4 KiB page copied
            dedup_page_ns: 60,         // ~0.06 µs to hash + match a pooled page
            prefork_residual: 0.35,
            touch_residual: 0.05,
            restore_base_ns: 120_000,  // 120 µs context restore
            fork_restore_extra_pages: 8_192, // 32 MiB COW working set
        }
    }
}

impl CostModel {
    /// Critical-path cost (ns) of taking a checkpoint of `state_bytes` with
    /// `dirty_pages` changed since the previous one.
    ///
    /// Full-image strategies pay for every page; memory interception pays
    /// only for dirty pages. The timing mode scales what lands on the
    /// critical path.
    pub fn checkpoint_ns(
        &self,
        timing: ForkTiming,
        state_bytes: usize,
        dirty_pages: Option<usize>,
    ) -> u64 {
        let pages = match dirty_pages {
            Some(d) => d,
            None => state_bytes.div_ceil(PAGE_SIZE),
        };
        // Without pool information every dirty page is priced as a copy.
        self.capture_ns(timing, pages, pages)
    }

    /// Critical-path cost (ns) of a pool-backed (MI) capture: of the
    /// `dirty_pages` that changed since the previous image, only
    /// `fresh_pages` were new to the content-addressed pool and copied; the
    /// rest were dedup hits, priced at [`CostModel::dedup_page_ns`].
    ///
    /// This is the estimator the store's own accounting matches: the copy
    /// term covers exactly the bytes `ckpt.bytes_stored` records
    /// (`MemStats::fresh_bytes`), so estimator and observed bytes cannot
    /// drift apart.
    pub fn capture_ns(&self, timing: ForkTiming, dirty_pages: usize, fresh_pages: usize) -> u64 {
        let fresh = fresh_pages.min(dirty_pages) as u64;
        let deduped = dirty_pages as u64 - fresh;
        let full = self.fork_base_ns + self.copy_page_ns * fresh + self.dedup_page_ns * deduped;
        let frac = match timing {
            ForkTiming::OnArrival => 1.0,
            ForkTiming::PreFork => self.prefork_residual,
            ForkTiming::PreForkTouch => self.touch_residual,
        };
        (full as f64 * frac) as u64
    }

    /// Critical-path cost (ns) of restoring a checkpoint and replaying
    /// `replayed` deliveries, each costing `per_replay_ns`.
    ///
    /// With `dirty_pages = Some(d)` (memory interception) only the changed
    /// pages are copied back; with `None` (full fork) the restore also
    /// faults the forked process's copy-on-write working set
    /// ([`CostModel::fork_restore_extra_pages`]).
    pub fn rollback_ns(
        &self,
        state_bytes: usize,
        dirty_pages: Option<usize>,
        replayed: usize,
        per_replay_ns: u64,
    ) -> u64 {
        let pages = match dirty_pages {
            Some(d) => d,
            None => state_bytes.div_ceil(PAGE_SIZE) + self.fork_restore_extra_pages,
        };
        self.restore_base_ns
            + self.copy_page_ns * pages as u64
            + per_replay_ns * replayed as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_modes_order_costs() {
        let m = CostModel::default();
        let size = 64 * PAGE_SIZE;
        let tf = m.checkpoint_ns(ForkTiming::OnArrival, size, None);
        let pf = m.checkpoint_ns(ForkTiming::PreFork, size, None);
        let tm = m.checkpoint_ns(ForkTiming::PreForkTouch, size, None);
        assert!(tf > pf, "TF must cost more than PF");
        assert!(pf > tm, "PF must cost more than TM");
        assert!(tm > 0);
    }

    #[test]
    fn dirty_pages_cap_the_cost() {
        let m = CostModel::default();
        let size = 1024 * PAGE_SIZE;
        let full = m.checkpoint_ns(ForkTiming::OnArrival, size, None);
        let sparse = m.checkpoint_ns(ForkTiming::OnArrival, size, Some(2));
        assert!(sparse < full / 10);
    }

    #[test]
    fn rollback_scales_with_replay() {
        let m = CostModel::default();
        let a = m.rollback_ns(8 * PAGE_SIZE, Some(2), 0, 50_000);
        let b = m.rollback_ns(8 * PAGE_SIZE, Some(2), 5, 50_000);
        assert_eq!(b - a, 250_000);
    }

    #[test]
    fn estimator_matches_observed_bytes_on_churn() {
        // A synthetic churn run: one page dirtied per round, with a
        // rollback + re-capture after each capture. The estimator's copy
        // term must price exactly the pages the store recorded as
        // materialised (`fresh_bytes` == what `ckpt.bytes_stored` adds),
        // not the full dirty set the naive estimator would charge.
        use crate::{Checkpointer, Snapshotable, Strategy};

        #[derive(Clone)]
        struct Blob(Vec<u8>);
        impl Snapshotable for Blob {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }
            fn decode_from(r: &mut crate::enc::Reader<'_>) -> Option<Self> {
                Some(Blob(r.bytes(r.remaining())?.to_vec()))
            }
        }

        let m = CostModel::default();
        let mut cp = Checkpointer::new(Strategy::MemIntercept);
        let mut blob = Blob(vec![0u8; 64 * PAGE_SIZE]); // page-aligned size
        let mut priced_copy_pages = 0u64;
        let mut dirty_pages_seen = 0u64;
        for round in 0..16usize {
            blob.0[round * PAGE_SIZE] = round as u8 + 1;
            let id = cp.checkpoint(&blob);
            let s = cp.stats();
            priced_copy_pages += s.last_fresh_pages as u64;
            dirty_pages_seen += s.last_dirty_pages as u64;
            // Churn: roll back to the capture and re-commit the same state.
            let restored = cp.restore(id).expect("restorable");
            cp.truncate_from(id);
            cp.checkpoint(&restored);
            let s = cp.stats();
            priced_copy_pages += s.last_fresh_pages as u64;
            dirty_pages_seen += s.last_dirty_pages as u64;
        }
        let observed = cp.stats().fresh_bytes;
        assert_eq!(
            priced_copy_pages * PAGE_SIZE as u64,
            observed,
            "estimator copy term must equal the bytes the store recorded"
        );
        // The churn re-captures copied nothing, so the consistent estimate
        // is strictly below what full dirty-page pricing would charge.
        let consistent = m.capture_ns(
            ForkTiming::OnArrival,
            dirty_pages_seen as usize,
            priced_copy_pages as usize,
        );
        let naive = m.capture_ns(ForkTiming::OnArrival, dirty_pages_seen as usize, dirty_pages_seen as usize);
        assert!(
            consistent < naive,
            "dedup hits must be priced below copies ({consistent} vs {naive})"
        );
    }

    #[test]
    fn mi_rollback_near_paper_magnitude() {
        // Memory interception with a handful of dirty pages should land
        // around the paper's ~0.6 ms median rollback cost.
        let m = CostModel::default();
        let ns = m.rollback_ns(128 * PAGE_SIZE, Some(8), 6, 60_000);
        let ms = ns as f64 / 1e6;
        assert!((0.2..2.0).contains(&ms), "got {ms} ms");
    }
}

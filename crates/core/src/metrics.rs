//! Overhead accounting for DEFINED-RB nodes.

/// Counters one RB shim maintains; the harness aggregates them per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RbMetrics {
    /// Application messages transmitted (including re-sends after rollback).
    pub app_msgs_sent: u64,
    /// Rollback episodes performed.
    pub rollbacks: u64,
    /// History entries re-delivered across all rollbacks.
    pub rolled_entries: u64,
    /// Anti-message (unsend) control packets transmitted.
    pub unsend_msgs: u64,
    /// Message ids retracted via unsends.
    pub unsent_ids: u64,
    /// Beacon packets relayed during flooding.
    pub beacon_relays: u64,
    /// Deliveries taken on the speculative fast path.
    pub fast_path: u64,
    /// Simulated checkpoint/rollback overhead accumulated (ns).
    pub overhead_ns: u64,
    /// Largest history length observed.
    pub max_history: usize,
    /// Arrivals referencing already-committed entries (must stay zero when
    /// the commit horizon is sized correctly).
    pub window_violations: u64,
    /// Unsends that arrived before their target message (poisoned arrivals).
    pub poisoned: u64,
    /// Rolled-back sends kept by lazy cancellation (replay regenerated an
    /// identical message, so no anti-message or re-send was needed).
    pub lazy_hits: u64,
    /// Rollbacks resolved by jumping forward: the inserted straggler left
    /// the state byte-identical, so the suffix after it was spliced back
    /// without re-execution.
    pub jumps: u64,
    /// History entries whose re-execution those jumps skipped.
    pub jumped_entries: u64,
}

impl RbMetrics {
    /// Folds another node's counters into an aggregate.
    pub fn absorb(&mut self, other: &RbMetrics) {
        self.app_msgs_sent += other.app_msgs_sent;
        self.rollbacks += other.rollbacks;
        self.rolled_entries += other.rolled_entries;
        self.unsend_msgs += other.unsend_msgs;
        self.unsent_ids += other.unsent_ids;
        self.beacon_relays += other.beacon_relays;
        self.fast_path += other.fast_path;
        self.overhead_ns += other.overhead_ns;
        self.max_history = self.max_history.max(other.max_history);
        self.window_violations += other.window_violations;
        self.poisoned += other.poisoned;
        self.lazy_hits += other.lazy_hits;
        self.jumps += other.jumps;
        self.jumped_entries += other.jumped_entries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = RbMetrics { rollbacks: 2, max_history: 5, ..Default::default() };
        let b = RbMetrics { rollbacks: 3, max_history: 9, unsend_msgs: 4, ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.rollbacks, 5);
        assert_eq!(a.max_history, 9);
        assert_eq!(a.unsend_msgs, 4);
    }
}

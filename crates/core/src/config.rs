//! Run-wide DEFINED configuration.

use checkpoint::{CostModel, ForkTiming, Strategy};
use netsim::SimDuration;

/// Which pseudorandom ordering function nodes apply (paper §2.2, §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderingMode {
    /// OO — the delay-sensitive optimised ordering: sort by estimated
    /// arrival delay `d`, matching the common-case arrival order, which
    /// minimises rollbacks.
    Optimized,
    /// RO — a hash-permuted ordering (the "straightforward hashing and
    /// permutation" strawman); deterministic but uncorrelated with arrival
    /// order, so rollbacks are frequent.
    Random,
    /// A salted hash permutation. Each salt yields a *different*
    /// deterministic schedule; sweeping salts in DEFINED-LS explores
    /// alternative execution paths, as §4's discussion suggests for bugs the
    /// production ordering happens to mask.
    Permuted(u64),
}

/// When DEFINED-RB takes checkpoints, in deliveries per capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapturePolicy {
    /// Take a checkpoint every `k` deliveries (1 = every delivery; larger
    /// values trade rollback depth for non-rollback overhead — the paper's
    /// §3 optimisation, swept by the ablation bench).
    Every(u32),
    /// Churn-adaptive: start at `min` and re-evaluate once per window of
    /// [`CapturePolicy::ADAPT_WINDOW`] deliveries — doubling the interval
    /// (up to `max`) after a window that rolled back, shortening it by one
    /// delivery (down to `min`) after a quiet one. The asymmetry keeps the
    /// interval wide under sustained churn even when individual windows
    /// happen to stay quiet. Each node adapts off its *own* delivered
    /// history and rollback count, both of which replay identically, so the
    /// schedule is deterministic per seed.
    Auto {
        /// Floor (and starting) interval, in deliveries.
        min: u32,
        /// Ceiling interval, in deliveries.
        max: u32,
    },
}

impl CapturePolicy {
    /// Deliveries per adaptation decision in [`CapturePolicy::Auto`].
    pub const ADAPT_WINDOW: u32 = 64;

    /// The default adaptive policy: every delivery when quiet, backing off
    /// to at most one capture per 64 deliveries under rollback churn.
    pub fn auto() -> Self {
        CapturePolicy::Auto { min: 1, max: 64 }
    }

    /// The interval a node starts with.
    pub fn initial_interval(&self) -> u32 {
        match *self {
            CapturePolicy::Every(k) => k.max(1),
            CapturePolicy::Auto { min, .. } => min.max(1),
        }
    }
}

impl Default for CapturePolicy {
    fn default() -> Self {
        CapturePolicy::Every(1)
    }
}

impl std::fmt::Display for CapturePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CapturePolicy::Every(k) => write!(f, "every {k}"),
            CapturePolicy::Auto { min, max } => write!(f, "auto {min}..{max}"),
        }
    }
}

/// A `--ckpt-interval` value that is neither a positive integer nor `auto`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseCapturePolicyError(pub String);

impl std::fmt::Display for ParseCapturePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad capture policy {:?}: expected a positive integer or \"auto\"", self.0)
    }
}

impl std::error::Error for ParseCapturePolicyError {}

impl std::str::FromStr for CapturePolicy {
    type Err = ParseCapturePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("auto") {
            return Ok(CapturePolicy::auto());
        }
        match t.parse::<u32>() {
            Ok(k) if k >= 1 => Ok(CapturePolicy::Every(k)),
            _ => Err(ParseCapturePolicyError(s.to_string())),
        }
    }
}

/// Configuration shared by every DEFINED-RB node and the LS replayer.
#[derive(Clone, Debug)]
pub struct DefinedConfig {
    /// Beacon broadcast interval; one beacon = one group = one virtual-time
    /// tick. The paper uses 250 ms.
    pub beacon_interval: SimDuration,
    /// Ordering function selector.
    pub ordering: OrderingMode,
    /// Maximum causal-chain length per timestep; messages beyond the bound
    /// are assigned to the next group (§2.2).
    pub chain_bound: u32,
    /// Checkpoint storage strategy.
    pub strategy: Strategy,
    /// When checkpoint cost lands on the critical path.
    pub fork_timing: ForkTiming,
    /// Simulated-time cost model for checkpoint/rollback overheads.
    pub cost: CostModel,
    /// Capture cadence: fixed interval or churn-adaptive.
    pub capture: CapturePolicy,
    /// Commit horizon: history entries older than this are committed and
    /// garbage-collected. `None` keeps the full history (needed when a
    /// recording will be extracted). The paper sizes this as twice the
    /// maximum propagation time, estimated as mean + 4σ (§2.2).
    pub commit_horizon: Option<SimDuration>,
}

impl Default for DefinedConfig {
    fn default() -> Self {
        DefinedConfig {
            beacon_interval: SimDuration::from_millis(250),
            ordering: OrderingMode::Optimized,
            chain_bound: 24,
            strategy: Strategy::CloneState,
            fork_timing: ForkTiming::PreForkTouch,
            cost: CostModel::default(),
            capture: CapturePolicy::Every(1),
            commit_horizon: None,
        }
    }
}

impl DefinedConfig {
    /// The paper's production configuration: fork-based checkpoints taken on
    /// packet arrival, with a commit horizon.
    pub fn production(horizon: SimDuration) -> Self {
        DefinedConfig {
            strategy: Strategy::Fork,
            fork_timing: ForkTiming::OnArrival,
            commit_horizon: Some(horizon),
            ..DefinedConfig::default()
        }
    }

    /// Recording-friendly configuration: full history retained so the
    /// partial recording and committed logs can be extracted.
    pub fn recording() -> Self {
        DefinedConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DefinedConfig::default();
        assert_eq!(c.beacon_interval, SimDuration::from_millis(250));
        assert_eq!(c.ordering, OrderingMode::Optimized);
        assert_eq!(c.capture, CapturePolicy::Every(1));
    }

    #[test]
    fn capture_policy_parses_and_rejects() {
        assert_eq!("4".parse::<CapturePolicy>(), Ok(CapturePolicy::Every(4)));
        assert_eq!("auto".parse::<CapturePolicy>(), Ok(CapturePolicy::auto()));
        assert_eq!("AUTO".parse::<CapturePolicy>(), Ok(CapturePolicy::auto()));
        assert!("0".parse::<CapturePolicy>().is_err());
        assert!("-3".parse::<CapturePolicy>().is_err());
        assert!("often".parse::<CapturePolicy>().is_err());
        assert_eq!(CapturePolicy::Every(8).to_string(), "every 8");
        assert_eq!(CapturePolicy::auto().to_string(), "auto 1..64");
        assert_eq!(CapturePolicy::auto().initial_interval(), 1);
    }

    #[test]
    fn production_config_uses_fork_on_arrival() {
        let c = DefinedConfig::production(SimDuration::from_secs(2));
        assert_eq!(c.strategy, Strategy::Fork);
        assert_eq!(c.fork_timing, ForkTiming::OnArrival);
        assert_eq!(c.commit_horizon, Some(SimDuration::from_secs(2)));
    }
}

//! Link model: propagation delay, jitter, loss, and administrative state.

use crate::process::NodeId;
use crate::rng::DetRng;
use crate::time::SimDuration;

/// Directed link identifier `(src, dst)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkKey {
    /// Transmitting endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
}

/// Random per-packet delay variation applied on top of the base delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JitterModel {
    /// No jitter; delivery delay is exactly the base delay.
    None,
    /// Uniform jitter in `[0, frac * base_delay]`.
    Uniform {
        /// Fraction of the base delay used as the jitter range.
        frac: f64,
    },
}

impl JitterModel {
    /// Samples a jitter offset for a packet on a link with `base` delay.
    pub fn sample(&self, base: SimDuration, rng: &mut DetRng) -> SimDuration {
        match *self {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform { frac } => {
                let max = base.as_secs_f64() * frac;
                SimDuration::from_secs_f64(rng.gen_f64() * max)
            }
        }
    }
}

/// Packet loss model of a link (control-channel sends are exempt).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModel {
    /// No losses.
    None,
    /// Independent per-packet loss with the given probability.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
}

/// Static parameters of one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Base propagation delay.
    pub delay: SimDuration,
    /// Per-packet jitter model.
    pub jitter: JitterModel,
    /// Loss model.
    pub loss: LossModel,
}

impl LinkParams {
    /// Link with the given base delay and no jitter or loss. Packets draw
    /// their delays independently, so they may reorder.
    pub fn with_delay(delay: SimDuration) -> Self {
        LinkParams {
            delay,
            jitter: JitterModel::None,
            loss: LossModel::None,
        }
    }

    /// Sets the jitter model.
    pub fn jitter(mut self, jitter: JitterModel) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the loss model.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }
}

/// Runtime state of a directed link.
#[derive(Clone, Debug)]
pub(crate) struct Link {
    pub params: LinkParams,
    /// Administrative state; down links drop every packet.
    pub up: bool,
}

impl Link {
    pub fn new(params: LinkParams) -> Self {
        Link { params, up: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_jitter_is_zero() {
        let mut rng = DetRng::new(4);
        let j = JitterModel::None.sample(SimDuration::from_millis(10), &mut rng);
        assert_eq!(j, SimDuration::ZERO);
    }

    #[test]
    fn uniform_jitter_within_bounds() {
        let mut rng = DetRng::new(4);
        let base = SimDuration::from_millis(10);
        for _ in 0..1000 {
            let j = JitterModel::Uniform { frac: 0.5 }.sample(base, &mut rng);
            assert!(j <= SimDuration::from_millis(5));
        }
    }

    #[test]
    fn builder_chains() {
        let p = LinkParams::with_delay(SimDuration::from_millis(2))
            .jitter(JitterModel::Uniform { frac: 0.1 })
            .loss(LossModel::Bernoulli { p: 0.01 });
        assert_eq!(p.loss, LossModel::Bernoulli { p: 0.01 });
        assert_eq!(p.delay, SimDuration::from_millis(2));
    }
}

//! Checkpoint/rollback substrate for DEFINED-RB.
//!
//! The paper checkpoints routing daemons with `fork()` (copy-on-write) and,
//! as an optimisation, intercepts memory writes through `/proc/<pid>/mem` to
//! copy only changed bytes (§3, §5.2). Neither mechanism is portable or safe
//! in-process, so this crate recreates their *cost and memory structure* over
//! explicit state snapshots:
//!
//! * [`Strategy::Fork`] (FK) — stores a full encoded image per checkpoint, as
//!   a fork's address-space copy would.
//! * [`Strategy::MemIntercept`] (MI) — stores a page-granular diff against
//!   the previous checkpoint; unchanged 4 KiB pages are shared via `Arc`,
//!   exactly the sharing copy-on-write provides.
//! * [`Strategy::CloneState`] — a plain deep clone; the fastest functional
//!   baseline, used when only correctness (not cost modelling) matters.
//!
//! Memory accounting distinguishes **virtual** bytes (what `fork()` maps:
//! every checkpoint's full image — the paper's VM curve in Fig. 7c) from
//! **physical** bytes (unique pages actually materialised — the PM curve).
//! Under MI every page is interned in a content-addressed, refcounted
//! [`PagePool`], so identical content is stored once across checkpoints,
//! across retention thinning, and across rollback generations — checkpoint
//! cost scales with state that *changed*, not with checkpoints taken.
//!
//! The [`ForkTiming`] enum models *when* the checkpoint cost is paid relative
//! to packet processing (Fig. 7b): at arrival (TF), pre-forked during idle
//! (PF), or pre-forked with memory pre-touched (TM).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost;
pub mod enc;
mod pages;
mod pool;
mod store;
mod timeline;

pub use cost::{CostModel, ForkTiming};
use enc::Reader;
pub use pages::{BuildCost, PageImage, PAGE_SIZE};
pub use pool::{PagePool, PoolStats};
pub use store::{CheckpointId, Checkpointer, MemStats, Strategy};
pub use timeline::{RetentionPolicy, Timeline};

/// FNV-1a digest over bytes; the cheap state-comparison primitive used
/// throughout the workspace.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// Incremental [`fnv1a`]: feeding the same bytes in any number of pieces
/// yields the one-shot digest. It is a [`std::fmt::Write`] sink, so a
/// `Debug`/`Display` rendering can be digested without materialising it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// A state that can be checkpointed: deep-clonable and round-trippable
/// through a stable byte encoding.
pub trait Snapshotable: Clone {
    /// Appends a stable, self-delimiting byte encoding of the full state.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Reads one state back from where `r` stands, consuming exactly the
    /// bytes [`Snapshotable::encode`] wrote — so a composite state decodes
    /// its parts one after another from a single reader.
    ///
    /// Returns `None` on malformed input.
    fn decode_from(r: &mut Reader<'_>) -> Option<Self>;

    /// Reconstructs a state from [`Snapshotable::encode`] output.
    ///
    /// Returns `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self> {
        Self::decode_from(&mut Reader::new(bytes))
    }

    /// Appends the bytes that *determine* the full encoding: for any two
    /// states of one type, equal primary bytes if and only if equal
    /// [`Snapshotable::encode`] bytes. A state that carries data derived
    /// from the rest of itself overrides this to leave the derived part
    /// (and the cost of bringing it up to date) out, which makes primary
    /// bytes the cheap way to ask "did the state change?". Not decodable;
    /// checkpoint images always hold the full encoding.
    fn encode_primary(&self, buf: &mut Vec<u8>) {
        self.encode(buf);
    }

    /// Whether decoding this state's encoding would yield a state
    /// indistinguishable from it, derived parts and `Debug` rendering
    /// included. A state whose derived part is stale (a cache not yet
    /// brought up to date) returns false: its encoding brings the cache up
    /// to date, its live value does not. A rewind may keep a live state in
    /// place of decoding an equal checkpointed one only when this holds.
    fn is_canonical(&self) -> bool {
        true
    }

    /// A 64-bit digest of the encoded state.
    fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(256);
        self.encode(&mut buf);
        fnv1a(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    #[test]
    fn incremental_fnv_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
        for cut in [0, 1, 7, 256, 699, 700] {
            let mut h = Fnv1a::default();
            h.update(&bytes[..cut]);
            h.update(&bytes[cut..]);
            assert_eq!(h.finish(), fnv1a(&bytes), "split at {cut}");
        }
        use std::fmt::Write;
        let mut h = Fnv1a::default();
        write!(h, "{:?}-{}", (1, "a"), 2.5).unwrap();
        assert_eq!(h.finish(), fnv1a(format!("{:?}-{}", (1, "a"), 2.5).as_bytes()));
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Blob(Vec<u8>);
    impl Snapshotable for Blob {
        fn encode(&self, buf: &mut Vec<u8>) {
            enc::put_u64(buf, self.0.len() as u64);
            buf.extend_from_slice(&self.0);
        }
        fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
            let len = r.len()?;
            Some(Blob(r.bytes(len)?.to_vec()))
        }
    }

    #[test]
    fn snapshotable_round_trip_and_digest() {
        let b = Blob(vec![1, 2, 3]);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        assert_eq!(Blob::decode(&buf), Some(b.clone()));
        // A state with nothing derived: its primary bytes are its encoding.
        let mut primary = Vec::new();
        b.encode_primary(&mut primary);
        assert_eq!(primary, buf);
        assert_eq!(b.digest(), Blob(vec![1, 2, 3]).digest());
        assert_ne!(b.digest(), Blob(vec![1, 2, 4]).digest());
    }
}

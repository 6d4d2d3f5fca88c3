//! Appending a recording to a store: framing, sync points, fsync policy.

use crate::format::{encode_header, kind, StoreError, StoreMeta};
use crate::io::StoreIo;
use defined_core::recorder::{CommitRecord, DropByIndex, ExtRecord, MuteRecord, Recording, TickRecord};
use defined_core::wire::Wire;
use defined_obs as obs;
use netsim::NodeId;
use routing::enc::{put_u32, put_u64, put_u8};
use std::marker::PhantomData;

/// When the writer flushes to durable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` at every sync point and at finish — a crash loses at most
    /// one inter-sync window. The default.
    #[default]
    OnSync,
    /// Never `fsync`; durability is whatever the OS got around to. For
    /// tests and throughput experiments.
    Never,
}

/// Streams one recording into a [`StoreIo`] sink, append-only.
///
/// Layout contract (enforced by construction): header → meta → sync(0) →
/// data frames interleaved with sync points → \[commits × n_nodes →
/// finish\]. `finish` consumes the writer, so appending after the
/// terminal frame is unrepresentable.
pub struct StoreWriter<X, Io: StoreIo> {
    io: Io,
    policy: FsyncPolicy,
    n_nodes: usize,
    data_frames: u64,
    n_ext: u64,
    n_drops: u64,
    n_mutes: u64,
    n_ticks: u64,
    last_sync: u64,
    tombstoned: bool,
    /// The one frame under construction, reused from frame to frame.
    buf: Vec<u8>,
    _ext: PhantomData<fn() -> X>,
}

impl<X: Wire, Io: StoreIo> StoreWriter<X, Io> {
    /// Starts a store: writes the header, the meta frame, and the initial
    /// group-0 sync point.
    pub fn create(io: Io, meta: &StoreMeta, policy: FsyncPolicy) -> Result<Self, StoreError> {
        let mut w = StoreWriter {
            io,
            policy,
            n_nodes: meta.n_nodes,
            data_frames: 0,
            n_ext: 0,
            n_drops: 0,
            n_mutes: 0,
            n_ticks: 0,
            last_sync: 0,
            tombstoned: false,
            buf: Vec::new(),
            _ext: PhantomData,
        };
        let mut header = Vec::with_capacity(crate::format::HEADER_LEN);
        encode_header(&mut header);
        w.io.write_all(&header)?;
        obs::counter!("store.bytes_written").add(header.len() as u64);
        w.frame(kind::META, |buf| meta.encode(buf))?;
        w.sync_point(0)?;
        Ok(w)
    }

    /// Appends one external event.
    pub fn append_ext(&mut self, e: &ExtRecord<X>) -> Result<(), StoreError> {
        self.append_ext_fields(e.node, e.ext_seq, e.group, &e.payload)
    }

    /// [`append_ext`](Self::append_ext) from borrowed fields: the streaming
    /// path reads payloads straight out of the nodes' logs and must not
    /// clone one into an [`ExtRecord`] per frame.
    pub fn append_ext_fields(
        &mut self,
        node: NodeId,
        ext_seq: u64,
        group: u64,
        payload: &X,
    ) -> Result<(), StoreError> {
        self.data_frames += 1;
        self.n_ext += 1;
        self.frame(kind::EXT, |buf| ExtRecord::encode_fields(node, ext_seq, group, payload, buf))
    }

    /// Appends one committed message loss.
    pub fn append_drop(&mut self, d: &DropByIndex) -> Result<(), StoreError> {
        self.data_frames += 1;
        self.n_drops += 1;
        self.frame(kind::DROP, |buf| d.encode(buf))
    }

    /// Appends one death cut.
    pub fn append_mute(&mut self, m: &MuteRecord) -> Result<(), StoreError> {
        self.data_frames += 1;
        self.n_mutes += 1;
        self.frame(kind::MUTE, |buf| m.encode(buf))
    }

    /// Appends one delivered beacon tick.
    pub fn append_tick(&mut self, t: &TickRecord) -> Result<(), StoreError> {
        self.data_frames += 1;
        self.n_ticks += 1;
        self.frame(kind::TICK, |buf| t.encode(buf))
    }

    /// Writes a sync point declaring everything up to and including
    /// `group` durable, flushing per the fsync policy. Recovery truncates
    /// a torn tail back to the latest of these.
    pub fn sync_point(&mut self, group: u64) -> Result<(), StoreError> {
        debug_assert!(group >= self.last_sync, "sync points must be monotone");
        debug_assert!(!self.tombstoned, "no sync points after a reset tombstone");
        self.last_sync = group;
        let data_frames = self.data_frames; // Self-check tally.
        self.frame(kind::SYNC, |buf| {
            put_u64(buf, group);
            put_u64(buf, data_frames);
        })?;
        obs::counter!("store.sync_points").add(1);
        self.flush()
    }

    /// Flushes to durable storage when the policy asks for it.
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.policy == FsyncPolicy::OnSync {
            let _span = obs::span!("store.fsync");
            self.io.sync()?;
            obs::counter!("store.fsync").add(1);
        }
        Ok(())
    }

    /// Group of the most recent sync point.
    pub fn synced_group(&self) -> u64 {
        self.last_sync
    }

    /// Appends a retraction tombstone: every data frame written so far is
    /// superseded by whatever follows. The escape hatch for streamed runs
    /// whose canonical recording disowns already-durable frames (a node
    /// restart discards its pre-crash committed log, DESIGN.md §7) — an
    /// append-only file cannot unwrite, so the writer tombstones the
    /// stream and re-appends the authoritative content before finishing.
    /// Self-check tallies restart from zero; no sync point may follow
    /// (torn-tail recovery must land on a pre-reset prefix).
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.frame(kind::RESET, |_| {})?;
        self.tombstoned = true;
        self.n_ext = 0;
        self.n_drops = 0;
        self.n_mutes = 0;
        self.n_ticks = 0;
        Ok(())
    }

    /// Closes the store: one commits frame per node, the terminal finish
    /// frame (with self-check counts), and a final flush. Consuming
    /// `self` makes append-after-finish a type error.
    ///
    /// `commits` must hold exactly one log per node — anything else is a
    /// caller bug, not a file-corruption condition, hence the assert.
    pub fn finish(
        mut self,
        last_group: u64,
        upto: u64,
        commits: &[Vec<CommitRecord>],
    ) -> Result<Io, StoreError> {
        assert_eq!(commits.len(), self.n_nodes, "one commit log per node");
        for (node, log) in commits.iter().enumerate() {
            self.frame(kind::COMMITS, |buf| {
                put_u32(buf, node as u32);
                put_u64(buf, log.len() as u64);
                for r in log {
                    r.encode(buf);
                }
            })?;
        }
        let tallies = [last_group, upto, self.n_ext, self.n_drops, self.n_mutes, self.n_ticks];
        self.frame(kind::FINISH, |buf| tallies.iter().for_each(|&v| put_u64(buf, v)))?;
        self.flush()?;
        Ok(self.io)
    }

    /// Emits one CRC-framed record in a single `write_all`, so injected
    /// per-write faults tear the file exactly at (or inside) one frame.
    /// `payload` encodes straight into the reused frame buffer, behind a
    /// length field patched in once the payload's size is known.
    fn frame(&mut self, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Result<(), StoreError> {
        const LEN_AT: usize = 1;
        const PAYLOAD_AT: usize = LEN_AT + 4;
        let buf = &mut self.buf;
        buf.clear();
        put_u8(buf, kind);
        put_u32(buf, 0);
        payload(buf);
        let len = (buf.len() - PAYLOAD_AT) as u32;
        buf[LEN_AT..PAYLOAD_AT].copy_from_slice(&len.to_le_bytes());
        let crc = crate::crc::crc32(buf);
        put_u32(buf, crc);
        self.io.write_all(buf)?;
        obs::counter!("store.bytes_written").add(buf.len() as u64);
        Ok(())
    }
}

/// Writes a complete in-memory recording to `io` with a sync point every
/// `sync_every` groups, returning the sink.
///
/// The live engine streams frames as production progresses instead; this
/// helper is the offline path (tests, conversions) and produces the same
/// layout.
pub fn write_recording<X: Wire, Io: StoreIo>(
    io: Io,
    meta: &StoreMeta,
    rec: &Recording<X>,
    commits: &[Vec<CommitRecord>],
    upto: u64,
    sync_every: u64,
    policy: FsyncPolicy,
) -> Result<Io, StoreError> {
    let mut w = StoreWriter::<X, Io>::create(io, meta, policy)?;
    let step = sync_every.max(1);
    let (mut ei, mut ti) = (0usize, 0usize);
    let mut g = 0u64;
    while g < rec.last_group {
        g = (g + step).min(rec.last_group);
        while ei < rec.externals.len() && rec.externals[ei].group <= g {
            w.append_ext(&rec.externals[ei])?;
            ei += 1;
        }
        while ti < rec.ticks.len() && rec.ticks[ti].group <= g {
            w.append_tick(&rec.ticks[ti])?;
            ti += 1;
        }
        w.sync_point(g)?;
    }
    // Externals may legitimately carry groups past the last completed
    // group (inputs that arrived as the run was winding down).
    for e in &rec.externals[ei..] {
        w.append_ext(e)?;
    }
    for t in &rec.ticks[ti..] {
        w.append_tick(t)?;
    }
    for d in &rec.drops {
        w.append_drop(d)?;
    }
    for m in &rec.mutes {
        w.append_mute(m)?;
    }
    w.finish(rec.last_group, upto, commits)
}

//! Worker-side round execution over a contiguous node range.
//!
//! A [`PartitionEngine`] is the distributed executor's unit of work:
//! it owns the programs of nodes `[lo, hi)` and steps them through the
//! *same* fused send path as the in-process sequential executor — the
//! `DirectInbox` sinks, the flat per-directed-edge load table, the
//! broadcast slot generations, the fault plan evaluated at the send —
//! so verdicts, wire counters, bandwidth violations, and fault
//! accounting are bit-identical to the sequential oracle by
//! construction, not by re-implementation.
//!
//! Messages addressed inside the range land in the local double-
//! buffered inboxes exactly as in-process; messages addressed outside
//! it are drained after the round as [`OutFrame`]s for the transport
//! layer to ship. Deliveries arriving from other partitions are
//! [`PartitionEngine::inject`]ed, and [`PartitionEngine::commit_round`]
//! restores the canonical delivery order (ascending sender, then the
//! sender's queueing order) before the buffers swap: receiver-side
//! ports are sorted by neighbor index, so a stable sort by port *is*
//! the ascending-sender order, and within one port every packet came
//! from the same sender in emission order.

use std::ops::Range;

use crate::arena::{InboxArena, LoadTable, RoundAcc};
use crate::engine::{finalize_violation, EngineConfig, WireFlags};
use crate::graph::{Graph, NodeIndex};
use crate::message::WireParams;
use crate::metrics::{FaultReport, RoundStats};
use crate::node::{
    DirectSink, Inbox, NodeInit, Outbox, Packet, Program, SinkCtx, SinkMode, Status,
};

use super::frame::{ByteReader, ByteWriter, FrameError};

/// The contiguous node range worker `worker` of `workers` owns:
/// `[⌊w·n/W⌋, ⌊(w+1)·n/W⌋)`. Covers every node exactly once for any
/// worker count, including `workers > n` (trailing workers get empty
/// ranges).
pub fn partition_range(n: usize, workers: u32, worker: u32) -> Range<NodeIndex> {
    assert!(workers > 0, "at least one worker");
    assert!(worker < workers, "worker index in range");
    let (n, w, i) = (n as u64, u64::from(workers), u64::from(worker));
    ((i * n / w) as NodeIndex)..(((i + 1) * n / w) as NodeIndex)
}

/// One cross-partition delivery: the engine message bound for `port`
/// of `receiver`, already past the fault plan (drops are absent,
/// corruption is resolved) — exactly what an in-process inbox would
/// hold.
#[derive(Clone, Debug)]
pub struct OutFrame<M> {
    /// Receiving node (global index, outside this partition).
    pub receiver: NodeIndex,
    /// Receiver-side local port.
    pub port: u32,
    /// The delivered payload.
    pub msg: M,
}

/// A round's sender-side accounting, mirroring the engine's internal
/// accumulator field-for-field so coordinator-side merges reproduce
/// the in-process statistics bit-for-bit. Merging is associative and
/// `violation` keeps the leftmost entry; merging partition digests in
/// ascending range order therefore equals the sequential fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundDigest {
    pub messages: u64,
    pub bits: u64,
    pub max_message_bits: u64,
    pub max_link_bits: u64,
    pub max_link_messages: u64,
    /// Nodes that transitioned `Running → Halted` this round.
    pub halted: u32,
    /// First (by node index) link that exceeded an enforced budget:
    /// `(sender, port, end-of-round link bits)`.
    pub violation: Option<(NodeIndex, u32, u64)>,
    /// Per-kind drop counters, indexed by
    /// [`crate::fault::DropKind::index`].
    pub drops_by_kind: [u64; crate::fault::DropKind::COUNT],
    pub corrupted_delivered: u64,
    pub corrupted_rejected: u64,
}

impl RoundDigest {
    pub(crate) fn from_acc(acc: &RoundAcc) -> Self {
        RoundDigest {
            messages: acc.messages,
            bits: acc.bits,
            max_message_bits: acc.max_message_bits,
            max_link_bits: acc.max_link_bits,
            max_link_messages: acc.max_link_messages,
            halted: acc.halted,
            violation: acc.violation,
            drops_by_kind: acc.drops_by_kind,
            corrupted_delivered: acc.corrupted_delivered,
            corrupted_rejected: acc.corrupted_rejected,
        }
    }

    /// Associative merge; keeps the leftmost violation.
    pub fn merge(a: RoundDigest, b: RoundDigest) -> RoundDigest {
        let mut drops_by_kind = a.drops_by_kind;
        for (d, s) in drops_by_kind.iter_mut().zip(b.drops_by_kind) {
            *d += s;
        }
        RoundDigest {
            messages: a.messages + b.messages,
            bits: a.bits + b.bits,
            max_message_bits: a.max_message_bits.max(b.max_message_bits),
            max_link_bits: a.max_link_bits.max(b.max_link_bits),
            max_link_messages: a.max_link_messages.max(b.max_link_messages),
            halted: a.halted + b.halted,
            violation: a.violation.or(b.violation),
            drops_by_kind,
            corrupted_delivered: a.corrupted_delivered + b.corrupted_delivered,
            corrupted_rejected: a.corrupted_rejected + b.corrupted_rejected,
        }
    }

    /// The per-round report row, as the engine records it.
    pub fn to_stats(&self, round: u32, active_nodes: usize) -> RoundStats {
        RoundStats {
            round,
            active_nodes,
            messages: self.messages,
            bits: self.bits,
            max_message_bits: self.max_message_bits,
            max_link_bits: self.max_link_bits,
            max_link_messages: self.max_link_messages,
        }
    }

    /// Folds the fault counters into a run-level report, as the engine
    /// does after each completed round.
    pub fn add_faults_to(&self, fr: &mut FaultReport) {
        use crate::fault::DropKind;
        fr.dropped_explicit += self.drops_by_kind[DropKind::Explicit.index()];
        fr.dropped_random += self.drops_by_kind[DropKind::Random.index()];
        fr.dropped_crash += self.drops_by_kind[DropKind::Crash.index()];
        fr.dropped_cut += self.drops_by_kind[DropKind::Cut.index()];
        fr.dropped_burst += self.drops_by_kind[DropKind::Burst.index()];
        fr.corrupted_delivered += self.corrupted_delivered;
        fr.corrupted_rejected += self.corrupted_rejected;
    }

    /// Wire encoding for the `Done` frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.messages);
        w.u64(self.bits);
        w.u64(self.max_message_bits);
        w.u64(self.max_link_bits);
        w.u64(self.max_link_messages);
        w.u32(self.halted);
        match self.violation {
            Some((node, port, bits)) => {
                w.u8(1);
                w.u32(node);
                w.u32(port);
                w.u64(bits);
            }
            None => w.u8(0),
        }
        for d in self.drops_by_kind {
            w.u64(d);
        }
        w.u64(self.corrupted_delivered);
        w.u64(self.corrupted_rejected);
        w.0
    }

    /// Decodes a `Done` frame body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = ByteReader::new(bytes);
        let mut d = RoundDigest {
            messages: r.u64()?,
            bits: r.u64()?,
            max_message_bits: r.u64()?,
            max_link_bits: r.u64()?,
            max_link_messages: r.u64()?,
            halted: r.u32()?,
            ..RoundDigest::default()
        };
        d.violation = if r.u8()? != 0 { Some((r.u32()?, r.u32()?, r.u64()?)) } else { None };
        for slot in d.drops_by_kind.iter_mut() {
            *slot = r.u64()?;
        }
        d.corrupted_delivered = r.u64()?;
        d.corrupted_rejected = r.u64()?;
        r.finish()?;
        Ok(d)
    }
}

struct LocalSlot<P: Program> {
    prog: P,
    status: Status,
}

/// The partition executor proper (see the module doc).
pub struct PartitionEngine<'g, P: Program> {
    graph: &'g Graph,
    config: EngineConfig,
    params: WireParams,
    wf: WireFlags,
    lo: NodeIndex,
    hi: NodeIndex,
    slots: Vec<LocalSlot<P>>,
    cur: InboxArena<P::Msg>,
    next: InboxArena<P::Msg>,
    loads: LoadTable,
}

impl<'g, P: Program> PartitionEngine<'g, P> {
    /// Builds the partition for `worker` of `workers`, instantiating
    /// one program per owned node through `factory` (the same
    /// [`NodeInit`] the in-process engine hands out).
    pub fn new<F>(
        graph: &'g Graph,
        config: &EngineConfig,
        params: WireParams,
        workers: u32,
        worker: u32,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(NodeInit<'g>) -> P,
    {
        let n = graph.n();
        let m = graph.m();
        let range = partition_range(n, workers, worker);
        let slots = range
            .clone()
            .map(|v| {
                let init = NodeInit {
                    index: v,
                    id: graph.id(v),
                    neighbor_ids: graph.neighbor_ids(v),
                    ports_by_id: graph.ports_sorted_by_id(v),
                    n,
                    m,
                };
                LocalSlot { prog: factory(init), status: Status::Running }
            })
            .collect();
        let wf = WireFlags::for_config(config);
        let mut loads = LoadTable::new(0);
        loads.reset(if wf.account { graph.num_directed_edges() } else { 0 });
        let mut cur = InboxArena::new(0);
        let mut next = InboxArena::new(0);
        cur.reset(n);
        next.reset(n);
        PartitionEngine {
            graph,
            config: config.clone(),
            params,
            wf,
            lo: range.start,
            hi: range.end,
            slots,
            cur,
            next,
            loads,
        }
    }

    /// The owned node range.
    pub fn range(&self) -> Range<NodeIndex> {
        self.lo..self.hi
    }

    /// Locally running nodes (for termination bookkeeping and tests;
    /// the coordinator tracks the global count from digests).
    pub fn local_active(&self) -> usize {
        self.slots.iter().filter(|s| s.status == Status::Running).count()
    }

    /// Executes one round over the owned range: gathers each node's
    /// inbox, steps it through the fused accounted send path, and
    /// appends every delivery addressed outside the range to `out`
    /// (ascending receiver, then canonical within-receiver order).
    /// Returns the partition's share of the round accounting.
    pub fn step_round(&mut self, round: u32, out: &mut Vec<OutFrame<P::Msg>>) -> RoundDigest {
        let WireFlags { check_faults, limit, account, heavy } = self.wf;
        let mode = if heavy { SinkMode::HeavyInbox } else { SinkMode::FastInbox };
        let ctx = SinkCtx {
            params: &self.params,
            faults: &self.config.faults,
            check_faults,
            account,
            limit,
            round,
            stamp: self.loads.stamp_for(round),
        };
        let mut acc = RoundAcc::default();
        for v in self.lo..self.hi {
            let slot = &mut self.slots[(v - self.lo) as usize];
            // SAFETY: single-threaded partition loop — only `v`'s
            // current buffer is referenced here, and sends only touch
            // `next` buffers.
            let inbox = unsafe { self.cur.inbox(v) };
            if slot.status != Status::Running {
                // Drop traffic addressed to a halted node.
                inbox.clear();
                continue;
            }
            let lanes = self.graph.directed_edge_range(v);
            let had_violation = acc.violation.is_some();
            let loads_row = if account {
                // SAFETY: `row_ptr(lanes.start)` is this sender's
                // exclusive load row; only materialized when the run
                // accounts.
                unsafe { self.loads.row_ptr(lanes.start) }
            } else {
                std::ptr::NonNull::dangling().as_ptr()
            };
            // SAFETY: `next.base_ptr()` is the per-receiver inbox
            // array; single-threaded use per the inbox sink-mode
            // contracts (remote receivers' buffers are staging space
            // drained below, written by no one else).
            let mut outbox: Outbox<P::Msg> = unsafe {
                Outbox::direct(
                    lanes.len() as u32,
                    DirectSink {
                        inboxes: self.next.base_ptr(),
                        slots: self.next.slots_ptr(),
                        receivers: self.graph.neighbors(v).as_ptr(),
                        rev_ports: self.graph.rev_ports_row(v).as_ptr(),
                        acc: &mut acc,
                        loads: loads_row,
                        ctx: &ctx,
                        sender: v,
                    },
                    mode,
                )
            };
            // SAFETY: buffered packets' shared pointers target
            // broadcast slots of `cur`, untouched while `cur` is in
            // the read role.
            let view = unsafe { Inbox::from_packets(inbox) };
            let status = slot.prog.step(round, view, &mut outbox);
            drop(outbox);
            inbox.clear();
            slot.status = status;
            if status == Status::Halted {
                acc.halted += 1;
            }
            // SAFETY: sender-unique row access, as above.
            unsafe { finalize_violation(&mut acc, had_violation, v, loads_row) };
        }

        // Ship everything the fused path parked for foreign receivers.
        // Shared packets point into this round's write-generation
        // broadcast slots — still live until the arenas swap — so
        // cloning here is sound.
        let n = self.graph.n() as NodeIndex;
        for w in 0..n {
            if w >= self.lo && w < self.hi {
                continue;
            }
            // SAFETY: staging buffers of foreign receivers, written
            // only by this partition's sends this round.
            let staged = unsafe { self.next.inbox(w) };
            for pkt in staged.drain(..) {
                let (port, msg) = match pkt {
                    Packet::Own { port, msg } => (port, msg),
                    // SAFETY: see above — the slot outlives this drain.
                    Packet::Shared { port, msg } => (port, unsafe { (*msg).clone() }),
                };
                out.push(OutFrame { receiver: w, port, msg });
            }
        }
        RoundDigest::from_acc(&acc)
    }

    /// Buffers one delivery arriving from another partition for the
    /// next round. Fails typed on addressing errors (a malformed or
    /// hostile frame can never panic the worker).
    pub fn inject(
        &mut self,
        receiver: NodeIndex,
        port: u32,
        msg: P::Msg,
    ) -> Result<(), FrameError> {
        if receiver < self.lo || receiver >= self.hi {
            return Err(FrameError::BadBody("delivery addressed outside the partition"));
        }
        if (port as usize) >= self.graph.neighbors(receiver).len() {
            return Err(FrameError::BadBody("delivery port exceeds receiver degree"));
        }
        // SAFETY: single-threaded injection into this receiver's
        // next-round buffer.
        unsafe { self.next.inbox(receiver) }.push(Packet::Own { port, msg });
        Ok(())
    }

    /// Seals the round after all remote deliveries are injected:
    /// restores the canonical per-receiver delivery order and swaps
    /// the double buffers. Receiver ports are sorted by neighbor
    /// index, so the stable sort by port *is* ascending-sender order;
    /// packets sharing a port share a sender and keep emission order.
    pub fn commit_round(&mut self) {
        for v in self.lo..self.hi {
            // SAFETY: single-threaded commit, receiver-unique access.
            let inbox = unsafe { self.next.inbox(v) };
            if inbox.len() > 1 {
                inbox.sort_by_key(|p| match p {
                    Packet::Own { port, .. } => *port,
                    Packet::Shared { port, .. } => *port,
                });
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Per-node verdicts of the owned range, in node order.
    pub fn verdicts(&self) -> Vec<P::Verdict> {
        self.slots.iter().map(|s| s.prog.verdict()).collect()
    }

    /// Drains the programs in node order (verdicts must be collected
    /// first) — the worker's reclaim hook.
    pub fn into_programs(self) -> Vec<P> {
        self.slots.into_iter().map(|s| s.prog).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges_tile_the_nodes() {
        for n in [0usize, 1, 2, 5, 7, 16, 33] {
            for workers in [1u32, 2, 3, 4, 9] {
                let mut covered = 0usize;
                let mut prev_end = 0;
                for w in 0..workers {
                    let r = partition_range(n, workers, w);
                    assert_eq!(r.start, prev_end, "contiguous for n={n} w={workers}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end as usize, n);
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn worker_count_above_node_count_leaves_empty_tails() {
        let ranges: Vec<_> = (0..5).map(|w| partition_range(2, 5, w)).collect();
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert!(ranges.iter().filter(|r| r.is_empty()).count() >= 3);
    }

    #[test]
    fn digest_roundtrip_and_merge() {
        let a = RoundDigest {
            messages: 3,
            bits: 40,
            max_message_bits: 14,
            max_link_bits: 28,
            max_link_messages: 2,
            halted: 1,
            violation: Some((2, 0, 99)),
            drops_by_kind: [1, 0, 2, 0, 0],
            corrupted_delivered: 1,
            corrupted_rejected: 4,
        };
        let back = RoundDigest::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        let b = RoundDigest { messages: 2, violation: Some((7, 1, 5)), ..RoundDigest::default() };
        let m = RoundDigest::merge(a, b);
        assert_eq!(m.messages, 5);
        assert_eq!(m.violation, Some((2, 0, 99)));
        // Truncated digest bodies decode to typed errors.
        let bytes = a.to_bytes();
        for cut in 0..bytes.len() {
            assert!(RoundDigest::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }
}

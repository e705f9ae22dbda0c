//! Shared internals of the round engine: the double-buffered
//! per-receiver inboxes, the flat wire-load table, and the per-round
//! accumulator the fused accounting feeds. Split out of `engine` so the
//! node-side [`crate::node::Outbox`] can write straight into inboxes
//! without a module cycle.

use std::cell::UnsafeCell;

use crate::graph::{DirectedEdgeId, NodeIndex};
use crate::node::Packet;

/// Per-directed-edge wire load for one round, kept in a flat
/// [`LoadTable`] indexed by [`DirectedEdgeId`] (not inside the inboxes:
/// the loads are round-scoped accounting state, the inboxes are
/// round-crossing transport).
///
/// Loads are *round-stamped* instead of reset: a load whose `stamp`
/// differs from the current round's stamp is semantically zero, and
/// the first write of a round re-stamps it. No pass over the table —
/// at drain time, at swap time, or anywhere else — ever has to zero
/// anything.
///
/// Stamps live in a 64-bit *offset* space, `table.base + round`: each
/// run gets a fresh epoch (the base advances past every stamp the
/// previous run could have written), so round numbers restarting at 0
/// between batch jobs can never collide with a stale entry and even
/// the between-jobs re-stale scan of the table is gone — workspace
/// reset is O(1) for the loads.
///
/// `bits`/`count` include faulted sends: the sender spent the
/// bandwidth even though the message is never delivered.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkLoad {
    pub(crate) bits: u64,
    pub(crate) count: u64,
    /// Offset-space stamp (`base + round`) these counters belong to;
    /// `u64::MAX` = never written (unreachable as a real stamp for any
    /// feasible number of runs — bases advance in `2^32` strides).
    pub(crate) stamp: u64,
}

impl Default for LinkLoad {
    fn default() -> Self {
        LinkLoad { bits: 0, count: 0, stamp: u64::MAX }
    }
}

/// The flat per-directed-edge load table the fused accounting writes.
///
/// Directed edge `(v → w)` is loaded only by its unique sender `v`, so
/// rows partition across nodes and one node's step never touches
/// another's entries.
pub(crate) struct LoadTable {
    cells: Vec<UnsafeCell<LinkLoad>>,
    /// Stamp-space base of the current run; every stamp this run
    /// writes is `base + round`. Advanced by a full `2^32` (one more
    /// than any `u32` round number) at each reset, so a stale entry's
    /// stamp can never equal a fresh run's.
    base: u64,
}

impl LoadTable {
    /// An all-stale table of `len` loads (`len` = 0 for runs that never
    /// account — `row_ptr` must not be called on an empty table).
    pub(crate) fn new(len: usize) -> Self {
        LoadTable {
            cells: (0..len).map(|_| UnsafeCell::new(LinkLoad::default())).collect(),
            base: 0,
        }
    }

    /// Prepares the table for a run over `len` loads: advances the
    /// stamp epoch — after which every retained entry is semantically
    /// zero without touching it — and grows the backing array only when
    /// the new graph does not fit. O(1) when the graph fits; the
    /// between-jobs re-stale scan this replaces was the last per-job
    /// O(m) cost of workspace reuse.
    pub(crate) fn reset(&mut self, len: usize) {
        self.base = self.base.wrapping_add(1 << 32);
        if self.cells.len() < len {
            self.cells.resize_with(len, || UnsafeCell::new(LinkLoad::default()));
        }
    }

    /// The offset-space stamp of `round` in the current run's epoch.
    pub(crate) fn stamp_for(&self, round: u32) -> u64 {
        self.base.wrapping_add(u64::from(round))
    }

    /// Raw pointer to the load row starting at directed edge `de`.
    ///
    /// # Safety
    /// The caller must be the unique accessor of the row's entries while
    /// the pointer lives (sender-owned rows satisfy this), and `de` must
    /// be at most the table length (`de == len` is the empty row of a
    /// degree-0 sender — one past the end, fine to form, never read).
    pub(crate) unsafe fn row_ptr(&self, de: DirectedEdgeId) -> *mut LinkLoad {
        debug_assert!(de as usize <= self.cells.len());
        // UnsafeCell<T> is repr(transparent) over T.
        self.cells.as_ptr().add(de as usize) as *mut LinkLoad
    }
}

/// Double-buffered per-receiver inboxes: senders push pre-labeled
/// [`Packet`]s straight into the receiver's next-round buffer,
/// receivers read and clear their current one. No `Sync` impl — this
/// arena must never be shared across threads (receiver buffers are
/// multi-writer); the engine and each partition step their nodes on one
/// thread.
pub(crate) struct InboxArena<M> {
    boxes: Vec<UnsafeCell<Vec<Packet<M>>>>,
    /// Per-sender broadcast slots: slot `v` holds the payload of `v`'s
    /// broadcast of this generation *once*; the inboxes carry shared
    /// refs into it. Written only by `v` while this generation is the
    /// write side, read only by `v`'s neighbors during the following
    /// round (when no slot of this generation is written at all),
    /// overwritten by `v`'s next same-parity broadcast — which is when
    /// the stale payload is evicted back to `v` for recycling. Never
    /// scanned or cleared.
    slots: Vec<UnsafeCell<Option<M>>>,
    /// Extent the current (or last) run uses; `reset` only cleans this
    /// prefix.
    used: usize,
}

impl<M> InboxArena<M> {
    pub(crate) fn new(nodes: usize) -> Self {
        InboxArena {
            boxes: (0..nodes).map(|_| UnsafeCell::new(Vec::new())).collect(),
            slots: (0..nodes).map(|_| UnsafeCell::new(None)).collect(),
            used: nodes,
        }
    }

    /// Prepares the arena for a run over `nodes` receivers, reusing the
    /// previous run's allocations: buffers in the previously used
    /// extent are cleared (capacity kept — the whole point of batch
    /// reuse), stale broadcast payloads are dropped, and the backing
    /// arrays grow only when the new graph does not fit. `&mut self`
    /// proves exclusivity, so no unsafe cell access is needed.
    pub(crate) fn reset(&mut self, nodes: usize) {
        for b in self.boxes.iter_mut().take(self.used) {
            b.get_mut().clear();
        }
        for slot in self.slots.iter_mut().take(self.used) {
            *slot.get_mut() = None;
        }
        if self.boxes.len() < nodes {
            self.boxes.resize_with(nodes, || UnsafeCell::new(Vec::new()));
        }
        if self.slots.len() < nodes {
            self.slots.resize_with(nodes, || UnsafeCell::new(None));
        }
        self.used = nodes;
    }

    /// Exclusive access to one receiver's buffer.
    ///
    /// # Safety
    /// No other reference to `v`'s buffer may be live. The sequential
    /// round loop alternates strictly between "owner reads/clears its
    /// current buffer" and "senders push into next buffers", never
    /// holding two references at once.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn inbox(&self, v: NodeIndex) -> &mut Vec<Packet<M>> {
        &mut *self.boxes[v as usize].get()
    }

    /// Type-erased base pointer of the buffer array, for the outbox's
    /// inbox sink.
    pub(crate) fn base_ptr(&self) -> *mut () {
        self.boxes.as_ptr() as *mut ()
    }

    /// Type-erased base pointer of the broadcast-slot array
    /// (`*mut Option<M>`), for the sender-side outbox. Access contract
    /// as documented on the field: slot `v` is touched only by sender
    /// `v`, and only while this generation is the write side.
    pub(crate) fn slots_ptr(&self) -> *mut () {
        // UnsafeCell<T> is repr(transparent) over T.
        self.slots.as_ptr() as *mut ()
    }

    /// Takes the payload parked in sender `v`'s broadcast slot, if any.
    /// `&mut self` proves the round loop is over, so no inbox can still
    /// be read. Used by the end-of-run drain that hands parked payloads
    /// back to programs for recycling (instead of letting the next
    /// run's reset drop them).
    pub(crate) fn take_slot(&mut self, v: NodeIndex) -> Option<M> {
        self.slots.get_mut(v as usize).and_then(|s| s.get_mut().take())
    }
}

/// Round statistics accumulated in the fused write path over one
/// round's nodes (all of them in process, or one partition's range).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundAcc {
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
    /// Messages lost to each fault kind, indexed by
    /// [`crate::fault::DropKind::index`].
    pub drops_by_kind: [u64; crate::fault::DropKind::COUNT],
    /// Frames tampered in flight that still decoded (delivered garbage).
    pub corrupted_delivered: u64,
    /// Frames tampered in flight that no longer decoded (lost).
    pub corrupted_rejected: u64,
}

impl RoundAcc {
    /// Folds this accumulator's fault counters into a run-level report.
    pub(crate) fn add_faults_to(&self, fr: &mut crate::metrics::FaultReport) {
        use crate::fault::DropKind;
        fr.dropped_explicit += self.drops_by_kind[DropKind::Explicit.index()];
        fr.dropped_random += self.drops_by_kind[DropKind::Random.index()];
        fr.dropped_crash += self.drops_by_kind[DropKind::Crash.index()];
        fr.dropped_cut += self.drops_by_kind[DropKind::Cut.index()];
        fr.dropped_burst += self.drops_by_kind[DropKind::Burst.index()];
        fr.corrupted_delivered += self.corrupted_delivered;
        fr.corrupted_rejected += self.corrupted_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inboxes_start_empty() {
        let mut arena: InboxArena<u64> = InboxArena::new(2);
        for v in 0..2 {
            // SAFETY: single-threaded test, no overlapping access.
            let inbox = unsafe { arena.inbox(v) };
            assert!(inbox.is_empty());
            assert!(arena.take_slot(v).is_none());
        }
    }

    #[test]
    fn loads_start_stale() {
        let table = LoadTable::new(3);
        for de in 0..3 {
            // SAFETY: single-threaded test, no overlapping access.
            let load = unsafe { &*table.row_ptr(de) };
            assert_eq!(load.stamp, u64::MAX, "fresh loads must be stale-stamped");
            assert_eq!((load.bits, load.count), (0, 0));
            // The sentinel can never equal a real stamp of this epoch.
            for round in [0u32, 1, u32::MAX] {
                assert_ne!(load.stamp, table.stamp_for(round));
            }
        }
    }

    /// Round-offset stamping: a reset must be O(1) — no pass over the
    /// cells — yet leave every retained entry semantically zero, even
    /// when the next run reuses the exact round numbers of the last.
    #[test]
    fn reset_advances_epoch_without_touching_cells() {
        let mut table = LoadTable::new(2);
        table.reset(2);
        let job1_r5 = table.stamp_for(5);
        // Job 1 writes round-5 traffic on both links.
        for de in 0..2 {
            // SAFETY: single-threaded test, no overlapping access.
            let load = unsafe { &mut *table.row_ptr(de) };
            *load = LinkLoad { bits: 77, count: 3, stamp: job1_r5 };
        }
        table.reset(2);
        // Same round number, next job: the stamp spaces are disjoint,
        // so the stale counters are semantically zero...
        assert_ne!(table.stamp_for(5), job1_r5);
        for de in 0..2 {
            // SAFETY: as above.
            let load = unsafe { &*table.row_ptr(de) };
            // ...while the cells themselves were provably not scanned:
            // the stale bytes are still there, just unreadable through
            // any stamp the new epoch can produce.
            assert_eq!((load.bits, load.count, load.stamp), (77, 3, job1_r5));
            for round in [0u32, 5, u32::MAX] {
                assert_ne!(load.stamp, table.stamp_for(round));
            }
        }
        // Growth still works and new cells are stale.
        table.reset(4);
        // SAFETY: as above.
        let grown = unsafe { &*table.row_ptr(3) };
        assert_eq!(grown.stamp, u64::MAX);
    }
}

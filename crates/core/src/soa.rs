//! SoA node-state arena for the full tester.
//!
//! PR-2 profiling showed light-degree tester rounds bound by per-node
//! state scatter: the boxed layout gives every [`crate::tester::CkTester`]
//! ~8 small heap buffers, one cache miss each per step. This module packs
//! the same state into a few large buffers owned by one [`SoaArena`]
//! inside [`crate::tester::TesterScratch`]; each node's program becomes a
//! ~40-byte `SoaView` of index-based raw-pointer slices instead of an
//! owner of heap boxes.
//!
//! Layout, by access pattern:
//!
//! * **lane-major (flat, CSR-offset)** — buffers whose per-node size is
//!   exactly the degree, read/written port-wise every round: the Phase-1
//!   `port_rank` stream (one `u64` per directed edge, `0` = unknown since
//!   ranks are ≥ 1) and the absorb pass's `EdgeTag`/payload-location
//!   lanes (at most one Phase-2 message per port per round under
//!   CONGEST). Neighbors in the CSR order are adjacent in memory, so the
//!   engine's ascending node loop streams these lanes.
//! * **node-major (header array)** — buffers whose per-node size is
//!   dynamic (Lemma 3 bounds send sets by `(k-t+1)^{t-1}`, astronomically
//!   large near `MAX_K`, so static slabs are ruled out): the
//!   `recv`/`send_buf` sequence sets keep their demand-grown
//!   `Vec` backings, but the *headers* live contiguously in one arena
//!   array, as do the per-node payload pools (whose `outstanding`
//!   accounting is per-node state in the verdict).
//! * **shared** — the prune and collision-scan workspaces are per-step
//!   temporaries cleared at the start of every use, and the engine steps
//!   one node at a time, so every node shares a single instance of each
//!   instead of owning one. These are the two largest scratch objects,
//!   so sharing them is most of the footprint win.
//!
//! A warm `SoaArena::prepare` performs zero heap operations for a
//! same-shape rerun — the contract `tests/alloc_gate.rs` pins down.

use crate::msg::{EdgeTag, SeqBundle, SeqPool};
use crate::prune::SendSetScratch;
use crate::scan::ScanScratch;
use crate::seq::IdSeq;
use ck_congest::graph::Graph;

/// A Phase-2 payload location captured during one absorb pass. Dead
/// outside that pass — the tag lanes are length-reset before every use,
/// so a stale pointer is never dereferenced.
#[derive(Clone, Copy)]
pub(crate) struct BundleLoc(pub(crate) *const SeqBundle);

impl BundleLoc {
    /// Lane fill value; never dereferenced (reads are bounded by the
    /// absorb pass's live length).
    pub(crate) const NULL: BundleLoc = BundleLoc(std::ptr::null());
}

// SAFETY: the pointer is only formed and dereferenced inside a single
// absorb pass on one thread; whenever a program crosses threads
// (between rounds) no live pointer exists.
unsafe impl Send for BundleLoc {}

/// Lane fill value for the tag lane; never read (bounded by the absorb
/// pass's live length).
pub(crate) const TAG_FILL: EdgeTag = EdgeTag { rank: 0, lo: 0, hi: 0 };

/// The arena owning every SoA-layout tester's node state. Lives in
/// [`crate::tester::TesterScratch`] and is recycled across runs; see the
/// module docs for the layout.
#[derive(Default)]
pub struct SoaArena {
    /// CSR port offsets: node `v`'s lane slice is `port_off[v]..port_off[v+1]`.
    port_off: Vec<u32>,
    /// Phase-1 rank per port (lane-major; `0` = unknown, ranks are ≥ 1).
    port_rank: Vec<u64>,
    /// Absorb-pass tag lane (lane-major, capacity = degree exactly).
    tag_tags: Vec<EdgeTag>,
    /// Absorb-pass payload-location lane (lane-major).
    tag_locs: Vec<BundleLoc>,
    /// Deduplicated received sequences (node-major headers).
    recv: Vec<Vec<IdSeq>>,
    /// Send sets, rebuilt every forward round and read in place by the
    /// decision round (node-major headers).
    send_buf: Vec<Vec<IdSeq>>,
    /// Per-node payload pools (outstanding accounting is per-node).
    pools: Vec<SeqPool>,
    /// The pruner workspace every node shares.
    prune: SendSetScratch,
    /// The collision-scan workspace every node shares.
    scan: ScanScratch,
    /// The base-pointer table, refreshed by [`SoaArena::bases`]; views
    /// hold one pointer to this field instead of an 80-byte copy each,
    /// keeping the engine's per-node slots small.
    bases: SoaBases,
}

impl SoaArena {
    /// Sizes and clears the arena for a run on `g`: CSR offsets rebuilt,
    /// lanes zeroed, node-major headers cleared (backings kept), and
    /// pools' accounting reset. The shared scratch needs no preparation
    /// (every use clears it). Warm same-shape calls allocate nothing.
    pub(crate) fn prepare(&mut self, g: &Graph) {
        let n = g.n();
        let lanes = g.num_directed_edges();
        self.port_off.clear();
        self.port_off.reserve(n + 1);
        let mut off = 0u32;
        self.port_off.push(0);
        for v in 0..n {
            off += g.degree(v as ck_congest::graph::NodeIndex) as u32;
            self.port_off.push(off);
        }
        self.port_rank.clear();
        self.port_rank.resize(lanes, 0);
        self.tag_tags.clear();
        self.tag_tags.resize(lanes, TAG_FILL);
        self.tag_locs.clear();
        self.tag_locs.resize(lanes, BundleLoc::NULL);
        self.recv.resize_with(n, Vec::new);
        self.send_buf.resize_with(n, Vec::new);
        self.pools.resize_with(n, SeqPool::default);
        for v in 0..n {
            self.recv[v].clear();
            self.send_buf[v].clear();
            self.pools[v].reset_accounting();
        }
    }

    /// Refreshes and returns the arena's base-pointer table, for
    /// handing index-based views to the node programs. Must be called
    /// after [`SoaArena::prepare`] for the same run; until every view
    /// is dropped the arena must not be accessed through any other path
    /// **and must not move** (the returned pointer targets the `bases`
    /// field in place).
    pub(crate) fn bases(&mut self) -> *const SoaBases {
        self.bases = SoaBases {
            port_off: self.port_off.as_ptr(),
            port_rank: self.port_rank.as_mut_ptr(),
            tag_tags: self.tag_tags.as_mut_ptr(),
            tag_locs: self.tag_locs.as_mut_ptr(),
            recv: self.recv.as_mut_ptr(),
            send_buf: self.send_buf.as_mut_ptr(),
            pools: self.pools.as_mut_ptr(),
            prune: &mut self.prune,
            scan: &mut self.scan,
        };
        &self.bases
    }
}

/// Raw base pointers into one prepared [`SoaArena`]. Stored once in
/// the arena's `bases` field; each [`SoaView`] carries one pointer to
/// it (always-hot shared cache line) instead of its own copy, so the
/// program factory closure can stamp out views without borrowing the
/// arena and the engine's per-node slots stay small.
#[derive(Clone, Copy)]
pub(crate) struct SoaBases {
    port_off: *const u32,
    port_rank: *mut u64,
    tag_tags: *mut EdgeTag,
    tag_locs: *mut BundleLoc,
    recv: *mut Vec<IdSeq>,
    send_buf: *mut Vec<IdSeq>,
    pools: *mut SeqPool,
    prune: *mut SendSetScratch,
    scan: *mut ScanScratch,
}

// SAFETY: the pointers target a prepared arena that outlives the run;
// every view derived from them touches only its own node's disjoint
// regions (see `SoaView`'s invariants).
unsafe impl Send for SoaBases {}

impl Default for SoaBases {
    /// Null table for a fresh arena; replaced by [`SoaArena::bases`]
    /// before any view exists.
    fn default() -> Self {
        SoaBases {
            port_off: std::ptr::null(),
            port_rank: std::ptr::null_mut(),
            tag_tags: std::ptr::null_mut(),
            tag_locs: std::ptr::null_mut(),
            recv: std::ptr::null_mut(),
            send_buf: std::ptr::null_mut(),
            pools: std::ptr::null_mut(),
            prune: std::ptr::null_mut(),
            scan: std::ptr::null_mut(),
        }
    }
}

/// One node's index-based window into the arena: the SoA replacement
/// for the boxed `NodeScratch`. 24 bytes — one pointer to the arena's
/// base table plus this node's coordinates — so the engine's slot
/// array stays dense.
///
/// # Invariants (uphold all uses of the raw bases)
///
/// * `bases` targets the `bases` field of a prepared [`SoaArena`] that
///   neither moves nor is otherwise accessed until the last view drops
///   ([`SoaArena::bases`]'s contract).
/// * `node < n` and `off..off + deg` is node `node`'s CSR lane range —
///   both fixed at construction from the prepared arena's own tables.
/// * Per-node regions are disjoint across views: lane slices by CSR
///   construction, node-major headers and pools by index.
/// * The shared prune/scan scratch is aliased by every view, but only
///   ever borrowed by the one node stepping: the engine steps the nodes
///   of a run one at a time on one thread, and within a step at most
///   one `bufs()` borrow is live (`&mut self` methods of one program).
/// * The arena is dormant for the whole run: no `&`/`&mut` to it is
///   formed between `bases()` and the last program drop.
pub(crate) struct SoaView {
    bases: *const SoaBases,
    node: u32,
    off: u32,
    deg: u32,
}

// SAFETY: views only cross threads with the whole run (a batch shard
// moves its session, arena and programs together), never while a
// `bufs()` borrow is live; every view of a run stays on the thread
// stepping that run (invariants above).
unsafe impl Send for SoaView {}

impl SoaView {
    /// The view of node `index`. Reads the prepared arena's CSR table
    /// through `bases` — callable only between [`SoaArena::bases`] and
    /// the run's first step.
    pub(crate) fn new(bases: *const SoaBases, index: usize) -> Self {
        // SAFETY: `bases` was just returned by `SoaArena::bases` on the
        // prepared arena, `prepare` sized `port_off` to n + 1 entries,
        // and the factory only passes `index < n`.
        let (off, end) = unsafe {
            let b = &*bases;
            (*b.port_off.add(index), *b.port_off.add(index + 1))
        };
        SoaView { bases, node: index as u32, off, deg: end - off }
    }

    /// The node's payload-pool `outstanding` counter (verdict field).
    pub(crate) fn pool_outstanding(&self) -> u64 {
        // SAFETY: `pools` has one entry per node and `node < n`; shared
        // read of this node's own pool, no other borrow live (verdict
        // collection is sequential, after stepping).
        unsafe { (*(*self.bases).pools.add(self.node as usize)).outstanding() }
    }

    /// Exclusive borrows of every buffer this node's step touches.
    pub(crate) fn bufs(&mut self) -> crate::tester::BufsRef<'_> {
        // SAFETY: `bases` targets the dormant arena's base table
        // (shared read; only `SoaArena::bases` writes it, before any
        // view exists).
        let b = unsafe { &*self.bases };
        let (off, deg, node) = (self.off as usize, self.deg as usize, self.node as usize);
        // SAFETY: all regions are inside the prepared arena (CSR bounds
        // for the lanes, `node < n` for the headers/pools, the arena's
        // own fields for the scratch); disjointness and non-aliasing per
        // the type's invariants; the borrows' lifetime is tied to `&mut self`, so a
        // second `bufs()` on the same view cannot overlap the first.
        unsafe {
            crate::tester::BufsRef {
                ports: std::slice::from_raw_parts_mut(b.port_rank.add(off), deg),
                tags: std::slice::from_raw_parts_mut(b.tag_tags.add(off), deg),
                locs: std::slice::from_raw_parts_mut(b.tag_locs.add(off), deg),
                recv: &mut *b.recv.add(node),
                send_buf: &mut *b.send_buf.add(node),
                pool: &mut *b.pools.add(node),
                prune: &mut *b.prune,
                scan: &mut *b.scan,
            }
        }
    }
}

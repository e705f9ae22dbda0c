//! The collision-scan kernel subsystem: Phase-2 rejection as
//! branchless batch scans over a lane-major sequence block.
//!
//! Profiles after the arena/broadcast/batch work (PRs 1–3) put the
//! remaining tester cost in `decide_reject`'s pairwise
//! disjointness/union checks — branchy scalar loops over inline
//! [`IdSeq`]s, executed O(rep²) candidate pairs per node per decision.
//! This module replaces those per-pair calls with *batch* scans:
//!
//! * [`SeqBlock`] packs a node's candidate sequence set into a
//!   lane-major structure-of-arrays view — [`crate::seq::MAX_SEQ_LEN`] ID lanes ×
//!   sequences, plus a length row and a validity row — so "does ID `x`
//!   occur in sequence `s`" becomes one equality sweep along a
//!   contiguous lane for **every** `s` at once;
//! * the fixed-width kernels ([`SeqBlock::overlap_counts`],
//!   [`SeqBlock::contains_row`], [`SeqBlock::pairwise_disjoint`],
//!   [`SeqBlock::union_size_with`]) are branchless bitmask reductions
//!   over whole lanes that auto-vectorize on stable Rust;
//! * [`decide_all_rejects_scanned`] rebuilds the final-round decision
//!   on those kernels, with output **identical** to the scalar
//!   reference — same witnesses, in the same order (property-tested in
//!   `tests/scan_differential.rs`).
//!
//! The scalar `IdSeq` methods remain the reference implementation and
//! the `--no-default-features` build dispatches everything through
//! them; [`ScanBackend`] selects the path at runtime so one binary can
//! compare them (the bench harness and the differential suite do
//! exactly that). The pruner always runs the scalar
//! [`crate::prune::build_send_set_into`]: its early-exit transversal
//! scans touch only the ≤ `lemma3_bound` accepted sequences and beat a
//! block-kernel form in every protocol-realistic regime.
//!
//! Block packing has a real fixed cost, so the kernels only pay off
//! past a measured block size ([`KERNEL_MIN_SEQS`]) — and
//! protocol-realistic runs keep most per-node candidate blocks *under*
//! it by design (Lemma 3 pruning bounds each neighbor's contribution,
//! rank arbitration activates one check per neighborhood). The
//! production default is therefore [`ScanBackend::Hybrid`]: per-call
//! size dispatch for the decide path, with the forced kernel backend
//! kept for benching and differential testing.
//!
//! ## Correctness preconditions
//!
//! The kernels count matching `(position, position)` pairs, so they
//! compute set intersections only for **duplicate-free** sequences —
//! which is an invariant of every protocol sequence (they are vertex
//! paths) and is `debug_assert`ed at [`SeqBlock::load`]. The scalar
//! reference tolerates duplicates; the differential suite therefore
//! generates duplicate-free inputs, matching the protocol contract.

use crate::decide::RejectWitness;
use crate::seq::IdSeq;
use ck_congest::graph::NodeId;
use std::ops::ControlFlow;

/// Smallest candidate-set size at which the decide kernels pay for
/// their block packing: below this the scalar loops' early exits beat
/// the branchless sweeps (measured break-even on the committed C5
/// sweeps sits at 4–8 sequences; kernels win 1.1–2.1× above it).
/// [`ScanBackend::Hybrid`] dispatches on this bound.
pub const KERNEL_MIN_SEQS: usize = 8;

/// Which implementation the Phase-2 decide scans run on.
///
/// All backends produce bit-identical results; the choice is purely a
/// performance/coverage knob. The CI feature matrix pins the *default*
/// per build (`--no-default-features` → [`ScanBackend::Scalar`],
/// default features → [`ScanBackend::Hybrid`]) so neither path can
/// bitrot unnoticed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScanBackend {
    /// The scalar [`IdSeq`] reference loops.
    Scalar,
    /// Portable branchless lane kernels (auto-vectorized), forced for
    /// every input size.
    Lanes,
    /// Size-aware production dispatch: the decide path runs the lane
    /// kernels when the candidate block has at least
    /// [`KERNEL_MIN_SEQS`] sequences and the scalar reference below
    /// that.
    Hybrid,
}

impl ScanBackend {
    /// The best backend this build provides — what protocols use unless
    /// explicitly overridden.
    pub fn auto() -> ScanBackend {
        if cfg!(feature = "block-scan") {
            ScanBackend::Hybrid
        } else {
            ScanBackend::Scalar
        }
    }

    /// The concrete backend the decide path runs for a candidate block
    /// of `seqs` sequences: resolves [`ScanBackend::Hybrid`] by size;
    /// forced backends ignore the size.
    pub fn for_block(self, seqs: usize) -> ScanBackend {
        match self {
            ScanBackend::Hybrid if seqs >= KERNEL_MIN_SEQS => ScanBackend::Lanes,
            ScanBackend::Hybrid => ScanBackend::Scalar,
            b => b,
        }
    }
}

impl Default for ScanBackend {
    fn default() -> Self {
        ScanBackend::auto()
    }
}

/// One equality sweep along a lane: `acc[s] += (ids[s] == e) & valid[s]`
/// for every sequence `s`. This is the single primitive every kernel
/// reduces to, written to auto-vectorize.
#[inline]
fn eq_add_row(ids: &[NodeId], valid: &[u64], e: NodeId, acc: &mut [u64]) {
    debug_assert!(ids.len() == acc.len() && valid.len() == acc.len());
    for ((&id, &v), a) in ids.iter().zip(valid).zip(acc.iter_mut()) {
        *a += u64::from(id == e) & v;
    }
}

/// A lane-major structure-of-arrays view of a sequence set.
///
/// Lane `l` of all sequences lives contiguously (`stride` apart per
/// lane), so a membership probe touches `max_len` contiguous rows
/// instead of hopping between inline sequences. Rows are padded to the
/// stride; a parallel validity row (`1` for a real entry, `0` for
/// padding) keeps the sweeps branchless — a padded slot can never
/// contribute a match, whatever its residual ID value.
///
/// The backing storage is grow-only and recycled across [`SeqBlock::load`]s
/// (`SeqBlock::load`): the tester carries one block per node in its
/// scratch, so steady-state rounds repack without allocating.
#[derive(Debug, Default)]
pub struct SeqBlock {
    /// Lane-major IDs: entry `(l, s)` at `ids[l * stride + s]`.
    ids: Vec<NodeId>,
    /// 1 where `(l, s)` holds a real ID, 0 for padding; same layout.
    valid: Vec<u64>,
    /// Per-sequence lengths.
    lens: Vec<u8>,
    /// Number of sequences loaded.
    count: usize,
    /// Row stride (≥ `count`, kept across loads so rows never shrink).
    stride: usize,
    /// Longest loaded sequence: the sweeps stop at this lane.
    max_len: usize,
}

impl SeqBlock {
    /// An empty block (allocates nothing until the first load).
    pub fn new() -> Self {
        SeqBlock::default()
    }

    /// Number of sequences currently loaded.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no sequence is loaded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Length of sequence `s`.
    pub fn seq_len(&self, s: usize) -> usize {
        self.lens[s] as usize
    }

    /// Packs `seqs` into the block, recycling the backing storage.
    ///
    /// Each sequence must be duplicate-free (the protocol invariant —
    /// sequences are vertex paths); `debug_assert`ed here because the
    /// counting kernels rely on it.
    pub fn load(&mut self, seqs: &[IdSeq]) {
        self.count = seqs.len();
        self.max_len = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
        if self.stride < self.count {
            self.stride = self.count.next_multiple_of(8);
        }
        let need = self.stride * self.max_len;
        if self.ids.len() < need {
            self.ids.resize(need, 0);
            self.valid.resize(need, 0);
        }
        self.lens.clear();
        self.lens.extend(seqs.iter().map(|q| q.len() as u8));
        for (s, q) in seqs.iter().enumerate() {
            let sl = q.as_slice();
            debug_assert!(
                (0..sl.len()).all(|i| !sl[i + 1..].contains(&sl[i])),
                "SeqBlock sequences must be duplicate-free: {q:?}"
            );
            for l in 0..self.max_len {
                let idx = l * self.stride + s;
                let real = l < sl.len();
                self.ids[idx] = if real { sl[l] } else { 0 };
                self.valid[idx] = u64::from(real);
            }
        }
    }

    /// `counts[s] = |probe ∩ seq_s|` for every loaded sequence — the
    /// whole-block form of the scalar pairwise intersection scan.
    pub fn overlap_counts(&self, probe: &IdSeq, counts: &mut Vec<u64>) {
        counts.clear();
        counts.resize(self.count, 0);
        for &e in probe.as_slice() {
            self.sweep(e, counts);
        }
    }

    /// `row[s] = 1` iff sequence `s` contains `id` (0 otherwise) — the
    /// whole-block form of [`IdSeq::contains`].
    pub fn contains_row(&self, id: NodeId, row: &mut Vec<u64>) {
        row.clear();
        row.resize(self.count, 0);
        self.sweep(id, row);
    }

    /// `flags[s] = 1` iff `probe` and sequence `s` are disjoint — the
    /// whole-block form of [`IdSeq::disjoint_with`].
    pub fn pairwise_disjoint(&self, probe: &IdSeq, flags: &mut Vec<u64>) {
        self.overlap_counts(probe, flags);
        for f in flags.iter_mut() {
            *f = u64::from(*f == 0);
        }
    }

    /// `out[s] = |probe ∪ seq_s ∪ {extra}|` for every loaded sequence —
    /// the whole-block form of [`IdSeq::union_size_with`] (Instruction
    /// 37's quantity), computed as `|probe| + |seq_s| − |probe ∩ seq_s|
    /// + [extra ∉ probe ∪ seq_s]`. `marks` is scratch.
    pub fn union_size_with(
        &self,
        probe: &IdSeq,
        extra: NodeId,
        marks: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) {
        self.overlap_counts(probe, out);
        self.contains_row(extra, marks);
        let extra_in_probe = u64::from(probe.contains(extra));
        for s in 0..self.count {
            out[s] = probe.len() as u64 + u64::from(self.lens[s]) - out[s]
                + ((1 - extra_in_probe) & (1 - marks[s]));
        }
    }

    /// One ID's equality sweep over every populated lane.
    #[inline]
    fn sweep(&self, e: NodeId, acc: &mut [u64]) {
        for l in 0..self.max_len {
            let base = l * self.stride;
            eq_add_row(
                &self.ids[base..base + self.count],
                &self.valid[base..base + self.count],
                e,
                acc,
            );
        }
    }
}

/// The recyclable buffers of the scanned decide path: the packed block
/// plus the count/mark rows the kernels write. One per node
/// program, threaded through the tester's scratch pool so batch runs
/// reuse it across jobs.
#[derive(Debug, Default)]
pub struct ScanScratch {
    pub(crate) block: SeqBlock,
    pub(crate) counts: Vec<u64>,
    pub(crate) marks: Vec<u64>,
}

impl ScanScratch {
    /// An empty scratch (allocates nothing until first use).
    pub fn new() -> Self {
        ScanScratch::default()
    }
}

/// The batch-scan form of [`crate::decide::decide_all_rejects`]:
/// identical witnesses in identical order, but every candidate pair is
/// resolved from one overlap row per probe sequence plus a single
/// `myid` containment row over the whole block, instead of per-pair
/// scalar union scans. Always enumerates every witness (for
/// [`crate::single::DetectSingle`] and the ablation probes).
///
/// `received` sequences must be duplicate-free (protocol invariant;
/// see the module docs). With `backend` resolving to
/// [`ScanBackend::Scalar`] — which [`ScanBackend::Hybrid`] does for
/// blocks under [`KERNEL_MIN_SEQS`] sequences, where the scalar
/// early exits beat the packing cost — each pair runs the scalar
/// [`IdSeq::union_size_with`] and no block is packed.
pub fn decide_all_rejects_scanned(
    backend: ScanBackend,
    k: usize,
    myid: NodeId,
    own_sent: &[IdSeq],
    received: &[IdSeq],
    scratch: &mut ScanScratch,
    out: &mut Vec<RejectWitness>,
) {
    out.clear();
    visit_rejects_scanned(backend, k, myid, own_sent, received, scratch, &mut |w| {
        out.push(w);
        ControlFlow::Continue(())
    });
}

/// First-witness form of [`decide_all_rejects_scanned`] — the batch-scan
/// counterpart of [`crate::decide::decide_reject`]. Stops at the first
/// witness on every backend and allocates nothing in steady state (the
/// kernel rows live in the scratch; the scalar arm needs none).
pub fn decide_reject_scanned(
    backend: ScanBackend,
    k: usize,
    myid: NodeId,
    own_sent: &[IdSeq],
    received: &[IdSeq],
    scratch: &mut ScanScratch,
) -> Option<RejectWitness> {
    let mut first = None;
    visit_rejects_scanned(backend, k, myid, own_sent, received, scratch, &mut |w| {
        first = Some(w);
        ControlFlow::Break(())
    });
    first
}

/// The enumeration behind both scanned decide forms: hands every
/// witnessing pair to `visit`, in the scalar reference's order, until
/// `visit` breaks. Where `backend` resolves to [`ScanBackend::Scalar`]
/// each pair's union is [`IdSeq::union_size_with`]; otherwise it comes
/// from the block's overlap row for the probe and its `myid` row.
fn visit_rejects_scanned(
    backend: ScanBackend,
    k: usize,
    myid: NodeId,
    own_sent: &[IdSeq],
    received: &[IdSeq],
    scratch: &mut ScanScratch,
    visit: &mut impl FnMut(RejectWitness) -> ControlFlow<()>,
) {
    assert!(k >= 3);
    let half = k / 2;
    let kernel = backend.for_block(received.len()) != ScanBackend::Scalar;
    let ScanScratch { block, counts, marks } = scratch;
    if kernel {
        block.load(received);
        block.contains_row(myid, marks);
    }
    // Odd k pairs two received sequences (length ⌊k/2⌋ each); even k
    // pairs one of the node's own final sends (ending in `myid`) with a
    // received one.
    let odd = k % 2 == 1;
    let probes = if odd { received } else { own_sent };
    for (i, l1) in probes.iter().enumerate() {
        if l1.len() != half {
            continue;
        }
        debug_assert!(odd || l1.last() == Some(myid), "own sequences end with myid");
        let mut l1_free = 0;
        if kernel {
            block.overlap_counts(l1, counts);
            l1_free = 1 - if odd { marks[i] } else { u64::from(l1.contains(myid)) };
        }
        for (j, l2) in received.iter().enumerate().skip(if odd { i + 1 } else { 0 }) {
            if l2.len() != half {
                continue;
            }
            let union = if kernel {
                (2 * half) as u64 - counts[j] + (l1_free & (1 - marks[j]))
            } else {
                l1.union_size_with(l2, myid) as u64
            };
            if union == k as u64 && visit(RejectWitness { l1: *l1, l2: *l2, myid, k }).is_break() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::{decide_all_rejects, decide_reject};

    fn seq(ids: &[u64]) -> IdSeq {
        IdSeq::from_slice(ids)
    }

    #[test]
    fn backend_resolution() {
        if cfg!(feature = "block-scan") {
            assert_eq!(ScanBackend::auto(), ScanBackend::Hybrid);
        } else {
            assert_eq!(ScanBackend::auto(), ScanBackend::Scalar);
        }
        assert_eq!(ScanBackend::default(), ScanBackend::auto());
        // Size dispatch: hybrid goes scalar under the break-even bound,
        // kernel at and above it; forced backends ignore the size.
        assert_eq!(ScanBackend::Hybrid.for_block(KERNEL_MIN_SEQS - 1), ScanBackend::Scalar);
        assert_eq!(ScanBackend::Hybrid.for_block(KERNEL_MIN_SEQS), ScanBackend::Lanes);
        assert_eq!(ScanBackend::Lanes.for_block(0), ScanBackend::Lanes);
        assert_eq!(ScanBackend::Scalar.for_block(1 << 20), ScanBackend::Scalar);
    }

    /// True when any loaded sequence contains `id`.
    fn contains_any(block: &SeqBlock, id: u64) -> bool {
        let mut row = Vec::new();
        block.contains_row(id, &mut row);
        row.iter().any(|&r| r != 0)
    }

    #[test]
    fn rows_match_scalar_reference() {
        let seqs = vec![seq(&[1, 2, 3]), seq(&[4, 5]), seq(&[]), seq(&[3, 6, 9, 12]), seq(&[7])];
        let probes = [seq(&[2, 4, 9]), seq(&[]), seq(&[8]), seq(&[1, 2, 3])];
        let mut block = SeqBlock::new();
        block.load(&seqs);
        assert_eq!(block.len(), 5);
        assert_eq!(block.seq_len(3), 4);
        let (mut counts, mut marks, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for probe in &probes {
            block.overlap_counts(probe, &mut counts);
            for (s, q) in seqs.iter().enumerate() {
                let expect = probe.iter().filter(|&e| q.contains(e)).count() as u64;
                assert_eq!(counts[s], expect, "overlap s={s} probe={probe:?}");
            }
            block.pairwise_disjoint(probe, &mut counts);
            for (s, q) in seqs.iter().enumerate() {
                assert_eq!(counts[s] == 1, probe.disjoint_with(q), "disjoint");
            }
            for extra in [0u64, 3, 7, 42] {
                block.union_size_with(probe, extra, &mut marks, &mut out);
                for (s, q) in seqs.iter().enumerate() {
                    assert_eq!(
                        out[s],
                        probe.union_size_with(q, extra) as u64,
                        "union s={s} probe={probe:?} extra={extra}"
                    );
                }
            }
        }
        for id in [0u64, 1, 5, 9, 100] {
            let mut row = Vec::new();
            block.contains_row(id, &mut row);
            for (s, q) in seqs.iter().enumerate() {
                assert_eq!(row[s] == 1, q.contains(id), "contains");
            }
        }
    }

    #[test]
    fn block_reload_reuses_storage() {
        let mut block = SeqBlock::new();
        block.load(&[seq(&[1, 2]), seq(&[3, 4]), seq(&[5, 6])]);
        assert!(contains_any(&block, 5));
        // Shrinking reload: stale entries of the bigger load must not
        // leak into the sweeps.
        block.load(&[seq(&[9])]);
        assert_eq!(block.len(), 1);
        assert!(!contains_any(&block, 5));
        assert!(contains_any(&block, 9));
        // Growing reload past the first stride.
        let many: Vec<IdSeq> = (0..37u64).map(|i| seq(&[i, i + 100])).collect();
        block.load(&many);
        let mut counts = Vec::new();
        block.overlap_counts(&seq(&[5, 136]), &mut counts);
        for (s, q) in many.iter().enumerate() {
            let expect = u64::from(q.contains(5)) + u64::from(q.contains(136));
            assert_eq!(counts[s], expect);
        }
    }

    #[test]
    fn scanned_decide_matches_scalar_on_fixed_cases() {
        // The decide.rs unit-test cases, replayed through the kernels.
        let cases: Vec<(usize, u64, Vec<IdSeq>, Vec<IdSeq>)> = vec![
            (5, 50, vec![], vec![seq(&[10, 11]), seq(&[20, 21])]),
            (5, 50, vec![], vec![seq(&[10, 11]), seq(&[20, 11])]),
            (5, 50, vec![], vec![seq(&[10, 50]), seq(&[20, 21])]),
            (4, 50, vec![seq(&[10, 50])], vec![seq(&[20, 21])]),
            (4, 50, vec![], vec![seq(&[10, 11]), seq(&[20, 21])]),
            (4, 50, vec![seq(&[10, 50])], vec![seq(&[10, 21])]),
            (3, 9, vec![], vec![seq(&[1]), seq(&[2])]),
            (5, 9, vec![], vec![seq(&[1]), seq(&[2]), seq(&[3, 4])]),
            (7, 50, vec![], vec![seq(&[10, 11, 12]), seq(&[20, 21, 22])]),
        ];
        let mut scratch = ScanScratch::new();
        let mut got = Vec::new();
        for (k, myid, own, recv) in &cases {
            let expect = decide_all_rejects(*k, *myid, own, recv);
            let lanes = ScanBackend::Lanes;
            decide_all_rejects_scanned(lanes, *k, *myid, own, recv, &mut scratch, &mut got);
            assert_eq!(got, expect, "k={k} myid={myid}");
            assert_eq!(
                decide_reject_scanned(lanes, *k, *myid, own, recv, &mut scratch),
                decide_reject(*k, *myid, own, recv),
            );
        }
    }

    /// The scalar backend's enumeration reproduces the reference's.
    #[test]
    fn scalar_backend_delegates_to_reference() {
        let recv = vec![seq(&[10, 11]), seq(&[20, 21])];
        let mut scratch = ScanScratch::new();
        let mut got = Vec::new();
        decide_all_rejects_scanned(ScanBackend::Scalar, 5, 50, &[], &recv, &mut scratch, &mut got);
        assert_eq!(got, decide_all_rejects(5, 50, &[], &recv));
    }

    /// Received sets with many witnessing pairs, one below and one above
    /// [`KERNEL_MIN_SEQS`] for each of odd and even k: the first-witness
    /// form stops early on every backend and must still return the
    /// reference's first witness. Non-witnesses (wrong length, `myid`
    /// inside, overlaps) are interleaved so the first witness is not
    /// simply the first pair.
    #[test]
    fn first_witness_matches_reference_on_multi_witness_sets() {
        let myid = 50;
        // Length-2 paths, as received at round ⌊k/2⌋ for k ∈ {4, 5}.
        let recv = |n: u64| -> Vec<IdSeq> {
            let mut v = vec![seq(&[1]), seq(&[myid, 2]), seq(&[3, 4, 5])];
            v.extend((0..n).map(|i| seq(&[100 + 10 * i, 101 + 10 * i])));
            v.push(seq(&[100, 999]));
            v
        };
        let own = vec![seq(&[7, myid]), seq(&[100, myid]), seq(&[8, myid])];
        let mut cases: Vec<(usize, Vec<IdSeq>, Vec<IdSeq>)> = Vec::new();
        for n in [3u64, 2 * KERNEL_MIN_SEQS as u64] {
            cases.push((5, vec![], recv(n)));
            cases.push((4, own.clone(), recv(n)));
        }
        let mut scratch = ScanScratch::new();
        for (k, own, received) in &cases {
            let all = decide_all_rejects(*k, myid, own, received);
            assert!(all.len() > 1, "k={k}: want several witnesses, got {}", all.len());
            let below = received.len() < KERNEL_MIN_SEQS;
            for backend in [ScanBackend::Scalar, ScanBackend::Lanes, ScanBackend::Hybrid] {
                let first = decide_reject_scanned(backend, *k, myid, own, received, &mut scratch);
                assert_eq!(first.as_ref(), all.first(), "k={k} below={below} {backend:?}");
                assert_eq!(first, decide_reject(*k, myid, own, received));
            }
        }
        // The two sizes straddle the hybrid dispatch bound.
        assert!(cases.iter().any(|c| c.2.len() < KERNEL_MIN_SEQS));
        assert!(cases.iter().any(|c| c.2.len() >= KERNEL_MIN_SEQS));
    }
}

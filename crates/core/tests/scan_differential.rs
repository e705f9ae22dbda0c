//! Differential property suite for the collision-scan kernels: the
//! scalar Phase-2 reference paths and the `SeqBlock` batch kernels
//! must be extensionally identical on random inputs — same reject
//! decisions, same witnesses in the same order, same row values — for
//! every backend.
//!
//! CI runs this suite explicitly in every feature-matrix leg
//! (`--no-default-features` and default): the backends are forced per
//! property, so the scalar and kernel paths can never drift apart
//! unnoticed regardless of which one a leg dispatches to by default.

use ck_core::decide::{decide_all_rejects, decide_reject};
use ck_core::scan::{
    decide_all_rejects_scanned, decide_reject_scanned, ScanBackend, ScanScratch, SeqBlock,
};
use ck_core::seq::{IdSeq, MAX_SEQ_LEN};
use proptest::collection::vec;
use proptest::prelude::*;

/// Every backend: `Hybrid`'s size dispatch must be invisible in the
/// outputs.
const BACKENDS: [ScanBackend; 3] = [ScanBackend::Scalar, ScanBackend::Lanes, ScanBackend::Hybrid];

/// Cycle lengths exercised by the decide differential: the small range
/// the protocols live in, plus the `MAX_K` boundary (full 16-ID lanes).
const KS: [usize; 9] = [3, 4, 5, 6, 7, 8, 9, 32, 33];

/// First `want` distinct values of `ids`, as a sequence (None when too
/// few distinct values remain).
fn distinct_prefix(ids: &[u64], want: usize) -> Option<Vec<u64>> {
    let mut d: Vec<u64> = Vec::with_capacity(want);
    for &x in ids {
        if !d.contains(&x) {
            d.push(x);
            if d.len() == want {
                return Some(d);
            }
        }
    }
    (want == 0).then(Vec::new)
}

/// A duplicate-free sequence set over a small universe (overlaps are
/// the interesting cases), lengths free over `0..=MAX_SEQ_LEN`.
fn arb_seq_set() -> impl Strategy<Value = Vec<IdSeq>> {
    vec(vec(0u64..24, 0..MAX_SEQ_LEN + 4), 0..10).prop_map(|raws| {
        raws.iter()
            .map(|ids| {
                let mut d: Vec<u64> = Vec::new();
                for &x in ids {
                    if !d.contains(&x) && d.len() < MAX_SEQ_LEN {
                        d.push(x);
                    }
                }
                IdSeq::from_slice(&d)
            })
            .collect()
    })
}

/// A random decide-round input: `k`, the deciding node's ID (drawn
/// from the same small universe so sequences can contain it), received
/// sequences of exact and off-by-one lengths, and — for even `k` —
/// own-send sequences ending in `myid`.
#[allow(clippy::type_complexity)]
fn arb_decide_case() -> impl Strategy<Value = (usize, u64, Vec<IdSeq>, Vec<IdSeq>)> {
    (0usize..KS.len())
        .prop_flat_map(|ki| {
            let k = KS[ki];
            let half = k / 2;
            let universe = 2 * half as u64 + 6;
            (
                Just(k),
                0u64..universe,
                vec(vec(0u64..universe, half + 4), 0..9),
                vec(vec(0u64..universe, half + 4), 0..4),
            )
        })
        .prop_map(|(k, myid, recv_raw, own_raw)| {
            let half = k / 2;
            let received: Vec<IdSeq> = recv_raw
                .iter()
                .filter_map(|ids| {
                    // Mostly exact-length sequences, with off-length noise
                    // both paths must skip identically.
                    let want = match ids.first().copied().unwrap_or(0) % 4 {
                        0 if half > 1 => half - 1,
                        1 => (half + 1).min(MAX_SEQ_LEN),
                        _ => half,
                    };
                    distinct_prefix(ids, want).map(|d| IdSeq::from_slice(&d))
                })
                .collect();
            let own: Vec<IdSeq> = own_raw
                .iter()
                .filter_map(|ids| {
                    let body: Vec<u64> = ids.iter().copied().filter(|&x| x != myid).collect();
                    distinct_prefix(&body, half.saturating_sub(1)).map(|mut d| {
                        d.push(myid);
                        IdSeq::from_slice(&d)
                    })
                })
                .collect();
            (k, myid, own, received)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The row kernels against the scalar `IdSeq` methods, element by
    /// element.
    #[test]
    fn kernel_rows_match_scalar_ops(
        seqs in arb_seq_set(),
        probe_raw in vec(0u64..24, 0..MAX_SEQ_LEN),
        id in 0u64..30,
        extra in 0u64..30,
    ) {
        let probe = {
            let mut d: Vec<u64> = Vec::new();
            for &x in &probe_raw {
                if !d.contains(&x) {
                    d.push(x);
                }
            }
            IdSeq::from_slice(&d)
        };
        let mut block = SeqBlock::new();
        block.load(&seqs);
        let (mut row, mut marks, mut out) = (Vec::new(), Vec::new(), Vec::new());
        block.contains_row(id, &mut row);
        for (s, q) in seqs.iter().enumerate() {
            prop_assert_eq!(row[s] == 1, q.contains(id), "contains s={}", s);
        }
        block.overlap_counts(&probe, &mut row);
        for (s, q) in seqs.iter().enumerate() {
            let expect = probe.iter().filter(|&e| q.contains(e)).count() as u64;
            prop_assert_eq!(row[s], expect, "overlap s={}", s);
        }
        block.pairwise_disjoint(&probe, &mut row);
        for (s, q) in seqs.iter().enumerate() {
            prop_assert_eq!(row[s] == 1, probe.disjoint_with(q), "disjoint s={}", s);
        }
        block.union_size_with(&probe, extra, &mut marks, &mut out);
        for (s, q) in seqs.iter().enumerate() {
            prop_assert_eq!(out[s], probe.union_size_with(q, extra) as u64, "union s={}", s);
        }
    }

    /// Scalar `decide_all_rejects` ≡ the `SeqBlock` kernel decision —
    /// same witnesses, same order — over random sequence sets, cycle
    /// lengths (`MAX_K` included), and overlap structures.
    #[test]
    fn decide_scanned_matches_scalar((k, myid, own, received) in arb_decide_case()) {
        let expect = decide_all_rejects(k, myid, &own, &received);
        let mut scratch = ScanScratch::new();
        let mut got = Vec::new();
        for backend in BACKENDS {
            decide_all_rejects_scanned(backend, k, myid, &own, &received, &mut scratch, &mut got);
            prop_assert_eq!(
                &got, &expect,
                "{:?} k={} myid={} own={:?} recv={:?}", backend, k, myid, &own, &received
            );
            prop_assert_eq!(
                decide_reject_scanned(backend, k, myid, &own, &received, &mut scratch),
                decide_reject(k, myid, &own, &received),
                "first witness {:?}", backend
            );
        }
    }
}

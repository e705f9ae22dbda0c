//! Deterministic fault injection (v2): drops, crashes, cuts, bursts,
//! and frame corruption.
//!
//! Production network simulators must answer "what happens under a
//! hostile network?". A [`FaultPlan`] composes five deterministic fault
//! kinds, all replayable across runs and executors:
//!
//! * **explicit drops** — a deny-list of (round, sender, port) triples;
//! * **i.i.d. random loss** — a seeded Bernoulli coin per message;
//! * **crash-stop nodes** — a node falls silent from round `r` onward
//!   (send-omission crash: every outbound message is lost, which is
//!   indistinguishable from a full stop to the rest of the network);
//! * **permanent link cuts** — both directions of an undirected edge are
//!   severed for the whole run;
//! * **correlated burst loss** — a two-state Gilbert–Elliott chain per
//!   directed link: from Good the link enters Bad with probability
//!   `p_enter` per round, from Bad it recovers with probability
//!   `p_exit`; every message crossing a Bad link is lost. Expected
//!   burst length is `1/p_exit` rounds, stationary loss rate
//!   `p_enter/(p_enter+p_exit)` — the classic model of fading channels
//!   where losses cluster instead of striking independently.
//!
//! On top of loss, [`FaultPlan::corrupt_frames`] tampers with messages
//! *in flight* at the [`crate::message::WireCodec`] seam: the victim
//! frame is re-encoded, bits are flipped, and the frame is decoded
//! again. Frames the codec rejects ([`crate::message::CodecError`])
//! count as drops; decodable-but-garbage payloads are **delivered**, so
//! protocol soundness can be stress-tested against adversarial content,
//! not just absence.
//!
//! Every decision is a pure function of the message coordinate
//! (round, sender, receiver, port) and the plan's seeds — never of
//! execution order — so the in-process and partitioned executors stay
//! bit-identical under any plan. The Gilbert–Elliott chain keeps this
//! property via a backward coupling: each round's per-link coin `u`
//! partitions `[0,1)` into a constant-Bad region `[0, p_enter)`, an
//! identity region, and a constant-Good region `[1−p_exit, 1)`; the
//! state at round `t` is the constant of the most recent non-identity
//! coin at or before `t` (falling back to a stationary coin before
//! round 0). One hash per scanned round, expected scan length
//! `1/(p_enter+p_exit)`, no mutable chain state anywhere.
//!
//! Drops are applied at delivery time; accounting still records the
//! *sent* message (the sender spent the bandwidth), which matches the
//! synchronous-network reading of loss.
//!
//! A structural consequence worth testing (and tested in `ck-core`):
//! dropping or corrupting Phase-2 messages can only *suppress*
//! detections, never fabricate them once witnesses are re-validated —
//! the tester's 1-sidedness survives arbitrary faults, while its
//! detection guarantee degrades gracefully (see `ck-core`'s `robust`
//! module for the `⌈1/(1−p)^{k·⌊k/2⌋}⌉` repetition-inflation formula
//! that recovers the 2/3 bound under assumed loss `p`).

use crate::graph::NodeIndex;
use crate::rngs::mix64;

/// A single scheduled drop: the message sent by `sender` on local port
/// `port` during `round` never arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DropRule {
    pub round: u32,
    pub sender: NodeIndex,
    pub port: u32,
}

/// Why a message died on the wire — the fault kind that claimed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// An explicit [`DropRule`] fired.
    Explicit,
    /// The i.i.d. Bernoulli coin fired.
    Random,
    /// The sender had crash-stopped.
    Crash,
    /// The link was permanently cut.
    Cut,
    /// The Gilbert–Elliott chain was in its Bad state.
    Burst,
}

impl DropKind {
    /// Number of drop kinds (sizes the per-kind counters).
    pub const COUNT: usize = 5;

    /// Dense index for per-kind accounting arrays.
    pub fn index(self) -> usize {
        match self {
            DropKind::Explicit => 0,
            DropKind::Random => 1,
            DropKind::Crash => 2,
            DropKind::Cut => 3,
            DropKind::Burst => 4,
        }
    }
}

/// The fate of one message under a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// The message arrives untouched.
    Deliver,
    /// The message is lost; the kind says which fault claimed it.
    Drop(DropKind),
    /// The message's encoded frame is tampered with in flight.
    /// `entropy` seeds the bit flips (see
    /// [`crate::message::WireMessage::corrupt_frame`]).
    Corrupt {
        /// Deterministic per-message randomness for the bit flips.
        entropy: u64,
    },
}

/// Deterministic fault plan: a composition of fault kinds, each a pure
/// function of the message coordinate.
///
/// Precedence when several kinds claim the same message:
/// crash > cut > explicit > burst > random; corruption is only
/// considered for messages every drop kind let through.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    // Ordered collections: `decide` is a pure function of the message
    // coordinate either way, but ordered iteration keeps every derived
    // artifact (wire encoding, crash lists, Debug output) bit-identical
    // across processes without a sort-before-use step at each site.
    explicit: std::collections::BTreeSet<DropRule>,
    random: Option<CoinFlip>,
    crashes: std::collections::BTreeMap<NodeIndex, u32>,
    cuts: std::collections::BTreeSet<(NodeIndex, NodeIndex)>,
    burst: Option<BurstLoss>,
    corrupt: Option<CoinFlip>,
}

/// A seeded Bernoulli coin with a fixed-point threshold.
#[derive(Clone, Copy, Debug)]
struct CoinFlip {
    seed: u64,
    /// Probability as a fraction of 2⁶⁴ — `u128` so `p = 1.0` maps to
    /// exactly `1 << 64`, strictly above every 64-bit hash (the old
    /// `u32`-threshold representation let each message survive full
    /// loss with probability 2⁻³²).
    threshold: u128,
}

impl CoinFlip {
    fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability in [0,1]");
        CoinFlip { seed, threshold: fraction(p) }
    }

    fn fires(&self, salt: u64, round: u32, sender: NodeIndex, port: u32) -> bool {
        u128::from(coord_hash(self.seed ^ salt, round, sender, port)) < self.threshold
    }
}

/// Gilbert–Elliott burst-loss chain, evaluated by backward coupling
/// (see the module doc).
#[derive(Clone, Copy, Debug)]
struct BurstLoss {
    seed: u64,
    /// Coins below this enter (or stay in) Bad: `p_enter · 2⁶⁴`.
    enter: u128,
    /// Coins at or above this exit (or stay out of) Bad:
    /// `(1 − p_exit) · 2⁶⁴`.
    exit: u128,
    /// Stationary probability of Bad:
    /// `p_enter/(p_enter+p_exit) · 2⁶⁴`.
    stationary: u128,
}

impl BurstLoss {
    fn bad(&self, round: u32, sender: NodeIndex, port: u32) -> bool {
        let mut t = round;
        loop {
            let u = u128::from(coord_hash(self.seed ^ SALT_BURST, t, sender, port));
            if u < self.enter {
                return true;
            }
            if u >= self.exit {
                return false;
            }
            if t == 0 {
                // Every coin back to round 0 landed in the identity
                // region: the chain never left its initial state, drawn
                // from the stationary distribution.
                let u0 = u128::from(coord_hash(self.seed ^ SALT_BURST_INIT, 0, sender, port));
                return u0 < self.stationary;
            }
            t -= 1;
        }
    }
}

// Domain-separation salts so the independent coins of one plan never
// share a hash stream even under equal seeds.
const SALT_RANDOM: u64 = 0x72616e_646f6d01;
const SALT_BURST: u64 = 0x627572_73740002;
const SALT_BURST_INIT: u64 = 0x627572_73740003;
const SALT_CORRUPT: u64 = 0x636f72_72757004;
const SALT_ENTROPY: u64 = 0x656e74_726f7005;

/// `p` as a fixed-point fraction of 2⁶⁴. Exact at both endpoints:
/// `fraction(0.0) == 0` and `fraction(1.0) == 1 << 64`.
fn fraction(p: f64) -> u128 {
    (p * 18_446_744_073_709_551_616.0) as u128
}

/// Hashes a message coordinate, mixing each field independently so
/// distinct (round, sender, port) coordinates can never alias into the
/// same coin (the old packed form `round << 40 | sender << 12 | port`
/// let sender bits overlap round and large ports bleed into sender).
fn coord_hash(seed: u64, round: u32, sender: NodeIndex, port: u32) -> u64 {
    let mut h = mix64(seed);
    h = mix64(h ^ mix64(u64::from(round)));
    h = mix64(h ^ mix64(u64::from(sender)));
    mix64(h ^ mix64(u64::from(port)))
}

impl FaultPlan {
    /// A plan that drops nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds one explicit drop rule.
    pub fn drop_at(mut self, round: u32, sender: NodeIndex, port: u32) -> Self {
        self.explicit.insert(DropRule { round, sender, port });
        self
    }

    /// Installs i.i.d. Bernoulli loss with probability `p` per message,
    /// derived deterministically from `seed` and the (round, sender,
    /// port) coordinate — replayable across runs and executors.
    pub fn random_loss(mut self, p: f64, seed: u64) -> Self {
        self.random = Some(CoinFlip::new(p, seed));
        self
    }

    /// Crash-stops `node` from `from_round` onward: every message it
    /// sends at that round or later is lost. Repeated calls keep the
    /// earliest crash round.
    pub fn crash(mut self, node: NodeIndex, from_round: u32) -> Self {
        let r = self.crashes.entry(node).or_insert(from_round);
        *r = (*r).min(from_round);
        self
    }

    /// Permanently cuts the undirected link `{a, b}`: messages in both
    /// directions are lost for the whole run.
    pub fn cut_link(mut self, a: NodeIndex, b: NodeIndex) -> Self {
        assert!(a != b, "a link joins two distinct nodes");
        self.cuts.insert((a.min(b), a.max(b)));
        self
    }

    /// Installs Gilbert–Elliott burst loss: each directed link carries
    /// an independent two-state chain entering its lossy Bad state with
    /// probability `p_enter` per round and leaving it with probability
    /// `p_exit`. Requires `p_enter + p_exit ≤ 1` (the backward-coupling
    /// evaluation partitions one coin per round) and both probabilities
    /// positive (so the chain is ergodic and has a stationary law).
    pub fn burst_loss(mut self, p_enter: f64, p_exit: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_enter), "loss probability in [0,1]");
        assert!((0.0..=1.0).contains(&p_exit), "loss probability in [0,1]");
        assert!(p_enter > 0.0 && p_exit > 0.0, "burst chain probabilities must be positive");
        assert!(p_enter + p_exit <= 1.0, "burst chain requires p_enter + p_exit <= 1");
        self.burst = Some(BurstLoss {
            seed,
            enter: fraction(p_enter),
            exit: fraction(1.0 - p_exit),
            stationary: fraction(p_enter / (p_enter + p_exit)),
        });
        self
    }

    /// Installs frame corruption: with probability `p` per delivered
    /// message, the encoded frame has bits flipped in flight (see
    /// [`crate::message::WireMessage::corrupt_frame`]). Undecodable
    /// results count as drops; decodable garbage is delivered.
    pub fn corrupt_frames(mut self, p: f64, seed: u64) -> Self {
        self.corrupt = Some(CoinFlip::new(p, seed));
        self
    }

    /// True when no rule can ever fire (lets the engine skip the check).
    pub fn is_trivial(&self) -> bool {
        self.explicit.is_empty()
            && self.random.is_none()
            && self.crashes.is_empty()
            && self.cuts.is_empty()
            && self.burst.is_none()
            && self.corrupt.is_none()
    }

    /// Decides the fate of the message sent by `sender` to `receiver`
    /// on local port `port` at `round`. Pure in the coordinate: safe to
    /// evaluate from any executor in any order.
    pub fn decide(
        &self,
        round: u32,
        sender: NodeIndex,
        receiver: NodeIndex,
        port: u32,
    ) -> FaultDecision {
        if let Some(&from) = self.crashes.get(&sender) {
            if round >= from {
                return FaultDecision::Drop(DropKind::Crash);
            }
        }
        if !self.cuts.is_empty()
            && self.cuts.contains(&(sender.min(receiver), sender.max(receiver)))
        {
            return FaultDecision::Drop(DropKind::Cut);
        }
        if self.explicit.contains(&DropRule { round, sender, port }) {
            return FaultDecision::Drop(DropKind::Explicit);
        }
        if let Some(b) = &self.burst {
            if b.bad(round, sender, port) {
                return FaultDecision::Drop(DropKind::Burst);
            }
        }
        if let Some(r) = &self.random {
            if r.fires(SALT_RANDOM, round, sender, port) {
                return FaultDecision::Drop(DropKind::Random);
            }
        }
        if let Some(c) = &self.corrupt {
            if c.fires(SALT_CORRUPT, round, sender, port) {
                return FaultDecision::Corrupt {
                    entropy: coord_hash(c.seed ^ SALT_ENTROPY, round, sender, port),
                };
            }
        }
        FaultDecision::Deliver
    }

    /// Whether the message is lost (any drop kind). Corrupted messages
    /// are *not* drops at this level — their fate depends on whether
    /// the tampered frame still decodes.
    pub fn drops(&self, round: u32, sender: NodeIndex, receiver: NodeIndex, port: u32) -> bool {
        matches!(self.decide(round, sender, receiver, port), FaultDecision::Drop(_))
    }

    /// Serializes the plan for shipping to distributed workers
    /// (deterministic: set-like fields are emitted sorted). The
    /// encoding carries the *internal* fixed-point thresholds, not the
    /// original `f64` probabilities, so a worker's rebuilt plan flips
    /// exactly the same coins as the coordinator's — the purity of
    /// [`FaultPlan::decide`] then extends across process boundaries.
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::net::frame::ByteWriter;
        let mut w = ByteWriter::new();
        // BTree iteration is already in (round, sender, port) order —
        // DropRule's derived Ord matches its field order.
        w.u32(self.explicit.len() as u32);
        for r in &self.explicit {
            w.u32(r.round);
            w.u32(r.sender);
            w.u32(r.port);
        }
        match &self.random {
            Some(c) => {
                w.u8(1);
                w.u64(c.seed);
                w.u128(c.threshold);
            }
            None => w.u8(0),
        }
        w.u32(self.crashes.len() as u32);
        for (&node, &from) in &self.crashes {
            w.u32(node);
            w.u32(from);
        }
        w.u32(self.cuts.len() as u32);
        for &(a, b) in &self.cuts {
            w.u32(a);
            w.u32(b);
        }
        match &self.burst {
            Some(b) => {
                w.u8(1);
                w.u64(b.seed);
                w.u128(b.enter);
                w.u128(b.exit);
                w.u128(b.stationary);
            }
            None => w.u8(0),
        }
        match &self.corrupt {
            Some(c) => {
                w.u8(1);
                w.u64(c.seed);
                w.u128(c.threshold);
            }
            None => w.u8(0),
        }
        w.0
    }

    /// Rebuilds a plan from [`FaultPlan::to_bytes`]; any truncation or
    /// trailing garbage is a typed frame error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::net::frame::FrameError> {
        use crate::net::frame::ByteReader;
        let mut r = ByteReader::new(bytes);
        let mut plan = FaultPlan::default();
        for _ in 0..r.u32()? {
            let rule = DropRule { round: r.u32()?, sender: r.u32()?, port: r.u32()? };
            plan.explicit.insert(rule);
        }
        if r.u8()? != 0 {
            plan.random = Some(CoinFlip { seed: r.u64()?, threshold: r.u128()? });
        }
        for _ in 0..r.u32()? {
            let (node, from) = (r.u32()?, r.u32()?);
            plan.crashes.insert(node, from);
        }
        for _ in 0..r.u32()? {
            let (a, b) = (r.u32()?, r.u32()?);
            plan.cuts.insert((a, b));
        }
        if r.u8()? != 0 {
            plan.burst = Some(BurstLoss {
                seed: r.u64()?,
                enter: r.u128()?,
                exit: r.u128()?,
                stationary: r.u128()?,
            });
        }
        if r.u8()? != 0 {
            plan.corrupt = Some(CoinFlip { seed: r.u64()?, threshold: r.u128()? });
        }
        r.finish()?;
        Ok(plan)
    }

    /// The nodes that have crash-stopped strictly before `rounds`
    /// rounds have executed, restricted to indices below `n`, sorted.
    pub fn crashed_by(&self, rounds: u32, n: usize) -> Vec<NodeIndex> {
        let mut out = Vec::new();
        self.crashed_by_into(rounds, n, &mut out);
        out
    }

    /// [`crashed_by`](Self::crashed_by) into a caller-owned buffer —
    /// the warm-path form: a reused buffer makes the per-run crash
    /// list allocation-free once its capacity has grown to fit.
    pub fn crashed_by_into(&self, rounds: u32, n: usize, out: &mut Vec<NodeIndex>) {
        out.clear();
        // BTreeMap iteration is ordered by node, so `out` comes back
        // sorted without a separate sort step.
        out.extend(
            self.crashes
                .iter()
                .filter(|&(&node, &from)| from < rounds && (node as usize) < n)
                .map(|(&node, _)| node),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_never_drops() {
        let p = FaultPlan::none();
        assert!(p.is_trivial());
        for r in 0..10 {
            assert!(!p.drops(r, 0, 1, 0));
            assert_eq!(p.decide(r, 0, 1, 0), FaultDecision::Deliver);
        }
    }

    #[test]
    fn explicit_rules_fire_exactly() {
        let p = FaultPlan::none().drop_at(3, 7, 1);
        assert!(!p.is_trivial());
        assert!(p.drops(3, 7, 0, 1));
        assert_eq!(p.decide(3, 7, 0, 1), FaultDecision::Drop(DropKind::Explicit));
        assert!(!p.drops(3, 7, 0, 0));
        assert!(!p.drops(2, 7, 0, 1));
        assert!(!p.drops(3, 6, 0, 1));
    }

    #[test]
    fn random_loss_is_deterministic_and_calibrated() {
        let p = FaultPlan::none().random_loss(0.25, 99);
        let q = FaultPlan::none().random_loss(0.25, 99);
        let mut dropped = 0;
        let total = 40_000;
        for r in 0..200u32 {
            for s in 0..20u32 {
                for port in 0..10u32 {
                    let d = p.drops(r, s, s + 1, port);
                    assert_eq!(d, q.drops(r, s, s + 1, port), "determinism");
                    if d {
                        dropped += 1;
                    }
                }
            }
        }
        let rate = f64::from(dropped) / f64::from(total);
        assert!((rate - 0.25).abs() < 0.02, "empirical loss {rate} far from 0.25");
    }

    #[test]
    fn zero_and_full_loss() {
        let none = FaultPlan::none().random_loss(0.0, 1);
        let all = FaultPlan::none().random_loss(1.0, 1);
        // Behavioral sweep over many coordinates.
        for r in 0..200u32 {
            for s in 0..10u32 {
                assert!(!none.drops(r, s, s + 1, 0));
                assert!(all.drops(r, s, s + 1, 0));
            }
        }
        // The sharp boundary the old u32 threshold missed: at p = 1.0
        // the threshold must exceed every possible 64-bit hash — the
        // old `(h as u32) < u32::MAX` let a hash with low word
        // `u32::MAX` survive (each message lived with probability
        // 2⁻³²). Conversely p = 0.0 must spare even a zero hash.
        let full = CoinFlip::new(1.0, 1);
        assert_eq!(full.threshold, 1u128 << 64);
        assert!(u128::from(u64::MAX) < full.threshold, "p=1.0 must drop the maximal hash");
        let zero = CoinFlip::new(0.0, 1);
        assert_eq!(zero.threshold, 0);
        assert!(u128::from(0u64) >= zero.threshold, "p=0.0 must spare the zero hash");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::none().random_loss(1.5, 0);
    }

    #[test]
    fn coordinate_fields_do_not_alias() {
        // The old packing `round << 40 | sender << 12 | port` collided
        // e.g. (round, sender, port) = (0, 2^28, 0) with (1, 0, 0) and
        // (0, 0, 2^12) with (0, 1, 0). Independent mixing must give
        // these distinct coins.
        let collide = [
            ((0u32, 1u32 << 28, 0u32), (1u32, 0u32, 0u32)),
            ((0, 0, 1 << 12), (0, 1, 0)),
            ((1 << 24, 0, 0), (0, 0, 0)),
        ];
        for ((r1, s1, p1), (r2, s2, p2)) in collide {
            assert_ne!(
                coord_hash(42, r1, s1, p1),
                coord_hash(42, r2, s2, p2),
                "({r1},{s1},{p1}) aliases ({r2},{s2},{p2})"
            );
        }
    }

    #[test]
    fn crash_silences_sender_from_round() {
        let p = FaultPlan::none().crash(4, 3);
        assert!(!p.drops(2, 4, 0, 0), "alive before the crash round");
        assert_eq!(p.decide(3, 4, 0, 0), FaultDecision::Drop(DropKind::Crash));
        assert_eq!(p.decide(9, 4, 1, 2), FaultDecision::Drop(DropKind::Crash));
        assert!(!p.drops(9, 5, 4, 0), "other senders unaffected");
        // Repeated crashes keep the earliest round.
        let q = p.crash(4, 7);
        assert!(q.drops(3, 4, 0, 0));
        assert_eq!(q.crashed_by(4, 10), vec![4]);
        assert_eq!(q.crashed_by(3, 10), Vec::<NodeIndex>::new());
    }

    #[test]
    fn cut_links_sever_both_directions() {
        let p = FaultPlan::none().cut_link(2, 5);
        for r in 0..10 {
            assert_eq!(p.decide(r, 2, 5, 0), FaultDecision::Drop(DropKind::Cut));
            assert_eq!(p.decide(r, 5, 2, 3), FaultDecision::Drop(DropKind::Cut));
        }
        assert!(!p.drops(0, 2, 4, 0), "other links unaffected");
        assert!(!p.drops(0, 5, 6, 0));
    }

    #[test]
    fn burst_loss_is_deterministic_and_clusters() {
        let p = FaultPlan::none().burst_loss(0.1, 0.3, 7);
        let q = FaultPlan::none().burst_loss(0.1, 0.3, 7);
        let rounds = 20_000u32;
        let mut bad = 0u32;
        let mut transitions = 0u32;
        let mut prev = false;
        for r in 0..rounds {
            let d = p.drops(r, 0, 1, 0);
            assert_eq!(d, q.drops(r, 0, 1, 0), "determinism");
            if d {
                bad += 1;
            }
            if r > 0 && d != prev {
                transitions += 1;
            }
            prev = d;
        }
        // Stationary Bad rate is p_enter/(p_enter+p_exit) = 0.25.
        let rate = f64::from(bad) / f64::from(rounds);
        assert!((rate - 0.25).abs() < 0.03, "stationary rate {rate} far from 0.25");
        // Clustering: an i.i.d. 0.25 coin would flip state ~37.5% of
        // steps; the chain flips at ~2·(0.75·0.1) = 15%.
        let flip = f64::from(transitions) / f64::from(rounds - 1);
        assert!(flip < 0.25, "losses do not cluster: flip rate {flip}");
        // Different links see different chains.
        let other: Vec<bool> = (0..200).map(|r| p.drops(r, 3, 1, 1)).collect();
        let this: Vec<bool> = (0..200).map(|r| p.drops(r, 0, 1, 0)).collect();
        assert_ne!(other, this, "per-link chains must differ");
    }

    #[test]
    fn burst_matches_forward_simulation() {
        // The backward coupling must equal a forward walk of the same
        // chain driven by the same coins.
        let (pe, px, seed) = (0.2, 0.4, 11);
        let p = FaultPlan::none().burst_loss(pe, px, seed);
        let b = p.burst.unwrap();
        for (s, port) in [(0u32, 0u32), (5, 2), (9, 7)] {
            let mut state =
                u128::from(coord_hash(seed ^ SALT_BURST_INIT, 0, s, port)) < b.stationary;
            for r in 0..500u32 {
                let u = u128::from(coord_hash(seed ^ SALT_BURST, r, s, port));
                if u < b.enter {
                    state = true;
                } else if u >= b.exit {
                    state = false;
                }
                assert_eq!(p.drops(r, s, s + 1, port), state, "round {r} link ({s},{port})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "p_enter + p_exit")]
    fn burst_rejects_overlapping_probabilities() {
        let _ = FaultPlan::none().burst_loss(0.7, 0.5, 0);
    }

    #[test]
    fn corruption_decisions_are_deterministic_and_calibrated() {
        let p = FaultPlan::none().corrupt_frames(0.5, 13);
        let mut hit = 0u32;
        for r in 0..100u32 {
            for s in 0..20u32 {
                match p.decide(r, s, s + 1, 0) {
                    FaultDecision::Corrupt { entropy } => {
                        hit += 1;
                        assert_eq!(
                            p.decide(r, s, s + 1, 0),
                            FaultDecision::Corrupt { entropy },
                            "determinism"
                        );
                    }
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop(k) => panic!("corruption-only plan dropped: {k:?}"),
                }
            }
        }
        let rate = f64::from(hit) / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "corruption rate {rate} far from 0.5");
        assert!(!p.drops(0, 0, 1, 0) || hit > 0, "drops() must not count corruption");
    }

    #[test]
    fn precedence_crash_over_cut_over_explicit() {
        let p = FaultPlan::none().crash(1, 0).cut_link(1, 2).drop_at(0, 1, 0);
        assert_eq!(p.decide(0, 1, 2, 0), FaultDecision::Drop(DropKind::Crash));
        let q = FaultPlan::none().cut_link(1, 2).drop_at(0, 1, 0);
        assert_eq!(q.decide(0, 1, 2, 0), FaultDecision::Drop(DropKind::Cut));
        let r = FaultPlan::none().drop_at(0, 1, 0).random_loss(1.0, 3);
        assert_eq!(r.decide(0, 1, 2, 0), FaultDecision::Drop(DropKind::Explicit));
        assert_eq!(r.decide(1, 1, 2, 0), FaultDecision::Drop(DropKind::Random));
    }

    #[test]
    fn composed_plans_report_nontriviality() {
        assert!(!FaultPlan::none().crash(0, 0).is_trivial());
        assert!(!FaultPlan::none().cut_link(0, 1).is_trivial());
        assert!(!FaultPlan::none().burst_loss(0.1, 0.5, 0).is_trivial());
        assert!(!FaultPlan::none().corrupt_frames(0.1, 0).is_trivial());
    }
}

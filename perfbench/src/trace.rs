//! The traced run's instruments: in-memory spans around every call the
//! benchmark makes into a layer, and a timing wrapper around the public
//! `CkTester` program that splits its step time into the tester's
//! phases. Both live on the benchmark's side of the public API.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ck_congest::node::{Inbox, Outbox, Program, Status};
use ck_core::msg::CkMsg;
use ck_core::rank::rounds_per_repetition;
use ck_core::tester::{CkTester, NodeVerdict};

/// One call into a layer. Spans of one request share `req`; `parent`
/// indexes the enclosing span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Span recorder of the traced run (the end-to-end runs use none).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::close`] ends it. Returns its index
    /// for children.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span timed elsewhere (e.g. on the load generator's
    /// threads).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
    }

    /// Runs `f` inside a span and returns its output with its wall time
    /// in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, req);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                if i == 0 { "" } else { "," },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.req
            );
        }
        s.push_str("\n]");
        s
    }
}

/// Step time summed over all nodes, per engine round; shared by every
/// node's [`Timed`] wrapper. The traced run is sequential, so the
/// relaxed adds are uncontended.
pub struct PhaseClock {
    rpr: u32,
    half_k: u32,
    per_round: Vec<AtomicU64>,
}

impl PhaseClock {
    pub fn new(k: usize, rounds: u32) -> Self {
        PhaseClock {
            rpr: rounds_per_repetition(k),
            half_k: (k / 2) as u32,
            per_round: (0..rounds).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Tester phase of an engine round, by its local round within the
    /// repetition: 0 ranks, 1 seeds, `2..=⌊k/2⌋` forward (absorb +
    /// prune + send), `⌊k/2⌋ + 1` decide.
    fn phase(&self, round: u32) -> usize {
        match round % self.rpr {
            0 => 0,
            1 => 1,
            local if local <= self.half_k => 2,
            _ => 3,
        }
    }

    /// Step nanoseconds per engine round.
    pub fn per_round(&self) -> Vec<u64> {
        self.per_round.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Step nanoseconds per phase, summed over rounds.
    pub fn per_phase(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (r, ns) in self.per_round().into_iter().enumerate() {
            out[self.phase(r as u32)] += ns;
        }
        out
    }
}

/// `CkTester` with its `step` timed; verdicts pass through unchanged.
pub struct Timed<'g, 'c> {
    inner: CkTester<'g>,
    clock: &'c PhaseClock,
}

impl<'g, 'c> Timed<'g, 'c> {
    pub fn new(inner: CkTester<'g>, clock: &'c PhaseClock) -> Self {
        Timed { inner, clock }
    }
}

impl Program for Timed<'_, '_> {
    type Msg = CkMsg;
    type Verdict = NodeVerdict;

    fn step(&mut self, round: u32, inbox: Inbox<'_, CkMsg>, out: &mut Outbox<CkMsg>) -> Status {
        let start = Instant::now();
        let status = self.inner.step(round, inbox, out);
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(slot) = self.clock.per_round.get(round as usize) {
            slot.fetch_add(ns, Ordering::Relaxed);
        }
        status
    }

    fn verdict(&self) -> NodeVerdict {
        self.inner.verdict()
    }

    fn reclaim_msg(&mut self, msg: CkMsg) {
        self.inner.reclaim_msg(msg);
    }
}

//! Golden verdicts: the full tester's observable output, pinned to a
//! committed fixture instead of to another run of the same code.
//!
//! The parity suites (`soa_parity`, `session_parity`, sequential ≡
//! distributed) compare the current code with itself, so a change that
//! shifts every layout and executor the same way slips past all of them. This suite digests
//! each run into one FNV-1a hash over explicit fields — per node the
//! reject bit, the first rejection's repetition, tag and witness ids,
//! `max_sent_seqs` and `pool_outstanding`; per round the wire counters —
//! and compares it with `tests/fixtures/golden_verdicts.txt`.
//!
//! The cases cover k = 3..=9 on certified ε-far and `G(n, p)` inputs
//! plus `Ck`-free controls, each under both node layouts, early abort,
//! random loss, and frame corruption with witness verification, on the
//! default (sequential) executor. The multi-repetition schedules make nodes reject in an
//! early repetition and keep running, which is the decision round's
//! already-rejected path.
//!
//! When a change is *meant* to alter the output, the failure message
//! prints the regenerated fixture; replace the file with it and say why
//! in the commit.

use ck_congest::engine::EngineConfig;
use ck_congest::fault::FaultPlan;
use ck_congest::graph::Graph;
use ck_core::session::TesterSession;
use ck_core::tester::{NodeLayout, TesterConfig, TesterRun};
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use ck_graphgen::random::gnp;

const FIXTURE: &str = include_str!("fixtures/golden_verdicts.txt");

/// Repetitions per run: enough that a node rejecting in repetition 0
/// still has three decision rounds ahead of it.
const REPS: u32 = 4;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(run: &TesterRun) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(run.reject));
    h.word(u64::from(run.repetitions));
    h.word(u64::from(run.discarded_witnesses));
    h.word(u64::from(run.outcome.report.rounds));
    h.word(run.outcome.verdicts.len() as u64);
    for v in &run.outcome.verdicts {
        h.word(u64::from(v.rejected));
        h.word(v.max_sent_seqs as u64);
        h.word(v.pool_outstanding);
        match v.first_rejection.as_deref() {
            None => h.word(0),
            Some(r) => {
                h.word(1);
                h.word(u64::from(r.repetition));
                h.word(r.tag.rank);
                h.word(r.tag.lo);
                h.word(r.tag.hi);
                for seq in [&r.witness.l1, &r.witness.l2] {
                    h.word(seq.len() as u64);
                    for id in seq.iter() {
                        h.word(id);
                    }
                }
                h.word(r.witness.myid);
                h.word(r.witness.k as u64);
            }
        }
    }
    h.word(run.outcome.report.per_round.len() as u64);
    for s in &run.outcome.report.per_round {
        h.word(u64::from(s.round));
        h.word(s.messages);
        h.word(s.bits);
        h.word(s.max_message_bits);
        h.word(s.max_link_bits);
        h.word(s.max_link_messages);
    }
    h.0
}

/// The tester/engine variations every graph runs under.
#[derive(Clone, Copy)]
enum Mode {
    Plain,
    EarlyAbort,
    Loss,
    CorruptVerified,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Plain, Mode::EarlyAbort, Mode::Loss, Mode::CorruptVerified];

    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::EarlyAbort => "abort",
            Mode::Loss => "loss",
            Mode::CorruptVerified => "corrupt",
        }
    }

    fn configs(self, k: usize, seed: u64) -> (TesterConfig, EngineConfig) {
        let base = TesterConfig { repetitions: Some(REPS), ..TesterConfig::new(k, 0.05, seed) };
        let engine = EngineConfig::default();
        match self {
            Mode::Plain => (base, engine),
            Mode::EarlyAbort => (TesterConfig { early_abort: true, ..base }, engine),
            Mode::Loss => (
                base,
                EngineConfig { faults: FaultPlan::none().random_loss(0.2, seed ^ 0x5a), ..engine },
            ),
            Mode::CorruptVerified => (
                TesterConfig { verify_witnesses: true, ..base },
                EngineConfig {
                    faults: FaultPlan::none().corrupt_frames(0.3, seed ^ 0xc3),
                    ..engine
                },
            ),
        }
    }
}

/// The input graphs: `(name, k, graph, tester seed)`.
fn graphs() -> Vec<(String, usize, Graph, u64)> {
    let mut out = Vec::new();
    for k in 3..=9usize {
        for inst_seed in 0..4u64 {
            let inst = eps_far_instance(60, k, 0.05, inst_seed);
            out.push((format!("far{inst_seed}"), k, inst.graph, 7 + k as u64 + inst_seed));
        }
        for (i, p) in [0.12, 0.2].into_iter().enumerate() {
            let g = gnp(32, p, 100 + 10 * k as u64 + i as u64);
            out.push((format!("gnp{i}"), k, g, 3 * k as u64 + i as u64));
        }
        out.push(("free".to_string(), k, matched_free_instance(48, k), k as u64));
    }
    out
}

/// Runs every case: `(case name, digest, run)`.
fn run_cases() -> Vec<(String, u64, TesterRun)> {
    let mut out = Vec::new();
    for (gname, k, g, seed) in graphs() {
        for mode in Mode::ALL {
            for layout in [NodeLayout::Boxed, NodeLayout::Soa] {
                let (cfg, engine) = mode.configs(k, seed);
                let cfg = TesterConfig { layout, ..cfg };
                let name = format!("k{k}/{gname}/{}/{:?}/{layout:?}", mode.name(), engine.executor);
                let run = TesterSession::from_config(cfg, engine).unwrap().test(&g).unwrap();
                out.push((name, digest(&run), run));
            }
        }
    }
    out
}

fn render(cases: &[(String, u64, TesterRun)]) -> String {
    let mut s = String::from(
        "# Golden tester digests (tests/golden_verdicts.rs): one `case digest` line per run.\n",
    );
    for (name, d, _) in cases {
        s.push_str(&format!("{name} {d:016x}\n"));
    }
    s
}

#[test]
fn tester_output_matches_golden_fixture() {
    let cases = run_cases();
    let expected: Vec<(&str, &str)> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mismatches: Vec<String> = cases
        .iter()
        .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
        .filter_map(|((name, d, _), exp)| {
            let got = format!("{d:016x}");
            match exp {
                Some((en, ed)) if en == name && *ed == got => None,
                Some((en, ed)) => Some(format!("{name} {got} (fixture: {en} {ed})")),
                None => Some(format!("{name} {got} (missing from fixture)")),
            }
        })
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == cases.len(),
        "{} of {} cases differ from the golden fixture ({} fixture lines):\n{}\n\
         --- regenerated fixture ---\n{}",
        mismatches.len(),
        cases.len(),
        expected.len(),
        mismatches.join("\n"),
        render(&cases)
    );
}

/// The fixture must exercise what it exists to pin: rejects on every k,
/// nodes that reject before the last repetition and keep running, and
/// accepting controls.
#[test]
fn golden_cases_cover_the_already_rejected_path() {
    let cases = run_cases();
    for k in 3..=9usize {
        let prefix = format!("k{k}/");
        let of_k = || cases.iter().filter(|(n, _, _)| n.starts_with(&prefix));
        assert!(of_k().any(|(n, _, r)| n.contains("/plain/") && r.reject), "k={k}: no reject");
        assert!(
            of_k().any(|(n, _, r)| n.contains("/plain/")
                && r.rejections().iter().any(|x| x.repetition + 1 < REPS)),
            "k={k}: no node rejects before the last repetition"
        );
        assert!(
            of_k().filter(|(n, _, _)| n.contains("/free/")).all(|(_, _, r)| !r.reject),
            "k={k}: a Ck-free control rejected"
        );
    }
}

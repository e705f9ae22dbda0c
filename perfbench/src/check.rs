//! Verdict checks. Every timed or set-up operation is checked, and one
//! failed check fails the operation; the totals become the result's
//! `attempted` / `failed` fields.

use ck_congest::engine::EngineError;
use ck_congest::graph::Graph;
use ck_congest::message::WireParams;
use ck_congest::metrics::RunReport;
use ck_core::cost::{max_message_bits_bound, predicted_engine_rounds};
use ck_core::tester::{NodeVerdict, TesterConfig, TesterRun};
use ck_graphgen::farness::is_valid_ck;
use ck_serve::StatsSnapshot;

use crate::jobs::Job;

/// Attempted and failed operation counts, plus the first failures in
/// words (each names the run's seed, so it can be replayed).
pub struct Checks {
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
    log: Vec<String>,
}

impl Checks {
    pub fn new(seed: u64) -> Self {
        Checks { seed, attempted: 0, failed: 0, log: Vec::new() }
    }

    /// Counts one operation; an `Err` fails it.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.log.len() < 20 {
                self.log.push(format!("seed {}: {what}: {why}", self.seed));
            }
        }
    }

    /// Failures so far, one line each.
    pub fn log(&self) -> &[String] {
        &self.log
    }
}

/// The checks every tester run must pass whatever path produced it:
/// the paper's one-sided error (`free` inputs never reject) and a valid
/// `Ck` of the input behind every reject.
pub fn check_verdicts(
    g: &Graph,
    k: usize,
    free: bool,
    verdicts: &[NodeVerdict],
) -> Result<(), String> {
    if verdicts.len() != g.n() {
        return Err(format!("{} verdicts for {} nodes", verdicts.len(), g.n()));
    }
    for (v, verdict) in verdicts.iter().enumerate() {
        if verdict.rejected && free {
            return Err(format!("node {v} rejected a C{k}-free graph"));
        }
        if let Some(rej) = verdict.first_rejection.as_deref() {
            let ids = rej.witness.cycle_ids();
            let cycle: Option<Vec<_>> = ids.iter().map(|&id| g.index_of(id)).collect();
            if !cycle.is_some_and(|c| is_valid_ck(g, k, &c)) {
                return Err(format!(
                    "node {v} rejected with witness {ids:?}, not a C{k} of the input"
                ));
            }
        }
    }
    Ok(())
}

/// Cost-model conformance: the engine ran exactly the predicted number
/// of rounds and no message exceeded the closed-form bit bound.
pub fn check_cost(g: &Graph, cfg: &TesterConfig, report: &RunReport) -> Result<(), String> {
    let rounds = predicted_engine_rounds(cfg.k, cfg.effective_repetitions());
    if report.rounds != rounds {
        return Err(format!("{} rounds, cost model predicts {rounds}", report.rounds));
    }
    let bound = max_message_bits_bound(cfg.k, &WireParams::for_graph(g));
    if report.max_message_bits() > bound {
        return Err(format!(
            "{}-bit message over the {bound}-bit bound",
            report.max_message_bits()
        ));
    }
    Ok(())
}

/// Every check of an in-process or distributed probe run.
pub fn check_run(g: &Graph, cfg: &TesterConfig, free: bool, run: &TesterRun) -> Result<(), String> {
    check_verdicts(g, cfg.k, free, &run.outcome.verdicts)?;
    check_cost(g, cfg, &run.outcome.report)
}

/// Bit-identity of node verdicts between two paths of one job.
pub fn check_same(
    path: &str,
    reference: &[NodeVerdict],
    got: &[NodeVerdict],
) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!("{path}: {} verdicts, reference has {}", got.len(), reference.len()));
    }
    match reference.iter().zip(got).position(|(a, b)| a != b) {
        Some(v) => Err(format!("{path}: node {v} verdict differs from the sequential reference")),
        None => Ok(()),
    }
}

/// A distributed run must have completed over the network, not degraded
/// to the in-process sequential oracle.
pub fn check_distributed(report: &RunReport) -> Result<(), String> {
    match &report.net {
        Some(net) if net.completed_distributed() => Ok(()),
        Some(net) => Err(format!("fell back to the sequential oracle: {:?}", net.fallback)),
        None => Err("no network report on a distributed run".to_string()),
    }
}

/// Checks one probe or distributed run against its job and reference.
pub fn check_probe(
    job: &Job,
    reference: &[NodeVerdict],
    path: &str,
    run: Result<TesterRun, EngineError>,
) -> Result<(), String> {
    let run = run.map_err(|e| format!("{path}: {e}"))?;
    check_run(&job.graph, &job.cfg, job.free, &run)?;
    check_same(path, reference, &run.outcome.verdicts)
}

/// A distributed run passes the probe checks and really ran remote.
pub fn check_dist(
    job: &Job,
    reference: &[NodeVerdict],
    run: Result<TesterRun, EngineError>,
) -> Result<(), String> {
    let run = run.map_err(|e| format!("distributed: {e}"))?;
    check_distributed(&run.outcome.report)?;
    check_probe(job, reference, "distributed", Ok(run))
}

/// A drained service has nothing queued, executing or checked out.
pub fn check_drained(stats: &StatsSnapshot) -> Result<(), String> {
    if stats.pool_outstanding == 0 && stats.in_flight == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} jobs in flight, {} checked out after drain",
            stats.in_flight, stats.pool_outstanding
        ))
    }
}

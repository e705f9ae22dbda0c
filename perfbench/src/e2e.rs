//! The end-to-end runs (`--trace 0`): what a user of each path waits
//! for, with tracing off. Every workload reports the same three
//! metrics, each bound to its own path:
//!
//! | workload | `wait_ms` | `slow_ms` |
//! |---|---|---|
//! | probe-* | warm `TesterSession::test`, median | one-shot `test_ck_freeness`, median |
//! | dist-loopback | spawn→verdict of a distributed `test`, median | the same, p90 |
//!
//! `setup_s` is the median of five full set-ups (generation, session
//! or workers, warm-up).

use std::time::{Duration, Instant};

use ck_congest::engine::{EngineConfig, Executor};
use ck_core::session::TesterSession;
use ck_core::tester::{test_ck_freeness, NodeVerdict};

use crate::check::{check_dist, check_probe, check_run, Checks};
use crate::jobs::{Job, DIST_WORKERS};
use crate::stats::{median, quantile};
use crate::Report;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times [`SETUPS`] full set-ups; returns the times and the last set-up,
/// dropping each earlier one before the next starts.
fn set_up<T>(mut make: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (made, secs) = timed(&mut make);
        times.push(secs);
        last = Some(made);
    }
    (times, last.expect("SETUPS is positive"))
}

pub fn engine(executor: Executor) -> EngineConfig {
    EngineConfig { executor, ..EngineConfig::default() }
}

/// A sequential in-process run: the reference every other path of the
/// same job must match bit for bit.
pub fn reference(job: &Job, checks: &mut Checks) -> Vec<NodeVerdict> {
    let mut session = TesterSession::from_config(job.cfg, engine(Executor::Sequential))
        .expect("workload configurations are in range");
    let run = session.test(&job.graph).expect("sequential run");
    checks.record("sequential reference", check_run(&job.graph, &job.cfg, job.free, &run));
    run.outcome.verdicts
}

/// `probe-*`: warm tests and one-shot calls, alternated for `seconds`.
pub fn probe(
    make: fn(u64, bool) -> Job,
    seed: u64,
    toy: bool,
    seconds: f64,
    checks: &mut Checks,
) -> Report {
    let (setups, (job, mut session, warm_up)) = set_up(|| {
        let job = make(seed, toy);
        let mut session = TesterSession::from_config(job.cfg, EngineConfig::default())
            .expect("workload configurations are in range");
        let run = session.test(&job.graph);
        (job, session, run)
    });
    let reference = reference(&job, checks);
    checks.record("set-up warm-up", check_probe(&job, &reference, "parallel", warm_up));

    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pair = 0.0;
    // Alternate until the next pair would overrun the window.
    while warm.is_empty() || start.elapsed().as_secs_f64() + pair <= seconds {
        let t = Instant::now();
        let (run, secs) = timed(|| session.test(&job.graph));
        warm.push(secs);
        checks.record("warm test", check_probe(&job, &reference, "warm test", run));
        let (run, secs) =
            timed(|| test_ck_freeness(&job.graph, job.cfg.k, job.cfg.eps, job.cfg.seed));
        cold.push(secs);
        checks.record("one-shot", check_probe(&job, &reference, "one-shot", Ok(run)));
        pair = t.elapsed().as_secs_f64();
    }

    let mut r = Report::default();
    r.metric("setup_s", median(&setups), "s");
    r.metric("wait_ms", median(&warm) * 1e3, "ms");
    r.metric("slow_ms", median(&cold) * 1e3, "ms");
    r.note(format!(
        "probe_s {:.6} s  (wait_ms; median of {} warm tests)",
        median(&warm),
        warm.len()
    ));
    r.note(format!(
        "oneshot_s {:.6} s  (slow_ms; median of {} one-shot calls)",
        median(&cold),
        cold.len()
    ));
    r.note(format!(
        "graph n={} m={}, k={}, eps={}, reject={}",
        job.graph.n(),
        job.graph.m(),
        job.cfg.k,
        job.cfg.eps,
        reference.iter().any(|v| v.rejected)
    ));
    r
}

/// `dist-loopback`: repeated distributed tests on one built session.
pub fn dist(
    make: fn(u64, bool) -> Job,
    seed: u64,
    toy: bool,
    seconds: f64,
    checks: &mut Checks,
) -> Report {
    let (setups, (job, mut session, warm_up)) = set_up(|| {
        let job = make(seed, toy);
        let mut session = TesterSession::builder(job.cfg.k, job.cfg.eps)
            .seed(job.cfg.seed)
            .distributed(DIST_WORKERS)
            .build()
            .expect("workload configurations are in range");
        let run = session.test(&job.graph);
        (job, session, run)
    });
    let reference = reference(&job, checks);
    checks.record("set-up warm-up", check_dist(&job, &reference, warm_up));

    let mut walls = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while walls.is_empty() || Instant::now() < end {
        let (run, secs) = timed(|| session.test(&job.graph));
        walls.push(secs);
        checks.record("distributed test", check_dist(&job, &reference, run));
    }
    let run = test_ck_freeness(&job.graph, job.cfg.k, job.cfg.eps, job.cfg.seed);
    checks.record("parallel cross-check", check_probe(&job, &reference, "parallel", Ok(run)));

    let mut r = Report::default();
    r.metric("setup_s", median(&setups), "s");
    r.metric("wait_ms", median(&walls) * 1e3, "ms");
    r.metric("slow_ms", quantile(&walls, 0.9) * 1e3, "ms");
    r.note(format!(
        "dist_s {:.6} s  (wait_ms; median of {} distributed tests)",
        median(&walls),
        walls.len()
    ));
    r.note(format!("dist p90 {:.6} s  (slow_ms)", quantile(&walls, 0.9)));
    r.note(format!(
        "graph n={} m={}, k={}, eps={}, workers={DIST_WORKERS}",
        job.graph.n(),
        job.graph.m(),
        job.cfg.k,
        job.cfg.eps
    ));
    r
}

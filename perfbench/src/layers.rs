//! The traced run (`--trace 1`): the workload's job passes through every
//! layer once more, each call wrapped in a span, and the per-layer
//! metrics are read off the spans, the public reports and the service's
//! Stats RPC. End-to-end numbers never come from this run.

use std::thread;
use std::time::{Duration, Instant};

use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::session::Session;
use ck_core::dist::{decode_verdicts, encode_verdicts, JobSpec};
use ck_core::msg::CkMsg;
use ck_core::session::TesterSession;
use ck_core::tester::{test_ck_freeness, CkTester, NodeVerdict};

use crate::check::{
    check_cost, check_dist, check_drained, check_probe, check_same, check_verdicts, Checks,
};
use crate::e2e::{engine, reference};
use crate::jobs::{Job, DIST_WORKERS};
use crate::loadgen;
use crate::stats::{median, quantile};
use crate::trace::{PhaseClock, Timed, Tracer};
use crate::Report;

/// The workload's job and how the distributed pass drives it.
pub struct Plan {
    pub job: Job,
    /// Seconds spent generating `job`.
    pub build_s: f64,
    /// Distributed runs fill half of `seconds` (`dist-loopback`)
    /// instead of running once.
    pub dist_repeat: bool,
}

pub fn traced(
    plan: Plan,
    seconds: f64,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (Report, Vec<u64>) {
    let job = &plan.job;
    let (g, cfg) = (&job.graph, &job.cfg);
    let reference = reference(job, checks);

    // In-process layers: session, engine under both executors, the
    // boxed program plain and phase-timed.
    let job_span = tracer.open("job.in_process", None, 0);
    let mut par = TesterSession::from_config(*cfg, EngineConfig::default())
        .expect("workload configurations are in range");
    let first = par.test(g);
    checks.record("parallel first test", check_probe(job, &reference, "parallel", first));
    let (run, par_s) = tracer.span("session.test", Some(job_span), 0, || par.test(g));
    checks.record("parallel warm test", check_probe(job, &reference, "parallel", run));
    let slots = par.slot_stats();
    let (run, oneshot_s) = tracer.span("session.oneshot", Some(job_span), 0, || {
        test_ck_freeness(g, cfg.k, cfg.eps, cfg.seed)
    });
    checks.record("one-shot", check_probe(job, &reference, "one-shot", Ok(run)));

    let mut seq = TesterSession::from_config(*cfg, engine(Executor::Sequential)).expect("in range");
    let first = seq.test(g);
    checks.record("sequential first test", check_probe(job, &reference, "sequential", first));
    let (run, seq_s) = tracer.span("session.test_sequential", Some(job_span), 0, || seq.test(g));
    let run = run.expect("sequential run");
    let rep = &run.outcome.report;
    let node_rounds = g.n() as f64 * f64::from(rep.rounds);
    let mut r = Report::default();
    r.metric("graphgen.build_s", plan.build_s, "s");
    r.metric("session.cold_extra_s", oneshot_s - par_s, "s");
    r.metric("session.slot_miss_ratio", ratio(slots.misses, slots.takes), "ratio");
    r.metric("engine.rounds", f64::from(rep.rounds), "count");
    r.metric("engine.messages", rep.total_messages() as f64, "count");
    r.metric("engine.bits", rep.total_bits() as f64, "bit");
    r.metric("engine.max_message_bits", rep.max_message_bits() as f64, "bit");
    r.metric("engine.max_link_bits", rep.max_link_bits() as f64, "bit");
    r.metric("engine.ns_per_node_round", par_s * 1e9 / node_rounds, "ns");
    r.metric("engine.seq_s", seq_s, "s");
    r.metric("engine.par_s", par_s, "s");
    let max_sent_seqs = run.max_sent_seqs();
    checks.record("sequential warm test", check_probe(job, &reference, "sequential", Ok(run)));

    // The boxed program straight through the engine session, plain and
    // with every step timed, alternated [`TRACE_REPS`] times; each warmed
    // first, since slot arrays are kept per program type.
    let mut session = Session::<CkMsg>::builder(g).executor(Executor::Sequential).build();
    let boxed_check = |out: &ck_congest::engine::RunOutcome<NodeVerdict>| {
        check_verdicts(g, cfg.k, job.free, &out.verdicts)
            .and_then(|()| check_cost(g, cfg, &out.report))
            .and_then(|()| check_same("boxed", &reference, &out.verdicts))
    };
    let rounds = ck_core::cost::predicted_engine_rounds(cfg.k, cfg.effective_repetitions());
    let warm_clock = PhaseClock::new(cfg.k, rounds);
    session.run(|init| CkTester::new(cfg, &init)).expect("boxed warm-up");
    session.run(|init| Timed::new(CkTester::new(cfg, &init), &warm_clock)).expect("traced warm-up");
    let (mut boxed, mut traced) = (Vec::new(), Vec::new());
    let mut phase_ns = [0.0; 4];
    let mut per_round = Vec::new();
    for rep in 0..TRACE_REPS as u64 {
        let (out, s) = tracer.span("engine.run_boxed", Some(job_span), rep, || {
            session.run(|init| CkTester::new(cfg, &init))
        });
        boxed.push(s);
        checks.record("boxed run", out.map_err(|e| e.to_string()).and_then(|o| boxed_check(&o)));
        let clock = PhaseClock::new(cfg.k, rounds);
        let (out, s) = tracer.span("engine.run_traced", Some(job_span), rep, || {
            session.run(|init| Timed::new(CkTester::new(cfg, &init), &clock))
        });
        traced.push(s);
        checks.record("traced run", out.map_err(|e| e.to_string()).and_then(|o| boxed_check(&o)));
        for (acc, ns) in phase_ns.iter_mut().zip(clock.per_phase()) {
            *acc += ns as f64 / TRACE_REPS as f64;
        }
        per_round = clock.per_round();
    }
    tracer.close(job_span);

    // Phase and self times are means over the traced runs, so they add
    // up to the mean traced wall time.
    let traced_mean_s = traced.iter().sum::<f64>() / TRACE_REPS as f64;
    let step_ns: f64 = phase_ns.iter().sum();
    r.metric("engine.self_ns", (traced_mean_s * 1e9 - step_ns) / node_rounds, "ns");
    for (name, ns) in PHASE_METRICS.into_iter().zip(phase_ns) {
        r.metric(name, ns / node_rounds, "ns");
    }
    r.metric("tester.forward_decide_frac", (phase_ns[2] + phase_ns[3]) / step_ns, "ratio");
    r.metric("tester.max_sent_seqs", max_sent_seqs as f64, "count");
    let (boxed_s, traced_s) = (median(&boxed), median(&traced));
    r.metric("trace.boxed_s", boxed_s, "s");
    r.metric("trace.traced_s", traced_s, "s");
    r.metric("trace.overhead_frac", (traced_s - boxed_s) / boxed_s, "ratio");

    serve_pass(job, &reference, checks, tracer, &mut r);
    dist_pass(&plan, &reference, seq_s, seconds, checks, tracer, &mut r);
    (r, per_round)
}

/// Plain and phase-timed boxed runs of the traced pass; the trace
/// timings are their medians.
const TRACE_REPS: usize = 3;

/// Step time per node-round of each tester phase, in the order of
/// [`PhaseClock::per_phase`].
const PHASE_METRICS: [&str; 4] =
    ["tester.rank_ns", "tester.seed_ns", "tester.forward_ns", "tester.decide_ns"];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Submits of the workload's job the serve pass sends in one burst:
/// four per worker, so jobs queue behind the busy workers.
const SERVE_BURST: usize = 8;

/// Idle-reclaim time of the serve pass's service. The pass waits twice
/// this long after the burst, so every worker that ran a job reclaims
/// its session once.
const SERVE_IDLE_RECLAIM_MS: u64 = 500;

/// The serve layer: one warm-up job, then a burst of submits with the
/// Stats RPC polled for the queue depth, an idle pause for the reclaim
/// count, and the codec timed from outside.
fn serve_pass(
    job: &Job,
    reference: &[NodeVerdict],
    checks: &mut Checks,
    tracer: &mut Tracer,
    r: &mut Report,
) {
    let svc = loadgen::start(SERVE_IDLE_RECLAIM_MS);
    loadgen::warm_up(&svc, job);
    let burst_span = tracer.open("serve.burst", None, 0);
    let out = loadgen::burst(&svc, job, reference, SERVE_BURST, checks);
    tracer.close(burst_span);
    thread::sleep(Duration::from_millis(2 * SERVE_IDLE_RECLAIM_MS));
    let stats = svc.stats();
    checks.record("drain", check_drained(&svc.stop()));

    let (mut exec, mut overhead, mut late) = (Vec::new(), Vec::new(), Vec::new());
    for (i, rec) in out.records.iter().enumerate() {
        if let (Some(recv), Ok(wall_us)) = (rec.recv, &rec.outcome) {
            tracer.record("serve.submit_to_result", rec.sent, recv, Some(burst_span), i as u64);
            let exec_ms = *wall_us as f64 / 1e3;
            exec.push(exec_ms);
            overhead.push(recv.duration_since(rec.sent).as_secs_f64() * 1e3 - exec_ms);
            late.push(rec.sent.duration_since(out.due).as_secs_f64() * 1e3);
        }
    }
    let (codec_us, codec_kib) =
        loadgen::codec_cost(job, reference, SERVE_BURST, tracer, burst_span);

    r.metric("serve.exec_p50_ms", quantile(&exec, 0.5), "ms");
    r.metric("serve.exec_p99_ms", quantile(&exec, 0.99), "ms");
    r.metric("serve.overhead_p50_ms", quantile(&overhead, 0.5), "ms");
    r.metric("serve.overhead_p99_ms", quantile(&overhead, 0.99), "ms");
    r.metric("serve.codec_us_per_kb", codec_us / codec_kib, "us/KiB");
    r.metric("serve.slot_miss_ratio", ratio(stats.slot_misses, stats.slot_takes), "ratio");
    r.metric("serve.sessions_reclaimed", stats.sessions_reclaimed as f64, "count");
    r.metric("serve.peak_queue_depth", f64::from(out.peak_queue), "count");
    r.metric("loadgen.late_p99_ms", quantile(&late, 0.99), "ms");
}

/// The distributed layer: spawn-to-verdict against the same job in
/// process, the transport's counters, and the dist codecs.
fn dist_pass(
    plan: &Plan,
    reference: &[NodeVerdict],
    seq_s: f64,
    seconds: f64,
    checks: &mut Checks,
    tracer: &mut Tracer,
    r: &mut Report,
) {
    let job = &plan.job;
    let mut session = TesterSession::builder(job.cfg.k, job.cfg.eps)
        .seed(job.cfg.seed)
        .distributed(DIST_WORKERS)
        .build()
        .expect("workload configurations are in range");
    let mut walls = Vec::new();
    let mut net = None;
    let start = Instant::now();
    let dist_span = tracer.open("dist", None, 0);
    loop {
        let (run, s) = tracer
            .span("dist.test", Some(dist_span), walls.len() as u64, || session.test(&job.graph));
        walls.push(s);
        if let Ok(run) = &run {
            net = run.outcome.report.net.clone();
        }
        checks.record("distributed test", check_dist(job, reference, run));
        if !plan.dist_repeat || start.elapsed().as_secs_f64() > seconds / 2.0 {
            break;
        }
    }
    let net = net.unwrap_or_default();

    let spec = JobSpec {
        graph: job.graph.clone(),
        cfg: job.cfg,
        engine: EngineConfig {
            max_rounds: ck_core::cost::predicted_engine_rounds(
                job.cfg.k,
                job.cfg.effective_repetitions(),
            ),
            executor: Executor::Distributed { workers: DIST_WORKERS },
            ..EngineConfig::default()
        },
        workers: u32::from(DIST_WORKERS),
        worker: 0,
        abort_at_round: None,
        heartbeat_ms: EngineConfig::default().net.heartbeat_ms,
        round_deadline_ms: EngineConfig::default().net.round_deadline_ms,
    };
    let ((spec_back, verdicts), codec_s) = tracer.span("dist.codec", Some(dist_span), 0, || {
        (JobSpec::from_bytes(&spec.to_bytes()), decode_verdicts(&encode_verdicts(reference)))
    });
    let ok = spec_back.is_ok_and(|s| s.graph.m() == job.graph.m())
        && verdicts.is_ok_and(|v| v == reference);
    checks.record(
        "dist codec round trip",
        if ok { Ok(()) } else { Err("codec round trip differs".into()) },
    );
    tracer.close(dist_span);

    let wall = median(&walls);
    r.metric("dist.wall_s", wall, "s");
    r.metric("dist.seq_s", seq_s, "s");
    r.metric("dist.overhead_s", wall - seq_s, "s");
    r.metric("dist.codec_us", codec_s * 1e6, "us");
    r.metric("net.frames_routed", net.frames_routed as f64, "count");
    r.metric("net.frame_bytes", net.frame_bytes as f64, "byte");
    r.metric("net.barriers", net.barriers as f64, "count");
    r.metric("net.heartbeats", net.heartbeats as f64, "count");
}

//! The client side of the serve pass: one burst of `Submit`s of the
//! workload's job sent back to back on one connection, the `Result`s
//! read as they stream back and each checked against the sequential
//! reference, while a second connection polls the Stats RPC for the
//! queue depth. Every submit is due when the burst starts, so latency
//! charges each job the time it queued behind the others.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ck_congest::net::frame::{Deadline, FrameError, FrameKind, FrameReader};
use ck_congest::net::link::SharedWriter;
use ck_core::tester::NodeVerdict;
use ck_serve::rpc::{decode_serve_body, encode_serve_body, read_serve_frame};
use ck_serve::{
    BoundServer, JobRequest, JobResult, JobVerdict, ServeClient, ServeMsg, ServeOptions,
    ServerHandle, StatsSnapshot,
};

use crate::check::{check_same, check_verdicts, Checks};
use crate::jobs::Job;
use crate::trace::Tracer;

/// How long the reader waits for results after the burst is sent.
const DRAIN_S: f64 = 60.0;

/// A running service with the address clients dial.
pub struct Service {
    handle: ServerHandle,
    pub addr: String,
}

/// Starts `ckserve` with the default options (two warm workers) except
/// for the idle-reclaim time.
pub fn start(idle_reclaim_ms: u64) -> Service {
    let opts = ServeOptions { idle_reclaim_ms, ..ServeOptions::default() };
    let bound = BoundServer::bind(opts).expect("bind a loopback port");
    let addr = bound.addr().to_string();
    Service { handle: bound.spawn(), addr }
}

impl Service {
    /// Drains and stops the service; returns its final counters.
    pub fn stop(self) -> StatsSnapshot {
        let mut client = ServeClient::connect(&self.addr, 10_000).expect("connect for shutdown");
        client.shutdown().expect("shutdown acknowledged");
        self.handle.join()
    }

    /// A fresh counter snapshot over its own connection.
    pub fn stats(&self) -> StatsSnapshot {
        ServeClient::connect(&self.addr, 10_000).and_then(|mut c| c.stats()).expect("stats RPC")
    }
}

/// The wire form of a job.
pub fn request(job: &Job, job_id: u64) -> JobRequest {
    JobRequest {
        job_id,
        graph: job.graph.clone(),
        k: job.cfg.k as u32,
        eps: job.cfg.eps,
        seed: job.cfg.seed,
        repetitions: job.cfg.repetitions,
    }
}

/// Runs `job` once and waits for it, so one pool session is warm.
pub fn warm_up(svc: &Service, job: &Job) {
    let mut client = ServeClient::connect(&svc.addr, 60_000).expect("connect for warm-up");
    let res = client.run_job(&request(job, 0)).expect("warm-up job answered");
    res.outcome.expect("warm-up job served");
}

/// One submit of the burst as the client saw it.
pub struct Record {
    pub sent: Instant,
    pub recv: Option<Instant>,
    /// Service-side execution time on success; the failure otherwise.
    pub outcome: Result<u64, String>,
}

/// Everything one burst measured.
pub struct BurstOut {
    /// When the burst started: every submit's due time.
    pub due: Instant,
    pub records: Vec<Record>,
    /// Largest queue depth the Stats poller saw.
    pub peak_queue: u32,
}

/// Sends `count` submits of `job` back to back, then reads every result
/// and checks it against `reference` and the job's input checks; every
/// submit is one checked operation.
pub fn burst(
    svc: &Service,
    job: &Job,
    reference: &[NodeVerdict],
    count: usize,
    checks: &mut Checks,
) -> BurstOut {
    let stream = TcpStream::connect(&svc.addr).expect("connect the load generator");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = stream.try_clone().expect("clone the client socket");
    reader.set_read_timeout(Some(Duration::from_millis(20))).expect("set a read timeout");
    let writer = SharedWriter::new(stream);
    let done = AtomicBool::new(false);
    let mut recv: Vec<Option<(Instant, Result<u64, String>)>> = (0..count).map(|_| None).collect();

    let (due, sent, peak_queue) = thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut client = ServeClient::connect(&svc.addr, 10_000).expect("stats client");
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                if let Ok(snap) = client.stats() {
                    peak = peak.max(snap.queue_depth);
                }
                thread::sleep(Duration::from_millis(2));
            }
            peak
        });

        let mut msg = ServeMsg::Submit(request(job, 0));
        let due = Instant::now();
        let mut sent = Vec::with_capacity(count);
        for i in 0..count {
            if let ServeMsg::Submit(req) = &mut msg {
                req.job_id = i as u64;
            }
            let body = encode_serve_body(&msg).expect("encode a Submit");
            let t = Instant::now();
            if writer.send(FrameKind::Serve, &body).is_err() {
                break;
            }
            sent.push(t);
        }

        let mut frames = FrameReader::new();
        let mut received = 0;
        let give_up = Instant::now() + Duration::from_secs_f64(DRAIN_S);
        while received < sent.len() && Instant::now() < give_up {
            match read_serve_frame(&mut frames, &mut reader, &Deadline::after_ms(50)) {
                Ok(Some(ServeMsg::Result(JobResult { job_id, outcome }))) => {
                    let t = Instant::now();
                    let Some(slot) = recv.get_mut(job_id as usize).filter(|s| s.is_none()) else {
                        continue;
                    };
                    *slot = Some((t, judge(job, reference, outcome)));
                    received += 1;
                }
                Ok(_) | Err(FrameError::TimedOut) => {}
                Err(_) => break,
            }
        }
        done.store(true, Ordering::SeqCst);
        (due, sent, poller.join().expect("stats poller thread"))
    });

    let records: Vec<Record> = sent
        .iter()
        .zip(&mut recv)
        .map(|(&sent, slot)| match slot.take() {
            Some((t, outcome)) => Record { sent, recv: Some(t), outcome },
            None => Record { sent, recv: None, outcome: Err("no result".to_string()) },
        })
        .collect();
    for i in 0..count {
        let outcome = match records.get(i) {
            Some(r) => r.outcome.as_ref().map(|_| ()).map_err(Clone::clone),
            None => Err("submit not sent".to_string()),
        };
        checks.record("serve job", outcome);
    }
    BurstOut { due, records, peak_queue }
}

/// Checks one served result against its job and the sequential
/// reference; returns the service-side execution time.
fn judge(
    job: &Job,
    reference: &[NodeVerdict],
    outcome: Result<JobVerdict, ck_serve::ServeError>,
) -> Result<u64, String> {
    let v = outcome.map_err(|e| format!("refused: {e}"))?;
    check_verdicts(&job.graph, job.cfg.k, job.free, &v.verdicts)?;
    check_same("serve", reference, &v.verdicts)?;
    if v.reject != v.verdicts.iter().any(|x| x.rejected) {
        return Err("network verdict disagrees with the node verdicts".to_string());
    }
    Ok(v.wall_us)
}

/// Codec cost from outside: `encode_serve_body` + `decode_serve_body`
/// of the job's Submit and of its Result, `reps` times each. Returns
/// (microseconds, KiB).
pub fn codec_cost(
    job: &Job,
    reference: &[NodeVerdict],
    reps: usize,
    tracer: &mut Tracer,
    parent: usize,
) -> (f64, f64) {
    let result = ServeMsg::Result(JobResult {
        job_id: 0,
        outcome: Ok(JobVerdict {
            reject: reference.iter().any(|v| v.rejected),
            wall_us: 1,
            verdicts: reference.to_vec(),
        }),
    });
    let msgs = [ServeMsg::Submit(request(job, 0)), result];
    let (mut us, mut kib) = (0.0, 0.0);
    for rep in 0..reps {
        for msg in &msgs {
            let (bytes, secs) = tracer.span("serve.codec", Some(parent), rep as u64, || {
                let body = encode_serve_body(msg).expect("encode");
                decode_serve_body(&body).expect("decode what was encoded");
                body.len()
            });
            us += secs * 1e6;
            kib += bytes as f64 / 1024.0;
        }
    }
    (us, kib)
}

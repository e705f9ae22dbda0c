//! Scale study: tester wall-time and simulator throughput vs network
//! size.
//!
//! ```text
//! cargo run -p ck-bench --release --bin scale            # default sweep
//! cargo run -p ck-bench --release --bin scale -- 200000  # up to n = 200k
//! ```

use ck_congest::engine::EngineConfig;
use ck_core::session::TesterSession;
use ck_core::tester::TesterConfig;
use ck_graphgen::planted::cycle_chain;
use std::time::Instant;

fn main() {
    let max_n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let k = 5usize;
    let reps = 8u32;
    println!("Ck tester scale study: k={k}, {reps} repetitions per run\n");
    println!("       n |        m | wall ms | node-steps/s | messages | verdict");
    println!("---------+----------+---------+--------------+----------+--------");
    let mut n = 1000usize;
    while n <= max_n {
        let inst = cycle_chain(n / k, k);
        let cfg = TesterConfig { repetitions: Some(reps), ..TesterConfig::new(k, 0.1, 42) };
        let mut session =
            TesterSession::from_config(cfg, EngineConfig::default()).expect("valid config");
        let start = Instant::now();
        let run = session.test(&inst.graph).expect("engine run");
        let wall = start.elapsed();
        let steps = inst.graph.n() as u64 * u64::from(run.outcome.report.rounds);
        let rate = steps as f64 / wall.as_secs_f64();
        println!(
            "{:8} | {:8} | {:7.1} | {:12.0} | {:8} | {}",
            inst.graph.n(),
            inst.graph.m(),
            wall.as_secs_f64() * 1e3,
            rate,
            run.outcome.report.total_messages(),
            if run.reject { "reject" } else { "accept" },
        );
        assert!(run.reject, "a chain of C{k}s must be rejected");
        n *= 10;
    }
}

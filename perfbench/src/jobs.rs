//! The workloads' inputs, all generated from `--seed` through the
//! public `ck_graphgen` generators. `--toy` shrinks every size for the
//! self-check; the shapes stay the same.

use ck_congest::graph::Graph;
use ck_core::tester::TesterConfig;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use ck_graphgen::random::gnp;

/// A graph with the tester parameters to run on it. `free` marks a
/// `Ck`-free input, which the tester must never reject.
pub struct Job {
    pub graph: Graph,
    pub cfg: TesterConfig,
    pub free: bool,
}

/// The `ε` every probe and distributed job runs at.
pub const EPS: f64 = 0.5;

/// `probe-c4-free`: C4 on a C4-free cactus of C5 blocks, the accept
/// path that runs the full schedule with one sequence per message.
/// 10^4 nodes keep the working set inside a 2 MiB L2 and a warm test
/// near a quarter second, so one window holds dozens of samples.
pub fn probe_c4_free(seed: u64, toy: bool) -> Job {
    let n = if toy { 2_000 } else { 10_000 };
    Job { graph: matched_free_instance(n, 4), cfg: TesterConfig::new(4, EPS, seed), free: true }
}

/// `probe-c8-dense`: C8 on G(n, p) with average degree 20, the reject
/// path with up to 15 sequences per message.
pub fn probe_c8_dense(seed: u64, toy: bool) -> Job {
    let (n, p) = if toy { (300, 0.02) } else { (4_000, 0.005) };
    Job { graph: gnp(n, p, seed), cfg: TesterConfig::new(8, EPS, seed), free: false }
}

/// `dist-loopback`: C5 on an instance certifiably 0.1-far from
/// C5-free, run over two loopback-TCP workers. A distributed test waits
/// out a heartbeat period when it stops its links; 500 nodes keep the
/// work well below one period, so no run spills into a second one.
pub fn dist_job(seed: u64, toy: bool) -> Job {
    let n = if toy { 200 } else { 500 };
    Job {
        graph: eps_far_instance(n, 5, 0.1, seed).graph,
        cfg: TesterConfig::new(5, EPS, seed),
        free: false,
    }
}

/// Distributed worker count of `dist-loopback`.
pub const DIST_WORKERS: u16 = 2;

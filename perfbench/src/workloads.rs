//! The three workloads. Each builds the same 1024 × 2 cluster and drives
//! it with one closed-loop client; they differ in data size, op mix and
//! how much membership work they do.

use crate::cluster::{roster, Client, Cluster, SNODES};
use domus_core::{SnodeId, VnodeId};
use domus_util::{DomusRng, Xoshiro256pp};
use std::time::Instant;

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// KV operations per block; `ops_per_s` is the median block throughput.
const BLOCK: usize = 1024;
/// In a traced run one KV block in this many is traced; the others give
/// the untraced rate the tracing overhead is measured against.
const TRACE_EVERY: usize = 32;
/// Timed batches in the standalone WAL append probe.
const WAL_BATCHES: usize = 200;

/// Derives an independent seed for one purpose from the run's seed.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) ranks over `n` keys by inverting the CDF; rank 0 is hottest.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn draw(&self, rng: &mut impl DomusRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[derive(Clone, Copy)]
enum Kv {
    Get(usize),
    Put(usize),
    Remove(usize),
}

/// Runs one block of KV operations and records its throughput. Returns
/// the block's wall time in seconds.
fn run_block(cl: &mut Client, c: &mut Cluster, ops: &[Kv], traced: bool) -> f64 {
    cl.tr.set_active(traced);
    let t = Instant::now();
    for &op in ops {
        match op {
            Kv::Get(i) => cl.get(c, i),
            Kv::Put(i) => cl.put(c, i),
            Kv::Remove(i) => cl.remove(c, i),
        }
    }
    let secs = t.elapsed().as_secs_f64();
    cl.tr.set_active(false);
    let rate = ops.len() as f64 / secs;
    if traced {
        cl.m.traced_blocks.push(rate);
    } else {
        cl.m.blocks.push(rate);
    }
    secs
}

fn traced_block(cfg: &Cfg, block: usize) -> bool {
    cfg.trace && block.is_multiple_of(TRACE_EVERY)
}

fn random_snode(rng: &mut impl DomusRng, c: &Cluster) -> SnodeId {
    loop {
        let s = SnodeId(rng.next_below(u64::from(SNODES)) as u32);
        if !c.crashed.contains(&s) && !c.vnodes_of(s).is_empty() {
            return s;
        }
    }
}

/// `serve-zipf`: a static cluster serving 200k keys × 128 B, 95 % routed
/// quorum gets on a pinned snapshot and 5 % puts, keys drawn Zipf(0.99).
/// The run is split into three episodes on freshly built clusters, so
/// setup is measured three times.
pub fn serve_zipf(cfg: &Cfg) -> Client {
    const KEYS: usize = 200_000;
    const VALUE: usize = 128;
    const EPISODES: u64 = 3;
    let mut cl = Client::new(crate::cluster::make_keys(KEYS), VALUE, cfg.trace);
    let zipf = Zipf::new(KEYS, 0.99);
    let mut rng = Xoshiro256pp::seed_from_u64(derive(cfg.seed, 1));
    let mut ops = Vec::with_capacity(BLOCK);
    let mut block = 0;
    for _ in 0..EPISODES {
        let mut c = cl.setup(false);
        let wal_base = c.wal_appended();
        let budget = cfg.seconds / EPISODES as f64;
        let mut spent = 0.0;
        while spent < budget {
            ops.clear();
            for _ in 0..BLOCK {
                let k = zipf.draw(&mut rng);
                ops.push(if rng.next_below(100) < 95 { Kv::Get(k) } else { Kv::Put(k) });
            }
            spent += run_block(&mut cl, &mut c, &ops, traced_block(cfg, block));
            block += 1;
        }
        cl.m.wal_bytes += c.wal_appended() - wal_base;
        cl.verify(&c);
    }
    cl.wal_probe(WAL_BATCHES);
    cl
}

#[derive(Clone, Copy)]
enum Member {
    Join,
    Leave,
    Crash,
    Rejoin,
}

/// One window of the churn script: ten joins and ten leaves, alternating,
/// with a crash in the middle and the crashed snode's rejoin at the end.
const WINDOW: usize = 22;

fn window_op(pos: usize) -> Member {
    match pos {
        10 => Member::Crash,
        21 => Member::Rejoin,
        p if (p < 10) == (p % 2 == 0) => Member::Join,
        _ => Member::Leave,
    }
}

/// A live vnode whose snode hosts at least two, so leaves never empty a
/// snode.
fn leave_victim(rng: &mut impl DomusRng, c: &Cluster) -> Option<VnodeId> {
    let r = roster(c.store.engine());
    let mut per_snode = vec![0u32; SNODES as usize];
    for &(_, s) in &r {
        per_snode[s.0 as usize] += 1;
    }
    let candidates: Vec<VnodeId> =
        r.iter().filter(|&&(_, s)| per_snode[s.0 as usize] >= 2).map(|&(v, _)| v).collect();
    (!candidates.is_empty()).then(|| candidates[rng.index(candidates.len())])
}

/// `churn-rebalance`: the same cluster with 10k keys × 128 B under
/// heterogeneous membership churn. Each op is followed by one router
/// tick and a burst of 128 uniform routed gets and 32 puts on the client's
/// (possibly stale) pin. The run covers at least ten windows (100 joins,
/// 100 leaves, 10 crashes and 10 rejoins) and at least `seconds`.
pub fn churn_rebalance(cfg: &Cfg) -> Client {
    const KEYS: usize = 10_000;
    const VALUE: usize = 128;
    const MIN_WINDOWS: usize = 10;
    const BURST: usize = 160;
    const SETUPS: usize = 5;
    let mut cl = Client::new(crate::cluster::make_keys(KEYS), VALUE, cfg.trace);
    let mut c = cl.setup(true);
    for _ in 1..SETUPS {
        drop(c);
        c = cl.setup(true);
    }
    let mut rng = Xoshiro256pp::seed_from_u64(derive(cfg.seed, 2));
    // Join targets are drawn in proportion to a capacity of 1, 2 or 4.
    let mut cum = Vec::with_capacity(SNODES as usize);
    let mut total = 0u64;
    for _ in 0..SNODES {
        total += [1, 2, 4][rng.index(3)];
        cum.push(total);
    }
    let wal_base = c.wal_appended();
    let start = Instant::now();
    let mut windows = 0;
    while windows < MIN_WINDOWS || start.elapsed().as_secs_f64() < cfg.seconds {
        for pos in 0..WINDOW {
            // Whole windows are traced alternately, so traced and
            // untraced cycles run the same op mix.
            let traced = cfg.trace && windows.is_multiple_of(2);
            cl.tr.set_active(traced);
            let t = Instant::now();
            let mut ops = 1;
            match window_op(pos) {
                Member::Join => {
                    let s = loop {
                        let x = rng.next_below(total);
                        let s = SnodeId(cum.partition_point(|&w| w <= x) as u32);
                        if !c.crashed.contains(&s) {
                            break s;
                        }
                    };
                    cl.join(&mut c, s);
                }
                Member::Leave => match leave_victim(&mut rng, &c) {
                    Some(v) => cl.leave(&mut c, v),
                    None => ops = 0,
                },
                Member::Crash => {
                    let s = random_snode(&mut rng, &c);
                    cl.recover(&mut c, s);
                }
                Member::Rejoin => match c.crashed.first() {
                    Some(&s) => cl.rejoin(&mut c, s),
                    None => ops = 0,
                },
            }
            ops += cl.tick(&mut c);
            for b in 0..BURST {
                let k = rng.index(KEYS);
                if b % 5 == 4 {
                    cl.put(&mut c, k);
                } else {
                    cl.get(&mut c, k);
                }
            }
            let rate = (ops + BURST as u64) as f64 / t.elapsed().as_secs_f64();
            if traced {
                cl.m.traced_blocks.push(rate);
            } else {
                cl.m.blocks.push(rate);
            }
            cl.tr.set_active(false);
        }
        windows += 1;
    }
    cl.m.wal_bytes += c.wal_appended() - wal_base;
    cl.verify(&c);
    cl.wal_probe(WAL_BATCHES);
    cl
}

/// `write-durable`: the same cluster with 50k keys × 1 KiB under a
/// uniform 70/28/2 put/get/remove mix. Each episode starts from a fresh
/// cluster, runs ~25k ops, one crash → repair → rejoin cycle, and ~25k
/// more ops; episodes repeat until `seconds` of op time have passed.
pub fn write_durable(cfg: &Cfg) -> Client {
    const KEYS: usize = 50_000;
    const VALUE: usize = 1024;
    const HALF_BLOCKS: usize = 25;
    const MIN_SETUPS: usize = 3;
    let mut cl = Client::new(crate::cluster::make_keys(KEYS), VALUE, cfg.trace);
    let mut rng = Xoshiro256pp::seed_from_u64(derive(cfg.seed, 3));
    let mut ops = Vec::with_capacity(BLOCK);
    let mut spent = 0.0;
    let mut block = 0;
    while spent < cfg.seconds {
        let mut c = cl.setup(false);
        let wal_base = c.wal_appended();
        for half in 0..2 {
            for _ in 0..HALF_BLOCKS {
                ops.clear();
                for _ in 0..BLOCK {
                    let k = rng.index(KEYS);
                    ops.push(match rng.next_below(100) {
                        0..=69 => Kv::Put(k),
                        70..=97 => Kv::Get(k),
                        _ => Kv::Remove(k),
                    });
                }
                spent += run_block(&mut cl, &mut c, &ops, traced_block(cfg, block));
                block += 1;
            }
            if half == 0 {
                let victim = random_snode(&mut rng, &c);
                cl.tr.set_active(cfg.trace);
                let t = Instant::now();
                cl.recover(&mut c, victim);
                cl.rejoin(&mut c, victim);
                spent += t.elapsed().as_secs_f64();
                cl.tr.set_active(false);
            }
        }
        cl.m.wal_bytes += c.wal_appended() - wal_base;
        cl.verify(&c);
    }
    // Setup is timed at least three times even when the episodes were
    // fewer; the extra clusters are dropped unused.
    while cl.m.setup_s.len() < MIN_SETUPS {
        drop(cl.setup(false));
    }
    cl.wal_probe(WAL_BATCHES);
    cl
}

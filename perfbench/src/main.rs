//! The repository benchmark.
//!
//! A single-threaded, closed-loop client drives `LocalDht` (paper
//! configuration, 1024 snodes × 2 vnodes) under a `ReplicatedStore` at
//! R = 2 through the crates' public functions, checks every result, and
//! prints every metric by name and unit. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics derived from spans. See `README.md` for the workloads and what
//! each metric should move.
//!
//! ```text
//! domus-perfbench --workload <serve-zipf|churn-rebalance|write-durable>
//!                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```

mod cluster;
mod stats;
mod trace;
mod workloads;

use cluster::{Client, WAL_BATCH};
use stats::{median, quantile, supports, tail_quantile, Hist};
use std::process::ExitCode;
use trace::root_self_times;
use workloads::Cfg;

const USAGE: &str = "usage: domus-perfbench --workload <serve-zipf|churn-rebalance|write-durable> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

/// Largest share of a traced membership op's span that its layer spans
/// may leave uncovered.
const MAX_UNATTRIBUTED_PCT: f64 = 2.0;

struct Args {
    workload: String,
    cfg: Cfg,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        trace_out,
    })
}

/// Selects one of the client's latency histograms.
type HistOf = fn(&mut Client) -> &mut Hist;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `q` quantile of a latency in `scale` ns per unit; a quantile the
/// sample count does not support fails the run.
fn pct(cl: &mut Client, h: HistOf, name: &str, q: f64, scale: f64) -> f64 {
    let n = h(cl).len();
    cl.m.tally.op(supports(n, q), || format!("{name}: {n} samples cannot support p{}", q * 100.0));
    h(cl).quantile_ns(q) / scale
}

/// Optional per-layer latency: zero when the workload never ran the op.
fn opt_pct(cl: &mut Client, h: HistOf, name: &str, q: f64, scale: f64) -> f64 {
    if h(cl).len() == 0 {
        0.0
    } else {
        pct(cl, h, name, q, scale)
    }
}

fn end_to_end(cl: &mut Client) -> Vec<Metric> {
    vec![
        metric("get_p50_us", pct(cl, |c| &mut c.m.get, "get", 0.5, 1e3), "us"),
        metric("get_p99_us", pct(cl, |c| &mut c.m.get, "get", 0.99, 1e3), "us"),
        metric("put_p50_us", pct(cl, |c| &mut c.m.put, "put", 0.5, 1e3), "us"),
        metric("put_p99_us", pct(cl, |c| &mut c.m.put, "put", 0.99, 1e3), "us"),
        metric("ops_per_s", median(&cl.m.blocks), "1/s"),
        metric("balance_relstd_pct", median(&cl.m.balance_pct), "%"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("setup_s", median(&cl.m.setup_s), "s"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(cl: &mut Client) -> Vec<Metric> {
    let tr = &cl.tr;
    let med = |name: &str| median(&tr.durations(name));
    // kv self time of a read: the store call minus the hashing and
    // replica-chain steps timed on their own in the same op.
    let probe: Vec<f64> = tr
        .roots("op.get")
        .into_iter()
        .filter_map(|(_, kids)| {
            let d = |n: &str| kids.iter().find(|&&(k, _)| k == n).map(|&(_, d)| d);
            Some((d("kv.get")? - d("hashspace.point")? - d("serve.replicas")?).max(0.0))
        })
        .collect();
    // kv self time of a join or leave: the store call minus the same
    // engine call replayed on the shadow.
    let mut rebuild = Vec::new();
    for (kv, core) in [("kv.join", "core.create"), ("kv.leave", "core.remove")] {
        let shadow = tr.by_op(core);
        for s in tr.spans().iter().filter(|s| s.name == kv) {
            if let Some(&c) = shadow.get(&s.op) {
                rebuild.push((s.dur_ns() - c).max(0.0));
            }
        }
    }
    let mut span_ns = 0.0;
    let mut loose_ns = 0.0;
    for root in ["op.join", "op.leave", "op.recover", "op.rejoin"] {
        for (dur, loose) in root_self_times(tr, root) {
            span_ns += dur;
            loose_ns += loose;
        }
    }
    let unattributed_pct = 100.0 * ratio(loose_ns, span_ns);
    let untraced = median(&cl.m.blocks);
    let overhead_pct = 100.0 * ratio(untraced - median(&cl.m.traced_blocks), untraced);
    let m = &cl.m;
    let member_ops = m.kv_member_ops as f64;
    let mut out = vec![
        metric("hashspace.point_ns", med("hashspace.point"), "ns"),
        metric("serve.replicas_ns", med("serve.replicas"), "ns"),
        metric("serve.publish_us", med("serve.publish") / 1e3, "us"),
        metric(
            "serve.stale_retries_per_read",
            ratio(m.stale_retries as f64, m.reads as f64),
            "ratio",
        ),
        metric("kv.probe_ns", median(&probe), "ns"),
        metric("kv.rebuild_ms", median(&rebuild) / 1e6, "ms"),
        metric("kv.ranges_per_op", ratio(m.kv_ranges as f64, member_ops), "count"),
        metric("kv.bytes_shipped_per_op", ratio(m.kv_bytes_shipped as f64, member_ops), "B"),
        metric("kv.repair_ms", med("kv.repair") / 1e6, "ms"),
        metric(
            "kv.repair_useful_ratio",
            ratio(m.repair_shipped as f64, m.repair_full as f64),
            "ratio",
        ),
        metric("kv.copies", m.copies as f64, "count"),
        metric("kv.keys_lost", m.keys_lost as f64, "count"),
        metric("core.create_us", med("core.create") / 1e3, "us"),
        metric("core.remove_us", med("core.remove") / 1e3, "us"),
        metric("core.fail_us", med("core.fail") / 1e3, "us"),
        metric("core.rejoin_us", med("core.rejoin") / 1e3, "us"),
        metric("core.transfers_per_op", ratio(m.core_transfers as f64, m.core_ops as f64), "count"),
        metric("core.successor_walk_ns", med("core.successor_walk"), "ns"),
        metric("wal.append_ns", med("wal.append_batch") / WAL_BATCH as f64, "ns"),
        metric("wal.bytes_per_user_byte", ratio(m.wal_bytes as f64, m.user_bytes as f64), "ratio"),
        metric("wal.segments", m.wal_segments as f64, "count"),
        metric("wal.records_per_rejoin", ratio(m.rejoin_records as f64, m.rejoins as f64), "count"),
        metric("wal.replay_bytes_per_rejoin", ratio(m.rejoin_bytes as f64, m.rejoins as f64), "B"),
        metric(
            "wal.replay_useful_ratio",
            ratio(m.rejoin_recovered as f64, m.rejoin_records as f64),
            "ratio",
        ),
        metric("wal.torn", m.torn as f64, "count"),
        metric("route.tick_us", med("route.tick") / 1e3, "us"),
        metric("route.actions_per_tick", ratio(m.route_actions as f64, m.ticks as f64), "count"),
        metric("route.lease_violations", m.lease_violations as f64, "count"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("trace.unattributed_pct", unattributed_pct, "%"),
    ];
    cl.m.tally.op(unattributed_pct <= MAX_UNATTRIBUTED_PCT, || {
        format!("layer spans leave {unattributed_pct:.2}% of membership spans unattributed")
    });
    out.extend([
        metric("join_p50_ms", opt_pct(cl, |c| &mut c.m.join, "join", 0.5, 1e6), "ms"),
        metric("join_p90_ms", opt_pct(cl, |c| &mut c.m.join, "join", 0.9, 1e6), "ms"),
        metric("leave_p50_ms", opt_pct(cl, |c| &mut c.m.leave, "leave", 0.5, 1e6), "ms"),
        metric("leave_p90_ms", opt_pct(cl, |c| &mut c.m.leave, "leave", 0.9, 1e6), "ms"),
        metric("recover_p50_ms", opt_pct(cl, |c| &mut c.m.recover, "recover", 0.5, 1e6), "ms"),
        metric("rejoin_p50_ms", opt_pct(cl, |c| &mut c.m.rejoin, "rejoin", 0.5, 1e6), "ms"),
        metric("remove_p50_us", opt_pct(cl, |c| &mut c.m.remove, "remove", 0.5, 1e3), "us"),
        metric("failed_op_frac", cl.m.tally.failed_frac(), "ratio"),
    ]);
    out
}

/// Human-readable lines: every timing as p50 and the highest percentile
/// with at least ten samples beyond it, with the sample count.
fn timing_report(cl: &mut Client) {
    let rows: [(&str, HistOf, f64, &str); 7] = [
        ("get", |c| &mut c.m.get, 1e3, "us"),
        ("put", |c| &mut c.m.put, 1e3, "us"),
        ("remove", |c| &mut c.m.remove, 1e3, "us"),
        ("join", |c| &mut c.m.join, 1e6, "ms"),
        ("leave", |c| &mut c.m.leave, 1e6, "ms"),
        ("recover", |c| &mut c.m.recover, 1e6, "ms"),
        ("rejoin", |c| &mut c.m.rejoin, 1e6, "ms"),
    ];
    for (name, h, scale, unit) in rows {
        let h = h(cl);
        let n = h.len();
        if n == 0 {
            continue;
        }
        let p50 = h.quantile_ns(0.5) / scale;
        match tail_quantile(n) {
            Some(q) => println!(
                "timing {name:8} n={n:<9} p50={p50:.4} {unit}  p{}={:.4} {unit}",
                q * 100.0,
                h.quantile_ns(q) / scale
            ),
            None => println!(
                "timing {name:8} n={n:<9} p50={p50:.4} {unit}  (too few samples for a tail)"
            ),
        }
    }
    let blocks = &cl.m.blocks;
    println!(
        "blocks n={} ops/s quartiles {:.0} / {:.0} / {:.0}",
        blocks.len(),
        quantile(blocks, 0.25),
        quantile(blocks, 0.5),
        quantile(blocks, 0.75)
    );
}

fn json_line(cl: &Client, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        cl.m.tally.attempted,
        cl.m.tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut cl = match args.workload.as_str() {
        "serve-zipf" => workloads::serve_zipf(&args.cfg),
        "churn-rebalance" => workloads::churn_rebalance(&args.cfg),
        "write-durable" => workloads::write_durable(&args.cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.cfg.trace {
        if let Some(path) = &args.trace_out {
            if let Err(e) = cl.tr.write(path) {
                eprintln!("cannot write spans to {path}: {e}");
                return ExitCode::from(1);
            }
        }
        per_layer(&mut cl)
    } else {
        end_to_end(&mut cl)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            cl.m.tally.op(false, || format!("{} is not finite", m.name));
        }
    }
    timing_report(&mut cl);
    for m in &metrics {
        println!("metric {:32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &cl.m.tally.errors {
        println!("FAILED: {e}");
    }
    let correct = cl.m.tally.correct();
    let clean: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric { value: if m.value.is_finite() { m.value } else { 0.0 }, ..m })
        .collect();
    println!("{}", json_line(&cl, correct, &clean));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

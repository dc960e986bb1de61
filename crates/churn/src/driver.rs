//! The replay engine: an [`EventStream`] driven into any [`DhtEngine`].
//!
//! [`ChurnDriver`] replays membership events through the streaming
//! operation surface: every engine operation runs with `domus-sim`'s
//! [`domus_sim::EventPricer`] as its sink (tapped through the KV store's
//! in-line migration when the overlay is active), so pricing, transfer
//! counting and data migration all happen *while the event executes* —
//! no per-event report is ever materialised, and the hot path performs
//! zero per-event report allocations. Per fixed simulated-time window
//! the driver samples [`BalanceSnapshot`]s into per-window rows. With
//! the optional KV overlay the run also measures data-plane effects:
//! entries migrated per event, lookup correctness of a probe set, and a
//! per-window *availability* figure — the fraction of probe keys whose
//! owning vnode did **not** change during the window (an owner change
//! mid-window is a request that would have hit a node mid-migration).
//!
//! Replay is rank- and tag-based (see [`crate::event`]), so the identical
//! stream drives the global approach, the local approach and Consistent
//! Hashing through the same decisions — cross-backend outputs differ only
//! by what the engines themselves do.
//!
//! ## The routing control plane
//!
//! With [`ChurnDriver::with_router`] a [`domus_route::Router`] rides the
//! replay: every join grants a lease, every window close runs one
//! deterministic [`domus_route::Router::tick`] on the sim clock, and the
//! tick's decisions execute through the ordinary membership machinery —
//! a lapsed lease (a silently stalled snode,
//! [`crate::event::EventKind::StallRank`]) fails over exactly like a
//! crash, and a capacity-weighted hot spot
//! ([`crate::event::EventKind::DegradeRank`]) sheds vnodes toward the
//! coldest peer until the imbalance is bounded again. A deterministic
//! 64-point probe routes through a client [`domus_route::RouteCache`] at
//! every window close, so the per-window CSV carries the route version,
//! the cache hit/stale ratio, live/expired lease counts, executed
//! failovers and hot-spot moves — all byte-deterministic (the control
//! plane runs on simulated time, not wall time).
//!
//! ## The concurrent serving plane
//!
//! With [`ChurnDriver::with_readers`] the replay becomes a two-plane
//! system: the driver thread applies membership events (the mutation
//! plane) while `n` reader threads resolve lookups/gets against pinned
//! [`EngineSnapshot`]s (the serving plane). Every membership operation
//! tees its rebalance events into a [`SnapshotBuilder`] and publishes the
//! next epoch into a shared [`SnapshotCell`] *before* the operation's
//! store lock is released, so a reader that settles at the current epoch
//! can trust a miss. Readers are paced closed-loop clients (a burst of
//! reads per pinned snapshot, then a fixed pause), so aggregate offered
//! load scales with the reader count and per-window reads/sec, latency
//! quantiles and the stale-route rate land in the CHURN CSVs. Without
//! readers the replay is byte-for-byte the single-threaded hot path —
//! the new CSV columns emit deterministic zeros.

use crate::event::{ChurnEvent, EventKind, EventStream, NodeTag};
use domus_core::{
    BalanceSnapshot, DhtEngine, EngineSnapshot, SnapshotBuilder, SnapshotCell, SnodeId, Tee,
    VnodeId,
};
use domus_kv::workload::value_of;
use domus_kv::{KvService, KvStore, ReplicatedStore, UniformKeys};
use domus_metrics::Series;
use domus_route::{RouteAction, RouteCache, Router, RouterConfig};
use domus_sim::{ClusterNet, CostModel, EventCost, EventPricer, SimTime};
use parking_lot::RwLock;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads issued per pinned snapshot in one reader-thread burst.
const READ_BURST: usize = 64;
/// Pause between bursts: readers are paced clients, so the serving plane
/// measures sustained offered load (which scales with the reader count),
/// not how fast one core can spin on an uncontended path.
const READ_PACE: Duration = Duration::from_millis(1);
/// Latency histogram buckets: bucket `i` holds nanosecond readings in
/// `[2^(i-1), 2^i)` (bucket 0 is the zero reading).
const LAT_BUCKETS: usize = 65;

/// Replay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Network model used to price protocol traffic.
    pub net: ClusterNet,
    /// CPU/transfer cost model.
    pub cost: CostModel,
    /// Sampling cadence: one [`WindowSample`] per `window` of simulated
    /// time.
    pub window: SimTime,
    /// Maximum number of probe keys the KV overlay tracks for
    /// availability/correctness (ignored without the overlay).
    pub probes: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            net: ClusterNet::default(),
            cost: CostModel::default(),
            window: SimTime::millis(30_000),
            probes: 256,
        }
    }
}

/// Per-window accumulator (reset at every window boundary).
#[derive(Debug, Clone, Copy, Default)]
struct WindowAcc {
    events: u64,
    joins: u64,
    leaves: u64,
    crashes: u64,
    skipped: u64,
    transfers: u64,
    messages: u64,
    bytes: u64,
    service_ns: u64,
    entries_migrated: u64,
    keys_lost: u64,
    failovers: u64,
    route_moves: u64,
    rejoins: u64,
    wal_replay_ns: u64,
    repair_bytes: u64,
}

impl WindowAcc {
    fn absorb(&mut self, cost: EventCost) {
        self.messages += cost.messages;
        self.bytes += cost.bytes;
        self.service_ns += cost.duration.nanos();
    }
}

/// Shared read-plane counters every reader thread increments (relaxed —
/// they are statistics, not synchronisation).
struct ReadStats {
    reads: AtomicU64,
    stale_retries: AtomicU64,
    errors: AtomicU64,
    hist: [AtomicU64; LAT_BUCKETS],
}

impl ReadStats {
    fn new() -> Self {
        Self {
            reads: AtomicU64::new(0),
            stale_retries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, nanos: u64, retries: u32, error: bool) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if retries > 0 {
            self.stale_retries.fetch_add(retries as u64, Ordering::Relaxed);
        }
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = 64 - nanos.leading_zeros() as usize;
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> ReadCounters {
        ReadCounters {
            reads: self.reads.load(Ordering::Relaxed),
            stale_retries: self.stale_retries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// A plain copy of [`ReadStats`], used for window deltas and quantiles.
#[derive(Clone, Copy)]
struct ReadCounters {
    reads: u64,
    stale_retries: u64,
    errors: u64,
    hist: [u64; LAT_BUCKETS],
}

impl ReadCounters {
    fn zero() -> Self {
        Self { reads: 0, stale_retries: 0, errors: 0, hist: [0; LAT_BUCKETS] }
    }

    fn since(&self, prev: &Self) -> Self {
        Self {
            reads: self.reads - prev.reads,
            stale_retries: self.stale_retries - prev.stale_retries,
            errors: self.errors - prev.errors,
            hist: std::array::from_fn(|i| self.hist[i] - prev.hist[i]),
        }
    }

    /// The latency quantile `q` in nanoseconds — the midpoint of the
    /// log-scale bucket where the cumulative count crosses `q`.
    fn quantile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.hist.iter().enumerate() {
            cum += c;
            if cum >= target {
                if i == 0 {
                    return 0;
                }
                let lo = 1u128 << (i - 1);
                let hi = 1u128 << i;
                return ((lo + hi) / 2) as u64;
            }
        }
        0
    }

    fn window(&self, wall: Duration) -> ReadWindow {
        let secs = wall.as_secs_f64();
        ReadWindow {
            reads: self.reads,
            reads_per_sec: if secs > 0.0 { self.reads as f64 / secs } else { 0.0 },
            p50_ns: self.quantile_ns(0.50),
            p99_ns: self.quantile_ns(0.99),
            stale_rate: if self.reads > 0 {
                self.stale_retries as f64 / self.reads as f64
            } else {
                0.0
            },
            errors: self.errors,
        }
    }
}

/// Read-plane counters at the last window boundary (wall clock — the
/// serving plane runs in real time, unlike the simulated event clock).
struct ReadMark {
    at: Instant,
    counters: ReadCounters,
}

/// The read-plane figures of one window (all zero when readers are off —
/// the CSV stays byte-deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ReadWindow {
    reads: u64,
    reads_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    stale_rate: f64,
    errors: u64,
}

/// The control-plane figures of one window (all zero without a router —
/// the CSV stays byte-deterministic either way, since the router runs on
/// simulated time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RouteWindow {
    version: u64,
    cache_hit_rate: f64,
    cache_stale: u64,
    leases_live: u64,
    leases_expired: u64,
    hot_snodes: u64,
}

/// One observation window of a churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Window index (0-based).
    pub index: usize,
    /// Window end, simulated time.
    pub end: SimTime,
    /// Membership events replayed in the window.
    pub events: u64,
    /// Vnodes created.
    pub joins: u64,
    /// Vnodes removed.
    pub leaves: u64,
    /// Membership operations that could not be applied: a departure of an
    /// already-gone node or a failure on an empty roster count one each;
    /// the keep-one-vnode guard counts one per guarded removal.
    pub skipped: u64,
    /// Partition transfers across all events.
    pub transfers: u64,
    /// Priced protocol messages.
    pub messages: u64,
    /// Priced wire bytes.
    pub bytes: u64,
    /// Priced service time (sum of event durations).
    pub service: SimTime,
    /// KV entries migrated (0 without an overlay; replica copies moved or
    /// minted with the replicated overlay).
    pub entries_migrated: u64,
    /// Ungraceful snode crashes absorbed in the window.
    pub crashes: u64,
    /// Balance/shape snapshot at the window end.
    pub balance: BalanceSnapshot,
    /// Fraction of probe keys whose owner did not change in the window
    /// (1.0 without the overlay or before data is loaded).
    pub availability: f64,
    /// Probe keys that failed to read back at the window end (must stay 0
    /// — a nonzero value is a routing/migration bug; crash-lost keys are
    /// pruned from the probe set as they are accounted in `keys_lost`).
    pub lost_lookups: u64,
    /// Keys whose last replica was destroyed by crashes in this window —
    /// the per-window durability numerator (0 without the replicated
    /// overlay).
    pub keys_lost: u64,
    /// Distinct live keys at the window end — the durability denominator
    /// (0 without any overlay; the plain KV overlay reports its entry
    /// count, which graceful churn never changes).
    pub keys_total: u64,
    /// Fraction of probe keys readable at majority quorum at the window
    /// end, *before* the end-of-window repair pass (1.0 without the
    /// replicated overlay).
    pub quorum_availability: f64,
    /// Replica copies placed by the anti-entropy repair that runs at this
    /// window's close (0 without the replicated overlay).
    pub repaired: u64,
    /// Serving-plane reads completed in the window (0 without readers).
    pub reads: u64,
    /// Serving-plane read throughput over the window's wall time (0.0
    /// without readers).
    pub reads_per_sec: f64,
    /// Median read latency in nanoseconds (0 without readers).
    pub read_p50_ns: u64,
    /// 99th-percentile read latency in nanoseconds (0 without readers).
    pub read_p99_ns: u64,
    /// Stale-route retries per read: the fraction of reads that had to
    /// re-pin the snapshot because an epoch was published mid-flight
    /// (0.0 without readers).
    pub stale_rate: f64,
    /// Reads that settled at the current epoch and still missed — must
    /// stay 0 whenever the overlay is loss-free (0 without readers).
    pub read_errors: u64,
    /// The shard-map version at the window end — the serving-plane epoch
    /// the window's route probe pinned (0 without a router).
    pub route_version: u64,
    /// Hit rate of the window's deterministic 64-point cache probe:
    /// `1 − stale_reads/reads` (0.0 without a router).
    pub cache_hit_rate: f64,
    /// Cache refreshes the probe needed — at most one per published
    /// epoch, the ≤1-round repair contract (0 without a router).
    pub cache_stale: u64,
    /// Live leases at the window end (0 without a router).
    pub leases_live: u64,
    /// Leases that lapsed at this window's tick (0 without a router).
    pub leases_expired: u64,
    /// Lease-expiry failovers *executed* in this window (0 without a
    /// router).
    pub failovers: u64,
    /// Snodes over the hot threshold at this window's tick (0 without a
    /// router).
    pub hot_snodes: u64,
    /// Hot-spot vnode moves executed in this window (0 without a
    /// router).
    pub route_moves: u64,
    /// Crashed snodes that rejoined by replaying their write-ahead log
    /// in this window (0 without the replicated overlay).
    pub rejoins: u64,
    /// Wall time spent replaying write-ahead logs during this window's
    /// rejoins, in nanoseconds (0 without rejoins — the column stays
    /// deterministic on rejoin-free streams).
    pub wal_replay_ns: u64,
    /// Bytes shipped by digest-driven anti-entropy this window (rejoin
    /// rebuilds plus the window-close repair pass; 0 without the
    /// replicated overlay).
    pub repair_bytes: u64,
    /// Consecutive windows (including this one) the cluster has been
    /// below full quorum availability — 0 whenever every probe key is
    /// quorum-readable, so the value at the last degraded window of an
    /// episode is that episode's time-to-full-quorum.
    pub quorum_gap_windows: u64,
}

/// Whole-run aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals {
    /// Events replayed.
    pub events: u64,
    /// Vnodes created.
    pub joins: u64,
    /// Vnodes removed.
    pub leaves: u64,
    /// Membership operations that could not be applied (see
    /// [`WindowSample::skipped`]).
    pub skipped: u64,
    /// Total partition transfers.
    pub transfers: u64,
    /// Total priced messages.
    pub messages: u64,
    /// Total priced bytes.
    pub bytes: u64,
    /// Total priced service time.
    pub service: SimTime,
    /// Total KV entries migrated.
    pub entries_migrated: u64,
    /// Total ungraceful snode crashes absorbed.
    pub crashes: u64,
    /// Unweighted mean of per-window availability.
    pub mean_availability: f64,
    /// Total probe read failures (must be 0).
    pub lost_lookups: u64,
    /// Total keys lost to crashes (0 at full replication with isolated
    /// failures; the durability headline of CHURN-REPL).
    pub keys_lost: u64,
    /// Unweighted mean of per-window quorum availability.
    pub mean_quorum_availability: f64,
    /// Total replica copies placed by end-of-window repairs.
    pub repaired: u64,
    /// Serving-plane reads completed over the whole run (0 without
    /// readers).
    pub reads: u64,
    /// Whole-run read throughput (reads over replay wall time; 0.0
    /// without readers).
    pub reads_per_sec: f64,
    /// Whole-run median read latency in nanoseconds.
    pub read_p50_ns: u64,
    /// Whole-run 99th-percentile read latency in nanoseconds.
    pub read_p99_ns: u64,
    /// Whole-run stale-route retries per read.
    pub stale_rate: f64,
    /// Total settled-epoch read misses (must be 0 on a loss-free
    /// overlay).
    pub read_errors: u64,
    /// Total leases that lapsed (0 without a router).
    pub leases_expired: u64,
    /// Total lease-expiry failovers executed (0 without a router).
    pub failovers: u64,
    /// Total hot-spot vnode moves executed (0 without a router).
    pub route_moves: u64,
    /// Windows with at least one hot snode (0 without a router).
    pub hot_windows: u64,
    /// Whole-run hit rate of the per-window cache probes (1.0 without a
    /// router — nothing was ever stale).
    pub cache_hit_rate: f64,
    /// The longest hot episode in windows, from onset to rebalanced
    /// under the threshold; an episode still open at the horizon counts
    /// as ongoing. The convergence figure the CI gate bounds (0 without
    /// a router).
    pub route_convergence: u64,
    /// `false` iff a hot episode was still open at the horizon (always
    /// `true` without a router).
    pub route_converged: bool,
    /// Windows where the lease table disagreed with the authoritative
    /// roster — lease safety demands 0 (and 0 without a router).
    pub lease_violations: u64,
    /// Crashed snodes that came back by replaying their write-ahead log
    /// (0 without [`crate::event::EventKind::RejoinRank`] events).
    pub rejoins: u64,
    /// Total wall time spent replaying write-ahead logs on rejoin, in
    /// milliseconds (0.0 without rejoins).
    pub wal_replay_ms: f64,
    /// Total bytes shipped by digest-driven anti-entropy — the figure
    /// the full-rebuild baseline is compared against (0 without the
    /// replicated overlay).
    pub repair_bytes: u64,
    /// Entry bytes a digest-less full rebuild of the same ranges would
    /// have shipped — the baseline [`RunTotals::repair_bytes`] is
    /// measured against (0 without the replicated overlay).
    pub repair_bytes_full: u64,
    /// The longest stretch of consecutive windows below full quorum
    /// availability, from first degradation back to full quorum — the
    /// time-to-full-quorum headline (an episode still open at the
    /// horizon counts at its current length).
    pub time_to_full_quorum_windows: u64,
}

/// The finished result of one churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Per-window rows, in time order.
    pub samples: Vec<WindowSample>,
    /// Balance snapshot at the horizon.
    pub final_balance: BalanceSnapshot,
    /// Whole-run totals.
    pub totals: RunTotals,
}

impl ChurnOutcome {
    /// The CSV header of [`ChurnOutcome::write_csv`].
    pub const CSV_HEADER: [&'static str; 41] = [
        "window",
        "t_ms",
        "events",
        "joins",
        "leaves",
        "crashes",
        "skipped",
        "vnodes",
        "groups",
        "snodes",
        "balance_vnode_pct",
        "balance_snode_pct",
        "peak_over_ideal",
        "transfers",
        "messages",
        "bytes",
        "service_ns",
        "entries_migrated",
        "availability",
        "lost_lookups",
        "keys_total",
        "keys_lost",
        "quorum_availability",
        "repaired",
        "reads",
        "reads_per_sec",
        "read_p50_ns",
        "read_p99_ns",
        "stale_rate",
        "read_errors",
        "route_version",
        "cache_hit_rate",
        "cache_stale",
        "leases_live",
        "leases_expired",
        "failovers",
        "hot_snodes",
        "route_moves",
        "wal_replay_ms",
        "repair_bytes",
        "quorum_gap_windows",
    ];

    /// Writes the per-window rows as CSV. The formatting is fixed-point,
    /// so two identical runs emit byte-identical files — the determinism
    /// contract the CHURN experiment asserts.
    pub fn write_csv<W: Write>(&self, w: W) -> io::Result<()> {
        let rows = self.samples.iter().map(|s| {
            vec![
                s.index.to_string(),
                format!("{:.3}", s.end.as_millis_f64()),
                s.events.to_string(),
                s.joins.to_string(),
                s.leaves.to_string(),
                s.crashes.to_string(),
                s.skipped.to_string(),
                s.balance.vnodes.to_string(),
                s.balance.groups.to_string(),
                s.balance.snodes.to_string(),
                format!("{:.4}", s.balance.vnode_relstd_pct),
                format!("{:.4}", s.balance.snode_relstd_pct),
                format!("{:.4}", s.balance.max_quota_over_ideal),
                s.transfers.to_string(),
                s.messages.to_string(),
                s.bytes.to_string(),
                s.service.nanos().to_string(),
                s.entries_migrated.to_string(),
                format!("{:.4}", s.availability),
                s.lost_lookups.to_string(),
                s.keys_total.to_string(),
                s.keys_lost.to_string(),
                format!("{:.4}", s.quorum_availability),
                s.repaired.to_string(),
                s.reads.to_string(),
                format!("{:.1}", s.reads_per_sec),
                s.read_p50_ns.to_string(),
                s.read_p99_ns.to_string(),
                format!("{:.4}", s.stale_rate),
                s.read_errors.to_string(),
                s.route_version.to_string(),
                format!("{:.4}", s.cache_hit_rate),
                s.cache_stale.to_string(),
                s.leases_live.to_string(),
                s.leases_expired.to_string(),
                s.failovers.to_string(),
                s.hot_snodes.to_string(),
                s.route_moves.to_string(),
                format!("{:.3}", s.wal_replay_ns as f64 / 1e6),
                s.repair_bytes.to_string(),
                s.quorum_gap_windows.to_string(),
            ]
        });
        domus_metrics::csv::write_rows(w, &Self::CSV_HEADER, rows)
    }

    /// The CSV as a string (convenience for tests and comparisons).
    pub fn csv_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("CSV is ASCII")
    }

    /// Extracts a named time series `(t_ms, pick(window))` for plotting.
    pub fn series(&self, name: impl Into<String>, pick: impl Fn(&WindowSample) -> f64) -> Series {
        Series::new(
            name,
            self.samples.iter().map(|s| s.end.as_millis_f64()).collect(),
            self.samples.iter().map(pick).collect(),
        )
    }
}

/// What the driver drives: the bare engine, the engine threaded through a
/// [`KvService`] so every membership event migrates real data, or a
/// [`ReplicatedStore`] so crashes destroy data and durability is measured.
enum Plant<E: DhtEngine> {
    Bare(E),
    Kv(KvService<E>),
    Repl(Arc<RwLock<ReplicatedStore<E>>>),
}

/// What a serving-plane reader thread resolves reads against.
enum ReadTarget<E: DhtEngine> {
    /// Routing-plane only: resolve random points on the pinned snapshot.
    Routing,
    Kv(KvService<E>),
    Repl(Arc<RwLock<ReplicatedStore<E>>>),
}

impl<E: DhtEngine> Clone for ReadTarget<E> {
    fn clone(&self) -> Self {
        match self {
            Self::Routing => Self::Routing,
            Self::Kv(svc) => Self::Kv(svc.clone()),
            Self::Repl(store) => Self::Repl(Arc::clone(store)),
        }
    }
}

/// Replays an [`EventStream`] into one engine, pricing and sampling.
pub struct ChurnDriver<E: DhtEngine> {
    plant: Plant<E>,
    cfg: DriverConfig,
    /// The streaming pricing sink every operation runs through (scratch
    /// reused across events — the hot path allocates nothing per event).
    pricer: EventPricer,
    /// Live vnodes in creation order, tagged by their arrival.
    roster: Vec<(NodeTag, VnodeId)>,
    clock: SimTime,
    next_window_end: SimTime,
    acc: WindowAcc,
    samples: Vec<WindowSample>,
    /// KV overlay: population to load at the first join.
    pending_load: Option<(u64, usize)>,
    /// Probe keys and their owner at the last window boundary.
    probe_keys: Vec<String>,
    probe_owner: Vec<Option<VnodeId>>,
    /// The published routing view readers (and the window probe) pin.
    /// The KV plant's [`KvService`] maintains its own cell; this one
    /// serves the bare/replicated plants.
    serve: Arc<SnapshotCell>,
    /// Incremental view maintenance for the bare/replicated plants,
    /// tee'd into every operation when readers are on.
    builder: SnapshotBuilder,
    /// The control plane ([`ChurnDriver::with_router`]): leases, silent-
    /// failure failover and hot-spot scheduling, ticked per window.
    router: Option<Router>,
    /// The deterministic client cache the per-window route probe routes
    /// through (present iff the router is).
    route_cache: Option<RouteCache>,
    /// Windows whose lease table disagreed with the roster (must stay 0).
    lease_violations: u64,
    /// Crashed snodes eligible to rejoin, with the vnode count each held
    /// at crash time — the deterministic roster
    /// [`EventKind::RejoinRank`] rank-selects from (shared across
    /// engines, like the live roster).
    crashed: Vec<(NodeTag, u32)>,
    /// Entry bytes a digest-less full rebuild would have shipped, run
    /// total (the denominator of the anti-entropy savings figure).
    repair_bytes_full: u64,
    /// Consecutive windows below full quorum availability, so far.
    quorum_gap: u64,
    /// The longest *closed* below-quorum episode, in windows.
    worst_quorum_gap: u64,
    /// Serving-plane reader threads ([`ChurnDriver::with_readers`]).
    readers: usize,
    /// Reads per pinned snapshot in one reader burst.
    read_burst: usize,
    /// Pause between reader bursts (the closed-loop pacing).
    read_pace: Duration,
    /// Optional pause after each replayed event in reader mode —
    /// stretches replay wall time so read metrics cover a steady window.
    writer_pace: Duration,
    read_stats: Arc<ReadStats>,
    /// Raised once the KV population is loaded; readers issue
    /// routing-only probes until then.
    loaded: Arc<AtomicBool>,
    read_mark: ReadMark,
    run_started: Option<Instant>,
}

impl<E: DhtEngine> ChurnDriver<E> {
    /// A control-plane-only driver (no data moves, pricing + balance
    /// sampling only) — the bench hot path.
    pub fn new(engine: E, cfg: DriverConfig) -> Self {
        Self::build(Plant::Bare(engine), cfg, None)
    }

    /// A driver with the KV overlay: `entries` uniform keys with
    /// `value_len`-byte values are loaded at the first join, then every
    /// event migrates real data and the probe set measures availability.
    pub fn with_kv(engine: E, cfg: DriverConfig, entries: u64, value_len: usize) -> Self {
        assert!(entries > 0, "KV overlay needs a key population");
        Self::build(
            Plant::Kv(KvService::new(KvStore::new(engine))),
            cfg,
            Some((entries, value_len)),
        )
    }

    /// A driver with the **replicated** overlay at replication factor
    /// `replication`: crashes ([`EventKind::Crash`]/[`EventKind::CrashRank`])
    /// destroy the failed snode's replicas instead of migrating them, each
    /// window samples durability (`keys_lost` / `keys_total`) and
    /// quorum-read availability, and an anti-entropy repair pass runs at
    /// every window close.
    pub fn with_replication(
        engine: E,
        cfg: DriverConfig,
        entries: u64,
        value_len: usize,
        replication: usize,
    ) -> Self {
        assert!(entries > 0, "replicated overlay needs a key population");
        Self::build(
            Plant::Repl(Arc::new(RwLock::new(ReplicatedStore::new(engine, replication)))),
            cfg,
            Some((entries, value_len)),
        )
    }

    fn build(plant: Plant<E>, cfg: DriverConfig, pending_load: Option<(u64, usize)>) -> Self {
        assert!(cfg.window > SimTime::ZERO, "sampling window must be positive");
        let builder = match &plant {
            Plant::Bare(e) => SnapshotBuilder::from_engine(e),
            Plant::Kv(svc) => svc.with_read(|s| SnapshotBuilder::from_engine(s.engine())),
            Plant::Repl(store) => SnapshotBuilder::from_engine(store.read().engine()),
        };
        let serve = Arc::new(SnapshotCell::new(builder.snapshot()));
        Self {
            plant,
            cfg,
            pricer: EventPricer::new(cfg.net, cfg.cost),
            roster: Vec::new(),
            clock: SimTime::ZERO,
            next_window_end: cfg.window,
            acc: WindowAcc::default(),
            samples: Vec::new(),
            pending_load,
            probe_keys: Vec::new(),
            probe_owner: Vec::new(),
            serve,
            builder,
            router: None,
            route_cache: None,
            lease_violations: 0,
            crashed: Vec::new(),
            repair_bytes_full: 0,
            quorum_gap: 0,
            worst_quorum_gap: 0,
            readers: 0,
            read_burst: READ_BURST,
            read_pace: READ_PACE,
            writer_pace: Duration::ZERO,
            read_stats: Arc::new(ReadStats::new()),
            loaded: Arc::new(AtomicBool::new(false)),
            read_mark: ReadMark { at: Instant::now(), counters: ReadCounters::zero() },
            run_started: None,
        }
    }

    /// Turns on the serving plane: `n` reader threads hammer
    /// lookups/gets against pinned snapshots while the replay mutates.
    /// Readers are paced closed-loop clients (a 64-read burst per
    /// pinned snapshot, then a 1 ms pause, by default), so per-window
    /// reads/sec measures sustained offered load scaling with `n`.
    /// Read metrics are wall-clock figures — a run with readers trades
    /// the byte-identical-CSV determinism contract for them.
    pub fn with_readers(mut self, n: usize) -> Self {
        self.readers = n;
        self
    }

    /// Attaches the routing & failover control plane: every join grants
    /// a lease, every window close runs one deterministic
    /// [`Router::tick`], and the tick's decisions — lease-expiry
    /// failovers and hot-spot moves — execute through the same
    /// membership machinery the event stream drives. Unlocks
    /// [`crate::event::EventKind::StallRank`] and
    /// [`crate::event::EventKind::DegradeRank`] (skipped without a
    /// router) and fills the `route_*`/`lease*`/`failover` CSV columns.
    /// Fully deterministic: the control plane runs on simulated time.
    pub fn with_router(mut self, cfg: RouterConfig) -> Self {
        let cell = Arc::clone(self.serve_cell());
        self.router = Some(Router::new(cfg));
        self.route_cache = Some(RouteCache::new(cell));
        self
    }

    /// Overrides the reader pacing profile: `burst` reads per pinned
    /// snapshot, then a `pace` pause. Lower offered load per reader keeps
    /// aggregate throughput linear in the reader count on small machines.
    pub fn with_reader_pacing(mut self, burst: usize, pace: Duration) -> Self {
        assert!(burst > 0, "a reader burst must issue at least one read");
        self.read_burst = burst;
        self.read_pace = pace;
        self
    }

    /// Pauses the replay thread for `pace` after every event in reader
    /// mode — a load-bench knob that stretches replay wall time so read
    /// windows sample a steady state (ignored without readers).
    pub fn with_writer_pace(mut self, pace: Duration) -> Self {
        self.writer_pace = pace;
        self
    }

    /// Read access to the engine regardless of the overlay.
    pub fn with_engine<T>(&self, f: impl FnOnce(&E) -> T) -> T {
        match &self.plant {
            Plant::Bare(e) => f(e),
            Plant::Kv(svc) => svc.with_read(|s| f(s.engine())),
            Plant::Repl(store) => f(store.read().engine()),
        }
    }

    /// The KV service handle, when the plain overlay is active.
    pub fn kv(&self) -> Option<&KvService<E>> {
        match &self.plant {
            Plant::Kv(svc) => Some(svc),
            _ => None,
        }
    }

    /// Read access to the replicated store, when that overlay is active.
    pub fn with_replicated<T>(&self, f: impl FnOnce(&ReplicatedStore<E>) -> T) -> Option<T> {
        match &self.plant {
            Plant::Repl(store) => Some(f(&store.read())),
            _ => None,
        }
    }

    /// The serving-plane cell readers pin snapshots from.
    pub fn serve_cell(&self) -> &Arc<SnapshotCell> {
        match &self.plant {
            Plant::Kv(svc) => svc.serve(),
            _ => &self.serve,
        }
    }

    fn read_target(&self) -> ReadTarget<E> {
        match &self.plant {
            Plant::Bare(_) => ReadTarget::Routing,
            Plant::Kv(svc) => ReadTarget::Kv(svc.clone()),
            Plant::Repl(store) => ReadTarget::Repl(Arc::clone(store)),
        }
    }

    /// Live vnodes currently tracked by the replay roster.
    pub fn live(&self) -> usize {
        self.roster.len()
    }

    /// The control plane's lifetime view, when a router is attached.
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// `true` when the serving cell must be published per operation:
    /// readers pin it concurrently, and the router's window tick judges
    /// loads (and the route probe routes) on it.
    fn serves_live(&self) -> bool {
        self.readers > 0 || self.router.is_some()
    }

    /// Whether a membership op tees its events into the snapshot builder
    /// and publishes the next epoch itself: with readers or a router on,
    /// the bare and replicated plants do (the KV service publishes its
    /// own). The replicated plant publishes *before* its write lock is
    /// released, so a reader's miss at the current epoch is a genuine
    /// absence — each op hands its guard out of the plant match and
    /// drops it only after the publish.
    fn publishes(&self) -> bool {
        self.serves_live() && !matches!(self.plant, Plant::Kv(_))
    }

    /// Replays one event (time must be nondecreasing across calls).
    pub fn step(&mut self, event: &ChurnEvent) {
        self.advance_to(event.at);
        match event.kind {
            EventKind::Join { node, vnodes } => {
                // The arrival's enrollment is its *declared capacity* —
                // the fixed basis hot-spot decisions weigh against
                // (later moves shrink its quota, not its capacity).
                if let Some(r) = &mut self.router {
                    r.note_capacity(SnodeId(node.0), vnodes.max(1));
                }
                for _ in 0..vnodes.max(1) {
                    self.create_one(node);
                }
            }
            EventKind::Leave { node } => {
                let victims: Vec<VnodeId> =
                    self.roster.iter().filter(|(t, _)| *t == node).map(|&(_, v)| v).collect();
                if victims.is_empty() {
                    self.acc.skipped += 1; // already gone (e.g. a failure took it)
                }
                self.remove_all(victims);
            }
            EventKind::FailSlice { fraction_ppm, draw } => {
                let live = self.roster.len();
                if live == 0 {
                    self.acc.skipped += 1;
                } else {
                    let n = ((live as u64 * fraction_ppm as u64) / 1_000_000).max(1) as usize;
                    let start = (draw % live as u64) as usize;
                    let victims: Vec<VnodeId> =
                        (0..n.min(live)).map(|i| self.roster[(start + i) % live].1).collect();
                    self.remove_all(victims);
                }
            }
            EventKind::Crash { node } => self.crash_tag(node, false),
            EventKind::CrashRank { draw } => {
                if self.roster.is_empty() {
                    self.acc.skipped += 1;
                } else {
                    let tag = self.roster[(draw % self.roster.len() as u64) as usize].0;
                    self.crash_tag(tag, false);
                }
            }
            EventKind::StallRank { draw } => {
                // A silent stall performs no engine operation — the only
                // signal is that the victim stops renewing its leases,
                // so without a control plane the event is unobservable.
                match &mut self.router {
                    Some(router) if !self.roster.is_empty() => {
                        let tag = self.roster[(draw % self.roster.len() as u64) as usize].0;
                        router.inject_stall(SnodeId(tag.0));
                    }
                    _ => self.acc.skipped += 1,
                }
            }
            EventKind::DegradeRank { draw, factor_ppm } => match &mut self.router {
                Some(router) if !self.roster.is_empty() => {
                    let tag = self.roster[(draw % self.roster.len() as u64) as usize].0;
                    router.degrade(SnodeId(tag.0), f64::from(factor_ppm) / 1e6);
                }
                _ => self.acc.skipped += 1,
            },
            EventKind::RejoinRank { draw } => {
                if self.crashed.is_empty() {
                    self.acc.skipped += 1;
                } else {
                    let idx = (draw % self.crashed.len() as u64) as usize;
                    let (tag, vnodes) = self.crashed.remove(idx);
                    self.rejoin_tag(tag, vnodes);
                }
            }
        }
        self.acc.events += 1;
    }

    /// Closes the remaining windows through `horizon` and aggregates.
    pub fn finish(mut self, horizon: SimTime) -> ChurnOutcome {
        let horizon = horizon.max(self.clock);
        while self.next_window_end < horizon {
            let b = self.next_window_end;
            self.close_window(b);
            self.next_window_end = b + self.cfg.window;
        }
        // When the last event sat exactly on a window boundary,
        // advance_to already closed a window ending at `horizon`; only
        // emit another (same-timestamp) row if events landed after it.
        let closed_at_horizon = self.samples.last().map(|s| s.end == horizon).unwrap_or(false);
        if !closed_at_horizon || self.acc.events > 0 {
            self.close_window(horizon);
        }

        let final_balance = self.with_engine(|e| e.balance_snapshot());
        let mut totals = RunTotals {
            events: 0,
            joins: 0,
            leaves: 0,
            skipped: 0,
            transfers: 0,
            messages: 0,
            bytes: 0,
            service: SimTime::ZERO,
            entries_migrated: 0,
            crashes: 0,
            mean_availability: 1.0,
            lost_lookups: 0,
            keys_lost: 0,
            mean_quorum_availability: 1.0,
            repaired: 0,
            reads: 0,
            reads_per_sec: 0.0,
            read_p50_ns: 0,
            read_p99_ns: 0,
            stale_rate: 0.0,
            read_errors: 0,
            leases_expired: 0,
            failovers: 0,
            route_moves: 0,
            hot_windows: 0,
            cache_hit_rate: 1.0,
            route_convergence: 0,
            route_converged: true,
            lease_violations: 0,
            rejoins: 0,
            wal_replay_ms: 0.0,
            repair_bytes: 0,
            repair_bytes_full: self.repair_bytes_full,
            time_to_full_quorum_windows: self.worst_quorum_gap.max(self.quorum_gap),
        };
        if self.readers > 0 {
            let c = self.read_stats.counters();
            let wall = self.run_started.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
            let w = c.window(wall);
            totals.reads = w.reads;
            totals.reads_per_sec = w.reads_per_sec;
            totals.read_p50_ns = w.p50_ns;
            totals.read_p99_ns = w.p99_ns;
            totals.stale_rate = w.stale_rate;
            totals.read_errors = w.errors;
        }
        if let Some(router) = &self.router {
            totals.hot_windows = router.totals().hot_windows;
            totals.route_convergence = router.worst_convergence();
            totals.route_converged = !router.unconverged();
            totals.lease_violations = self.lease_violations;
            totals.cache_hit_rate = self
                .route_cache
                .as_ref()
                .expect("with_router sets the cache")
                .stats()
                .counters()
                .hit_rate();
        }
        for s in &self.samples {
            totals.events += s.events;
            totals.joins += s.joins;
            totals.leaves += s.leaves;
            totals.skipped += s.skipped;
            totals.transfers += s.transfers;
            totals.messages += s.messages;
            totals.bytes += s.bytes;
            totals.service += s.service;
            totals.entries_migrated += s.entries_migrated;
            totals.crashes += s.crashes;
            totals.lost_lookups += s.lost_lookups;
            totals.keys_lost += s.keys_lost;
            totals.repaired += s.repaired;
            totals.leases_expired += s.leases_expired;
            totals.failovers += s.failovers;
            totals.route_moves += s.route_moves;
            totals.rejoins += s.rejoins;
            totals.wal_replay_ms += s.wal_replay_ns as f64 / 1e6;
            totals.repair_bytes += s.repair_bytes;
        }
        if !self.samples.is_empty() {
            let n = self.samples.len() as f64;
            totals.mean_availability = self.samples.iter().map(|s| s.availability).sum::<f64>() / n;
            totals.mean_quorum_availability =
                self.samples.iter().map(|s| s.quorum_availability).sum::<f64>() / n;
        }
        ChurnOutcome { samples: self.samples, final_balance, totals }
    }

    /// Rolls the clock forward, closing any windows the gap crosses.
    /// Windows are left-open, right-closed `(prev, end]`: an event landing
    /// exactly on a boundary belongs to the window ending there, so a
    /// truncated stream (horizon = last event time) never produces two
    /// samples with the same timestamp.
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock, "events must be replayed in time order");
        while t > self.next_window_end {
            let b = self.next_window_end;
            self.close_window(b);
            self.next_window_end = b + self.cfg.window;
        }
        self.clock = t;
    }

    fn close_window(&mut self, end: SimTime) {
        // The control plane ticks first: its failovers and moves execute
        // inside the closing window, so the balance/probe samples below
        // see the post-action state the next window starts from.
        let route = self.route_window(end);
        let balance = self.with_engine(|e| e.balance_snapshot());
        let (availability, lost_lookups, quorum_availability) = self.probe_window();
        let read = self.read_window();
        // Anti-entropy runs at window cadence: sample the damage first
        // (the quorum figure above sees the pre-repair state), then heal.
        let (keys_total, repaired) = match &mut self.plant {
            Plant::Repl(store) => {
                // Repair fills missing copies on the chains the current
                // epoch already routes to — no republish needed.
                let mut g = store.write();
                let rep = g.repair();
                self.acc.repair_bytes += rep.bytes_shipped;
                self.repair_bytes_full += rep.bytes_full;
                (g.len(), rep.copies_placed)
            }
            Plant::Kv(svc) => (svc.len(), 0),
            Plant::Bare(_) => (0, 0),
        };
        // Time-to-full-quorum bookkeeping: a window below full quorum
        // availability extends the current gap; a fully-quorate window
        // closes the episode.
        if quorum_availability < 1.0 {
            self.quorum_gap += 1;
        } else {
            self.worst_quorum_gap = self.worst_quorum_gap.max(self.quorum_gap);
            self.quorum_gap = 0;
        }
        let acc = std::mem::take(&mut self.acc);
        self.samples.push(WindowSample {
            index: self.samples.len(),
            end,
            events: acc.events,
            joins: acc.joins,
            leaves: acc.leaves,
            crashes: acc.crashes,
            skipped: acc.skipped,
            transfers: acc.transfers,
            messages: acc.messages,
            bytes: acc.bytes,
            service: SimTime(acc.service_ns),
            entries_migrated: acc.entries_migrated,
            balance,
            availability,
            lost_lookups,
            keys_lost: acc.keys_lost,
            keys_total,
            quorum_availability,
            repaired,
            reads: read.reads,
            reads_per_sec: read.reads_per_sec,
            read_p50_ns: read.p50_ns,
            read_p99_ns: read.p99_ns,
            stale_rate: read.stale_rate,
            read_errors: read.errors,
            route_version: route.version,
            cache_hit_rate: route.cache_hit_rate,
            cache_stale: route.cache_stale,
            leases_live: route.leases_live,
            leases_expired: route.leases_expired,
            failovers: acc.failovers,
            hot_snodes: route.hot_snodes,
            route_moves: acc.route_moves,
            rejoins: acc.rejoins,
            wal_replay_ns: acc.wal_replay_ns,
            repair_bytes: acc.repair_bytes,
            quorum_gap_windows: self.quorum_gap,
        });
    }

    /// One control-plane window: tick the router on the published loads,
    /// execute its decisions through the ordinary membership machinery,
    /// verify lease safety against the roster, and sample the client
    /// cache with a deterministic 64-point probe.
    fn route_window(&mut self, end: SimTime) -> RouteWindow {
        if self.router.is_none() {
            return RouteWindow::default();
        }
        let report = {
            let loads = self.serve_cell().load().loads().to_vec();
            self.router.as_mut().expect("checked above").tick(end, &loads)
        };
        for action in &report.actions {
            match action {
                RouteAction::Failover { snode, .. } => {
                    let tag = NodeTag(snode.0);
                    let count = self.roster.iter().filter(|(t, _)| *t == tag).count();
                    if count == 0 {
                        // The leases outlived the roster (verify below
                        // would flag it) — confirm to clean the table.
                        self.router.as_mut().expect("router mode").note_fail(*snode);
                    } else if count == self.roster.len() {
                        // Failing over the whole fleet would empty the
                        // DHT: push the expiry out one TTL and retry.
                        self.router.as_mut().expect("router mode").defer(*snode, end);
                    } else {
                        self.crash_tag(tag, true);
                    }
                }
                RouteAction::MoveVnode { from, to } => {
                    // Shed the hot snode's first-enrolled vnode; grow the
                    // coldest peer by one in the same stroke so the
                    // population stays level and the load lands colder.
                    let victim = self.roster.iter().find(|(t, _)| t.0 == from.0).map(|&(_, v)| v);
                    if let Some(v) = victim {
                        let live_before = self.roster.len();
                        self.remove_one(v);
                        if self.roster.len() < live_before {
                            if let Some(t) = to {
                                self.create_one(NodeTag(t.0));
                            }
                            self.acc.route_moves += 1;
                        }
                    }
                }
            }
        }
        // Lease safety, checked against the authoritative roster every
        // single window: every live vnode exactly one lease, held by its
        // hosting snode.
        let roster: Vec<(VnodeId, SnodeId)> =
            self.roster.iter().map(|&(t, v)| (v, SnodeId(t.0))).collect();
        if self.router.as_ref().expect("router mode").verify(roster).is_err() {
            self.lease_violations += 1;
        }
        // The deterministic client-cache probe: 64 grid points through
        // the cache. At most one refresh per published epoch lands as a
        // stale read — the ≤1-round repair contract, in the CSV.
        let cache = self.route_cache.as_mut().expect("with_router sets the cache");
        let space = cache.snapshot().space();
        let before = cache.stats().counters();
        for i in 0..64u64 {
            cache.lookup(space.fold(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        let delta = cache.stats().counters().since(before);
        let router = self.router.as_ref().expect("router mode");
        RouteWindow {
            version: cache.snapshot().epoch(),
            cache_hit_rate: delta.hit_rate(),
            cache_stale: delta.stale_reads,
            leases_live: router.leases().len() as u64,
            leases_expired: report.expired,
            hot_snodes: report.hot.len() as u64,
        }
    }

    /// Re-routes the probe set **through a pinned snapshot** — the same
    /// consistent epoch a concurrent client would serve from, not the
    /// live engine: availability = unchanged-owner fraction; every probe
    /// must still read back (lookup correctness); with the replicated
    /// overlay the quorum figure counts probes readable at majority
    /// quorum.
    fn probe_window(&mut self) -> (f64, u64, f64) {
        if self.probe_keys.is_empty() {
            return (1.0, 0, 1.0);
        }
        self.refresh_serve();
        let snap = self.serve_cell().load();
        let mut changed = 0u64;
        let mut lost = 0u64;
        let mut at_quorum = 0u64;
        let owners = &mut self.probe_owner;
        let keys = &self.probe_keys;
        match &self.plant {
            Plant::Bare(_) => return (1.0, 0, 1.0),
            Plant::Kv(svc) => svc.with_read(|store| {
                for (key, prev) in keys.iter().zip(owners.iter_mut()) {
                    let now = store.route_at(&snap, key.as_bytes());
                    if store.get_at(&snap, key.as_bytes()).is_none() {
                        lost += 1;
                    }
                    at_quorum += 1;
                    if prev.is_some() && *prev != now {
                        changed += 1;
                    }
                    *prev = now;
                }
            }),
            Plant::Repl(store) => {
                let store = store.read();
                for (key, prev) in keys.iter().zip(owners.iter_mut()) {
                    let now = store.route_at(&snap, key.as_bytes());
                    let read = store.get_quorum_at(&snap, key.as_bytes());
                    if read.value.is_none() {
                        lost += 1;
                    }
                    if read.available() {
                        at_quorum += 1;
                    }
                    if prev.is_some() && *prev != now {
                        changed += 1;
                    }
                    *prev = now;
                }
            }
        }
        let n = self.probe_keys.len() as f64;
        (1.0 - changed as f64 / n, lost, at_quorum as f64 / n)
    }

    /// Brings the bare/replicated serving cell up to date in
    /// single-threaded replay (in reader mode every operation already
    /// published its epoch; the KV service always maintains its own).
    fn refresh_serve(&mut self) {
        if self.serves_live() || matches!(self.plant, Plant::Kv(_)) {
            return;
        }
        let epoch = self.samples.len() as u64 + 1;
        let snap = self.with_engine(|e| EngineSnapshot::from_engine(e, epoch));
        self.serve.publish(snap);
    }

    /// Drains the read-plane counters accumulated since the last window
    /// boundary (all-zero when readers are off).
    fn read_window(&mut self) -> ReadWindow {
        if self.readers == 0 {
            return ReadWindow::default();
        }
        let now = Instant::now();
        let cur = self.read_stats.counters();
        let delta = cur.since(&self.read_mark.counters);
        let wall = now.duration_since(self.read_mark.at);
        self.read_mark = ReadMark { at: now, counters: cur };
        delta.window(wall)
    }

    fn create_one(&mut self, node: NodeTag) {
        let snode = SnodeId(node.0);
        self.pricer.begin();
        let publish = self.publishes();
        let mut sink = Tee(publish.then_some(&mut self.builder), &mut self.pricer);
        let (v, entries_moved, lock) = match &mut self.plant {
            Plant::Bare(e) => {
                let out =
                    e.create_vnode_with(snode, &mut sink).expect("churn replay: create failed");
                (out.vnode, 0, None)
            }
            Plant::Kv(svc) => {
                let (out, m) =
                    svc.join_with(snode, &mut sink).expect("churn replay: create failed");
                (out.vnode, m.entries, None)
            }
            Plant::Repl(store) => {
                let mut g = store.write();
                let (out, rep) =
                    g.join_with(snode, &mut sink).expect("churn replay: create failed");
                (out.vnode, rep.copies_placed, Some(g))
            }
        };
        if publish {
            self.builder.note_create(v, snode);
            self.builder.publish(&self.serve);
        }
        drop(lock);
        self.load_kv_if_pending();
        let (record_len, participants) = self.record_shape_of(v);
        let cost = self.pricer.finish_create(record_len, participants);
        self.acc.absorb(cost);
        self.acc.transfers += self.pricer.transfers();
        self.acc.entries_migrated += entries_moved;
        self.acc.joins += 1;
        self.roster.push((node, v));
        if let Some(r) = &mut self.router {
            r.note_join(v, snode, self.clock);
        }
    }

    /// Removes `victims` in order, patching not-yet-removed handles when a
    /// removal internally migrates (renames) a surviving vnode.
    fn remove_all(&mut self, mut victims: Vec<VnodeId>) {
        while !victims.is_empty() {
            let v = victims.remove(0);
            if let Some((old, new)) = self.remove_one(v) {
                for pending in &mut victims {
                    if *pending == old {
                        *pending = new;
                    }
                }
            }
        }
    }

    /// Removes one vnode; returns the rename a group-merge migration
    /// applied to a *surviving* vnode, if any.
    fn remove_one(&mut self, v: VnodeId) -> Option<(VnodeId, VnodeId)> {
        if self.roster.len() <= 1 {
            // The model has no representation for an empty DHT; a real
            // deployment would be down. Count it instead of crashing —
            // the guard is state-parallel, so every engine skips alike.
            self.acc.skipped += 1;
            return None;
        }
        self.pricer.begin();
        let publish = self.publishes();
        let mut sink = Tee(publish.then_some(&mut self.builder), &mut self.pricer);
        let (entries_moved, lock) = match &mut self.plant {
            Plant::Bare(e) => {
                e.remove_vnode_with(v, &mut sink).expect("churn replay: remove failed");
                (0, None)
            }
            Plant::Kv(svc) => {
                let (_, m) = svc.leave_with(v, &mut sink).expect("churn replay: remove failed");
                (m.entries, None)
            }
            Plant::Repl(store) => {
                let mut g = store.write();
                let (_, rep) = g.leave_with(v, &mut sink).expect("churn replay: remove failed");
                (rep.copies_placed, Some(g))
            }
        };
        if publish {
            self.builder.note_remove(v);
            self.builder.publish(&self.serve);
        }
        drop(lock);
        // The governing record after the event is visible through any
        // receiver of the redistribution transfers.
        let (record_len, participants) = match self.pricer.first_receiver() {
            Some(to) => self.record_shape_of(to),
            None => (1, 1),
        };
        let cost = self.pricer.finish_remove(record_len, participants);
        self.acc.absorb(cost);
        self.acc.transfers += self.pricer.transfers();
        self.acc.entries_migrated += entries_moved;
        self.acc.leaves += 1;
        self.roster.retain(|&(_, rv)| rv != v);
        // A removal may internally migrate a surviving vnode between
        // groups, retiring its old handle — follow the rename.
        let migrated = self.pricer.migrated();
        if let Some((old, new)) = migrated {
            for entry in &mut self.roster {
                if entry.1 == old {
                    entry.1 = new;
                }
            }
        }
        if let Some(r) = &mut self.router {
            r.note_remove(v);
            if let Some((old, new)) = migrated {
                r.note_rename(old, new);
            }
        }
        migrated
    }

    /// Crashes the snode identified by `tag` **ungracefully**: every vnode
    /// it hosts is torn down at once and — with the replicated overlay —
    /// whatever it stored is destroyed rather than migrated. The plain KV
    /// overlay cannot represent loss, so it degrades the crash to graceful
    /// removals (identical membership trajectory, data migrates).
    ///
    /// A crash is priced as one composite removal event: one
    /// synchronisation round over the post-crash record plus all streamed
    /// transfers — a deliberate approximation (a crash is detected and
    /// absorbed as a unit, not as per-vnode goodbyes).
    ///
    /// With `failover` set the teardown was ordered by the control plane
    /// (a lapsed lease, not a crash notification): the mechanics are
    /// identical, only the accounting differs.
    fn crash_tag(&mut self, tag: NodeTag, failover: bool) {
        let count = self.roster.iter().filter(|(t, _)| *t == tag).count();
        if count == 0 || count == self.roster.len() {
            // Already gone, or crashing the whole fleet would empty the
            // DHT — skip, state-parallel across engines.
            self.acc.skipped += 1;
            return;
        }
        if matches!(self.plant, Plant::Kv(_)) {
            let victims: Vec<VnodeId> =
                self.roster.iter().filter(|(t, _)| *t == tag).map(|&(_, v)| v).collect();
            self.remove_all(victims);
            // The per-vnode removals already released the leases; this
            // clears the holder's capacity/stall records too.
            if let Some(r) = &mut self.router {
                r.note_fail(SnodeId(tag.0));
            }
            if failover {
                self.acc.failovers += 1;
            } else {
                self.acc.crashes += 1;
            }
            self.crashed.push((tag, count as u32));
            return;
        }
        let snode = SnodeId(tag.0);
        self.pricer.begin();
        let publish = self.publishes();
        let mut sink = Tee(publish.then_some(&mut self.builder), &mut self.pricer);
        let ((renames, vnodes_failed, keys_lost, relocated), lock) = match &mut self.plant {
            Plant::Bare(e) => {
                let out = e.fail_snode(snode, &mut sink).expect("churn replay: crash failed");
                ((out.renames, out.vnodes.len(), 0, 0), None)
            }
            Plant::Repl(store) => {
                let mut g = store.write();
                let rep = g.fail_snode_with(snode, &mut sink).expect("churn replay: crash failed");
                ((rep.renames, rep.vnodes_failed, rep.keys_lost, rep.copies_relocated), Some(g))
            }
            Plant::Kv(_) => unreachable!("degraded to graceful removal above"),
        };
        if publish {
            self.builder.note_fail(snode);
            self.builder.publish(&self.serve);
        }
        drop(lock);
        self.roster.retain(|&(t, _)| t != tag);
        if let Some(r) = &mut self.router {
            // Survivor renames re-key their leases; then the dead
            // holder's leases are released (the executor's confirmation
            // the tick's failover asked for).
            for &(old, new) in &renames {
                r.note_rename(old, new);
            }
            r.note_fail(snode);
        }
        for (old, new) in renames {
            for entry in &mut self.roster {
                if entry.1 == old {
                    entry.1 = new;
                }
            }
        }
        // The governing record after the event: the first transfer
        // receiver when it survived the whole crash, else any survivor.
        let shape_v = self
            .pricer
            .first_receiver()
            .filter(|&v| self.with_engine(|e| e.snode_of(v).is_ok()))
            .or_else(|| self.roster.first().map(|&(_, v)| v));
        let (record_len, participants) = match shape_v {
            Some(v) => self.record_shape_of(v),
            None => (1, 1),
        };
        let cost = self.pricer.finish_remove(record_len, participants);
        self.acc.absorb(cost);
        self.acc.transfers += self.pricer.transfers();
        self.acc.entries_migrated += relocated;
        self.acc.leaves += vnodes_failed as u64;
        if failover {
            self.acc.failovers += 1;
        } else {
            self.acc.crashes += 1;
        }
        self.crashed.push((tag, count as u32));
        self.acc.keys_lost += keys_lost;
        if keys_lost > 0 {
            self.prune_lost_probes();
        }
    }

    /// Brings a crashed snode back with the capacity it held at crash
    /// time. The replicated overlay replays the snode's write-ahead log
    /// (the durability tier's fast path — timed into `wal_replay_ms`);
    /// the bare and plain-KV plants have no log to replay, so the return
    /// is an ordinary re-enrollment of the same tag.
    fn rejoin_tag(&mut self, tag: NodeTag, vnodes: u32) {
        if self.roster.iter().any(|(t, _)| *t == tag) {
            // The tag re-enrolled through the event stream while down —
            // there is nothing to bring back.
            self.acc.skipped += 1;
            return;
        }
        if matches!(self.plant, Plant::Repl(_)) {
            self.rejoin_repl(tag);
            return;
        }
        if let Some(r) = &mut self.router {
            r.note_capacity(SnodeId(tag.0), vnodes.max(1));
        }
        for _ in 0..vnodes.max(1) {
            self.create_one(tag);
        }
        self.acc.rejoins += 1;
    }

    /// The replicated overlay's rejoin: re-enrol the crashed snode's
    /// vnodes, rebuild their ranges in-line, replay the surviving WAL and
    /// checkpoint it — one composite creation event, priced like a join
    /// of the whole returning node.
    fn rejoin_repl(&mut self, tag: NodeTag) {
        let snode = SnodeId(tag.0);
        self.pricer.begin();
        let publish = self.publishes();
        let started = Instant::now();
        let result = {
            let Plant::Repl(store) = &mut self.plant else {
                unreachable!("caller checked the plant")
            };
            let mut g = store.write();
            let mut sink = Tee(publish.then_some(&mut self.builder), &mut self.pricer);
            let r = g.rejoin_snode_with(snode, &mut sink);
            if let (true, Ok(report)) = (publish, &r) {
                for &v in &report.handles {
                    self.builder.note_create(v, snode);
                }
                self.builder.publish(&self.serve);
            }
            r
        };
        let report = match result {
            Ok(report) => report,
            Err(_) => {
                // The store no longer remembers the crash (e.g. the event
                // stream shrank the fleet past it) — state-parallel skip.
                self.acc.skipped += 1;
                return;
            }
        };
        self.acc.wal_replay_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (record_len, participants) = match report.handles.first() {
            Some(&v) => self.record_shape_of(v),
            None => (1, 1),
        };
        let cost = self.pricer.finish_create(record_len, participants);
        self.acc.absorb(cost);
        self.acc.transfers += self.pricer.transfers();
        self.acc.entries_migrated += report.repair.copies_placed + report.recovered;
        self.acc.repair_bytes += report.repair.bytes_shipped;
        self.repair_bytes_full += report.repair.bytes_full;
        self.acc.joins += report.handles.len() as u64;
        self.acc.rejoins += 1;
        for &v in &report.handles {
            self.roster.push((tag, v));
        }
        if let Some(r) = &mut self.router {
            r.note_capacity(snode, report.handles.len().max(1) as u32);
            for &v in &report.handles {
                r.note_join(v, snode, self.clock);
            }
        }
    }

    /// Drops probe keys whose every replica a crash just destroyed — they
    /// are accounted in `keys_lost`, and keeping them would misreport the
    /// loss a second time as `lost_lookups`.
    fn prune_lost_probes(&mut self) {
        let Plant::Repl(store) = &self.plant else { return };
        let store = store.read();
        let keys = std::mem::take(&mut self.probe_keys);
        let owners = std::mem::take(&mut self.probe_owner);
        for (key, owner) in keys.into_iter().zip(owners) {
            if store.get(key.as_bytes()).is_some() {
                self.probe_keys.push(key);
                self.probe_owner.push(owner);
            }
        }
    }

    /// `(record length, participant snodes)` of the record governing `v`'s
    /// region — the inputs [`CostModel`] prices synchronisation with.
    /// Served by the engines' incrementally-maintained counts, so pricing
    /// an event never materialises a PDR.
    fn record_shape_of(&self, v: VnodeId) -> (u64, u64) {
        self.with_engine(|e| e.record_shape_of(v).expect("live vnode has a record"))
    }

    /// Loads the KV population once the DHT can own keys (first join).
    fn load_kv_if_pending(&mut self) {
        let Some((entries, value_len)) = self.pending_load.take() else { return };
        let keys = UniformKeys::new(entries);
        match &mut self.plant {
            Plant::Bare(_) => return, // only overlay plants carry a load
            Plant::Kv(svc) => {
                for i in 0..entries {
                    svc.put(keys.key_at(i), value_of(value_len, i));
                }
            }
            Plant::Repl(store) => {
                let mut g = store.write();
                for i in 0..entries {
                    g.put(keys.key_at(i), value_of(value_len, i));
                }
            }
        }
        let probes = self.cfg.probes.min(entries as usize).max(1);
        let stride = (entries / probes as u64).max(1);
        self.probe_keys = (0..probes as u64).map(|i| keys.key_at((i * stride) % entries)).collect();
        let owners = &mut self.probe_owner;
        let probe_keys = &self.probe_keys;
        match &self.plant {
            Plant::Bare(_) => {}
            Plant::Kv(svc) => svc.with_read(|store| {
                *owners = probe_keys.iter().map(|k| store.route(k.as_bytes())).collect();
            }),
            Plant::Repl(store) => {
                let store = store.read();
                *owners = probe_keys.iter().map(|k| store.route(k.as_bytes())).collect();
            }
        }
        // Readers switch from routing-only probes to real gets from here.
        self.loaded.store(true, Ordering::Release);
    }
}

impl<E: DhtEngine + Send + Sync> ChurnDriver<E> {
    /// Replays a whole stream and finishes the run. With
    /// [`ChurnDriver::with_readers`] the serving plane runs concurrently
    /// for the duration of the replay.
    pub fn run(mut self, stream: &EventStream) -> ChurnOutcome {
        self.run_started = Some(Instant::now());
        if self.readers == 0 {
            for e in stream.events() {
                self.step(e);
            }
            return self.finish(stream.horizon());
        }
        self.run_threaded(stream)
    }

    fn run_threaded(mut self, stream: &EventStream) -> ChurnOutcome {
        let cell = Arc::clone(self.serve_cell());
        let stats = Arc::clone(&self.read_stats);
        let loaded = Arc::clone(&self.loaded);
        let entries = self.pending_load.map(|(n, _)| n).unwrap_or(0);
        let target = self.read_target();
        let stop = Arc::new(AtomicBool::new(false));
        let writer_pace = self.writer_pace;
        let (burst, pace) = (self.read_burst, self.read_pace);
        std::thread::scope(|s| {
            for t in 0..self.readers {
                let cell = Arc::clone(&cell);
                let stats = Arc::clone(&stats);
                let loaded = Arc::clone(&loaded);
                let stop = Arc::clone(&stop);
                let target = target.clone();
                s.spawn(move || {
                    reader_loop(
                        t as u64, &cell, &target, entries, &loaded, &stop, &stats, burst, pace,
                    )
                });
            }
            self.read_mark = ReadMark { at: Instant::now(), counters: ReadCounters::zero() };
            for e in stream.events() {
                self.step(e);
                if !writer_pace.is_zero() {
                    std::thread::sleep(writer_pace);
                }
            }
            let outcome = self.finish(stream.horizon());
            // Scope exit joins the readers; release them first.
            stop.store(true, Ordering::Relaxed);
            outcome
        })
    }
}

/// One serving-plane reader: pin the latest snapshot, issue a burst of
/// reads against it, pause, repeat. Stale pins are re-pinned (counted as
/// stale retries); a read that settles at the current epoch and still
/// misses counts as a read error.
#[allow(clippy::too_many_arguments)]
fn reader_loop<E: DhtEngine>(
    id: u64,
    cell: &SnapshotCell,
    target: &ReadTarget<E>,
    entries: u64,
    loaded: &AtomicBool,
    stop: &AtomicBool,
    stats: &ReadStats,
    burst: usize,
    pace: Duration,
) {
    let keys = UniformKeys::new(entries.max(1));
    // A cheap xorshift per thread: read metrics are wall-clock figures,
    // so the key choice carries no determinism contract.
    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id + 1) | 1;
    let mut snap = cell.load();
    while !stop.load(Ordering::Relaxed) {
        if cell.is_stale(&snap) {
            snap = cell.load();
        }
        for _ in 0..burst {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t0 = Instant::now();
            let (retries, error) = one_read(cell, target, &mut snap, &keys, entries, loaded, x);
            stats.record(t0.elapsed().as_nanos() as u64, retries, error);
        }
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
}

fn one_read<E: DhtEngine>(
    cell: &SnapshotCell,
    target: &ReadTarget<E>,
    snap: &mut Arc<EngineSnapshot>,
    keys: &UniformKeys,
    entries: u64,
    loaded: &AtomicBool,
    draw: u64,
) -> (u32, bool) {
    let have_data = entries > 0 && loaded.load(Ordering::Acquire);
    match target {
        ReadTarget::Kv(svc) if have_data => {
            let key = keys.key_at(draw % entries);
            let got = svc.get_routed(snap, key.as_bytes());
            (got.retries, got.value.is_none())
        }
        ReadTarget::Repl(store) if have_data => {
            // A settled miss is genuine — only reachable when crashes
            // destroyed every copy, i.e. R was too low for the burst.
            let key = keys.key_at(draw % entries);
            let got = store.read().get_quorum_routed(cell, snap, key.as_bytes());
            (got.retries, got.read.value.is_none())
        }
        // Routing-plane read: resolve a random point at the pinned epoch.
        _ => {
            let point = snap.space().fold(draw);
            let miss = !snap.is_empty() && snap.lookup(point).is_none();
            (0, miss)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Capacity, Lifetime, Process};
    use crate::scenario::Scenario;
    use domus_core::{DhtConfig, GlobalDht, LocalDht};
    use domus_hashspace::HashSpace;

    fn local() -> LocalDht {
        LocalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 4).unwrap(), 0xC0)
    }

    fn small_scenario() -> Scenario {
        Scenario::new(SimTime::millis(120_000))
            .with(Process::InitialFleet { nodes: 8, capacity: Capacity::Fixed(1) })
            .with(Process::Poisson {
                rate_per_s: 1.0,
                lifetime: Lifetime::Exponential { mean: SimTime::millis(20_000) },
                capacity: Capacity::Uniform { lo: 1, hi: 2 },
            })
            .with(Process::GroupFailure { at: SimTime::millis(80_000), fraction: 0.25 })
    }

    #[test]
    fn bare_replay_tracks_engine_population() {
        let stream = small_scenario().build(1);
        let driver = ChurnDriver::new(local(), DriverConfig::default());
        let outcome = driver.run(&stream);
        assert_eq!(outcome.totals.events, stream.len() as u64);
        assert!(outcome.totals.joins > 0 && outcome.totals.leaves > 0);
        // Roster bookkeeping matches the engine's own census.
        assert_eq!(
            outcome.final_balance.vnodes as u64,
            outcome.totals.joins - outcome.totals.leaves
        );
        // Windows tile the horizon exactly: 120 s / 30 s = 4 windows.
        assert_eq!(outcome.samples.len(), 4);
        assert!(outcome.totals.messages > 0 && outcome.totals.service > SimTime::ZERO);
    }

    #[test]
    fn replay_leaves_invariants_intact() {
        let stream = small_scenario().build(3);
        let mut driver = ChurnDriver::new(local(), DriverConfig::default());
        for e in stream.events() {
            driver.step(e);
        }
        driver.with_engine(|e| e.check_invariants().expect("invariants after churn"));
        let outcome = driver.finish(stream.horizon());
        assert!(outcome.final_balance.vnodes >= 1);
    }

    #[test]
    fn kv_overlay_measures_data_plane_and_loses_nothing() {
        let stream = small_scenario().build(2);
        let driver = ChurnDriver::with_kv(local(), DriverConfig::default(), 2_000, 16);
        let outcome = driver.run(&stream);
        assert_eq!(outcome.totals.lost_lookups, 0, "churn must never lose a key");
        assert!(outcome.totals.entries_migrated > 0, "churn must move data");
        assert!(outcome.totals.mean_availability > 0.0);
        assert!(
            outcome.samples.iter().any(|s| s.availability < 1.0),
            "a failure event must disturb some owners"
        );
    }

    #[test]
    fn outcome_csv_is_deterministic() {
        let stream = small_scenario().build(5);
        let a = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8).run(&stream);
        let b = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8).run(&stream);
        assert_eq!(a, b);
        assert_eq!(a.csv_string(), b.csv_string());
        assert!(a.csv_string().starts_with("window,t_ms,"));
    }

    #[test]
    fn identical_stream_replays_into_every_engine() {
        let scenario = small_scenario();
        let s1 = scenario.build(9);
        let s2 = scenario.build(9);
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        let l = ChurnDriver::new(local(), DriverConfig::default()).run(&s1);
        let g = ChurnDriver::new(
            GlobalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 1).unwrap(), 0xC1),
            DriverConfig::default(),
        )
        .run(&s2);
        // Same membership trajectory on both engines...
        assert_eq!(l.totals.joins, g.totals.joins);
        assert_eq!(l.totals.leaves, g.totals.leaves);
        assert_eq!(l.final_balance.vnodes, g.final_balance.vnodes);
        // ...while the engines differ where they should (group structure).
        assert_eq!(g.final_balance.groups, 1);
        assert!(l.final_balance.groups > 1);
    }

    #[test]
    fn boundary_exact_events_never_duplicate_window_timestamps() {
        // A truncated stream's horizon equals its last event time; when
        // that lands exactly on a window boundary (here 30 s, the default
        // window), the run must still emit unique, gap-free timestamps.
        let join = |at_ms: u64, tag: u32| crate::event::ChurnEvent {
            at: SimTime::millis(at_ms),
            kind: EventKind::Join { node: NodeTag(tag), vnodes: 1 },
        };
        let stream = EventStream::new(
            vec![join(10_000, 0), join(20_000, 1), join(30_000, 2)],
            SimTime::millis(30_000),
        );
        let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
        assert_eq!(outcome.samples.len(), 1, "one window, no zero-width duplicate");
        assert_eq!(outcome.samples[0].end, SimTime::millis(30_000));
        assert_eq!(outcome.samples[0].events, 3, "the boundary event belongs to the window");
        // And with a gap past the boundary, windows stay unique too.
        let stream = EventStream::new(
            vec![join(10_000, 0), join(30_000, 1), join(45_000, 2)],
            SimTime::millis(60_000),
        );
        let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
        let ends: Vec<SimTime> = outcome.samples.iter().map(|s| s.end).collect();
        assert_eq!(ends, vec![SimTime::millis(30_000), SimTime::millis(60_000)]);
        assert_eq!(outcome.samples[0].events, 2);
        assert_eq!(outcome.samples[1].events, 1);
    }

    fn crashy_scenario() -> Scenario {
        Scenario::new(SimTime::millis(120_000))
            .with(Process::InitialFleet { nodes: 10, capacity: Capacity::Fixed(1) })
            .with(Process::Poisson {
                rate_per_s: 0.5,
                lifetime: Lifetime::Exponential { mean: SimTime::millis(40_000) },
                capacity: Capacity::Fixed(1),
            })
            .with(Process::RandomCrashes { rate_per_s: 0.08 })
    }

    #[test]
    fn replicated_overlay_survives_crashes_at_r2() {
        // One crash per 30 s window: the end-of-window repair always runs
        // between failures, so R=2 provably loses nothing (a single crash
        // destroys at most one of two distinct-snode copies).
        let stream = Scenario::new(SimTime::millis(120_000))
            .with(Process::InitialFleet { nodes: 10, capacity: Capacity::Fixed(1) })
            .with(Process::Poisson {
                rate_per_s: 0.3,
                lifetime: Lifetime::Forever,
                capacity: Capacity::Fixed(1),
            })
            .with(Process::CrashStorm {
                at: SimTime::millis(20_000),
                crashes: 1,
                spread: SimTime::ZERO,
            })
            .with(Process::CrashStorm {
                at: SimTime::millis(50_000),
                crashes: 1,
                spread: SimTime::ZERO,
            })
            .with(Process::CrashStorm {
                at: SimTime::millis(80_000),
                crashes: 1,
                spread: SimTime::ZERO,
            })
            .build(6);
        let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_500, 16, 2);
        let outcome = driver.run(&stream);
        assert!(outcome.totals.crashes > 0, "the scenario must crash nodes");
        assert_eq!(outcome.totals.keys_lost, 0, "R=2 with per-window repair loses nothing");
        assert_eq!(outcome.totals.lost_lookups, 0);
        assert!(outcome.totals.repaired > 0, "crashes must leave work for repair");
        assert!(
            outcome.samples.iter().any(|s| s.quorum_availability < 1.0),
            "a crash window must dent quorum availability before repair"
        );
        assert_eq!(outcome.samples.last().unwrap().keys_total, 1_500);
    }

    #[test]
    fn unreplicated_crashes_lose_exactly_what_accounting_says() {
        let stream = crashy_scenario().build(11);
        let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_500, 16, 1);
        let outcome = driver.run(&stream);
        assert!(outcome.totals.crashes > 0);
        assert!(outcome.totals.keys_lost > 0, "R=1 crashes must lose keys");
        // Exact accounting: the survivors plus the accounted losses cover
        // the whole population.
        let final_keys = outcome.samples.last().unwrap().keys_total;
        assert_eq!(final_keys + outcome.totals.keys_lost, 1_500);
        assert_eq!(outcome.totals.lost_lookups, 0, "losses are accounted, never silent");
    }

    #[test]
    fn replicated_replay_is_deterministic_and_parallel_across_backends() {
        let scenario = crashy_scenario();
        let (s1, s2) = (scenario.build(9), scenario.build(9));
        let a = ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 3).run(&s1);
        let b = ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 3).run(&s2);
        assert_eq!(a, b, "same seed ⇒ identical replicated outcome");
        assert!(a.csv_string().contains("quorum_availability"));
        let g = ChurnDriver::with_replication(
            GlobalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 1).unwrap(), 0xD1),
            DriverConfig::default(),
            800,
            8,
            3,
        )
        .run(&scenario.build(9));
        assert_eq!(a.totals.joins, g.totals.joins, "identical membership trajectory");
        assert_eq!(a.totals.crashes, g.totals.crashes);
    }

    #[test]
    fn readers_hammer_the_kv_serving_plane_without_errors() {
        let stream = small_scenario().build(7);
        let driver = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8)
            .with_readers(2)
            .with_writer_pace(Duration::from_micros(300));
        let outcome = driver.run(&stream);
        assert!(outcome.totals.reads > 0, "readers must complete reads during replay");
        assert_eq!(outcome.totals.read_errors, 0, "graceful churn must never fail a read");
        assert_eq!(outcome.totals.lost_lookups, 0);
        assert!(outcome.totals.reads_per_sec > 0.0);
        assert!(outcome.totals.read_p99_ns >= outcome.totals.read_p50_ns);
        assert!(
            outcome.samples.iter().map(|s| s.reads).sum::<u64>() <= outcome.totals.reads,
            "window reads are a subset of the run total"
        );
        let csv = outcome.csv_string();
        assert!(csv.contains("reads_per_sec") && csv.contains("read_p99_ns"));
    }

    #[test]
    fn readers_survive_crashes_on_the_replicated_plane_at_r2() {
        let stream = Scenario::new(SimTime::millis(120_000))
            .with(Process::InitialFleet { nodes: 10, capacity: Capacity::Fixed(1) })
            // One crash per window: repair runs between failures, so R=2
            // provably loses nothing and every read must succeed.
            .with(Process::CrashStorm {
                at: SimTime::millis(40_000),
                crashes: 1,
                spread: SimTime::ZERO,
            })
            .with(Process::CrashStorm {
                at: SimTime::millis(80_000),
                crashes: 1,
                spread: SimTime::ZERO,
            })
            .build(13);
        let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 2)
            .with_readers(2)
            .with_writer_pace(Duration::from_micros(300));
        let outcome = driver.run(&stream);
        assert!(outcome.totals.crashes > 0);
        assert_eq!(outcome.totals.keys_lost, 0);
        assert!(outcome.totals.reads > 0);
        assert_eq!(
            outcome.totals.read_errors, 0,
            "R=2 must serve every quorum read through crashes"
        );
    }

    #[test]
    fn readers_route_on_the_bare_plane() {
        let stream = small_scenario().build(21);
        let driver = ChurnDriver::new(local(), DriverConfig::default())
            .with_readers(2)
            .with_writer_pace(Duration::from_micros(300));
        let outcome = driver.run(&stream);
        assert!(outcome.totals.reads > 0);
        assert_eq!(outcome.totals.read_errors, 0, "a published epoch always routes every point");
    }

    #[test]
    fn reader_columns_are_deterministic_zeros_without_readers() {
        let stream = small_scenario().build(5);
        let outcome = ChurnDriver::with_kv(local(), DriverConfig::default(), 500, 8).run(&stream);
        assert_eq!(outcome.totals.reads, 0);
        assert_eq!(outcome.totals.read_errors, 0);
        assert!(outcome.samples.iter().all(|s| s.reads == 0 && s.stale_rate == 0.0));
        // Without readers *and* without a router, both column groups
        // stay all-zero and the CSV is byte-deterministic.
        assert_eq!(outcome.totals.failovers, 0);
        assert_eq!(outcome.totals.route_moves, 0);
        assert!(outcome.samples.iter().all(|s| s.leases_live == 0 && s.route_version == 0));
        for line in outcome.csv_string().lines().skip(1) {
            assert!(
                line.ends_with(",0,0.0,0,0,0.0000,0,0,0.0000,0,0,0,0,0,0,0.000,0,0"),
                "read, route and durability columns stay zero: {line}"
            );
        }
    }

    #[test]
    fn a_silent_stall_fails_over_via_lease_expiry_with_zero_loss_at_r2() {
        let stream = Scenario::hotspot_failover().build(17);
        let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_200, 16, 2)
            .with_router(RouterConfig::default());
        let outcome = driver.run(&stream);
        assert!(outcome.totals.leases_expired >= 1, "the stall must lapse leases");
        assert!(outcome.totals.failovers >= 1, "a lapsed lease must fail over");
        assert_eq!(outcome.totals.crashes, 0, "no crash notification was ever delivered");
        assert_eq!(outcome.totals.keys_lost, 0, "R=2: failover + repair lose nothing");
        assert_eq!(outcome.totals.lost_lookups, 0);
        assert_eq!(outcome.totals.lease_violations, 0, "lease safety holds every window");
        assert!(outcome.samples.iter().any(|s| s.failovers > 0));
        // The route probe sees live epochs: versions advance, and the
        // cache repairs staleness in at most one round per window.
        assert!(outcome.samples.last().unwrap().route_version > 0);
        assert!(outcome.samples.iter().any(|s| s.cache_stale > 0));
        assert!(outcome.samples.iter().all(|s| s.cache_stale <= 1));
    }

    #[test]
    fn crashed_snodes_rejoin_by_replaying_their_wal() {
        let stream = Scenario::durability(1.0).build(9);
        let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_500, 16, 2);
        let outcome = driver.run(&stream);
        assert!(outcome.totals.crashes >= 1, "{} crashes", outcome.totals.crashes);
        assert!(
            outcome.totals.rejoins >= 1,
            "crashed snodes must come back: {} rejoins",
            outcome.totals.rejoins
        );
        assert!(outcome.samples.iter().any(|s| s.rejoins > 0));
        // Anti-entropy ships digest-selected bytes while the fleet is
        // degraded, and the quorum gap closes again after each rejoin.
        assert!(outcome.totals.repair_bytes > 0, "digest repair must ship bytes");
        assert!(
            outcome.totals.repair_bytes < outcome.totals.repair_bytes_full,
            "digest-driven repair must ship less than a full rebuild: {} vs {}",
            outcome.totals.repair_bytes,
            outcome.totals.repair_bytes_full
        );
        assert!(
            outcome.totals.time_to_full_quorum_windows >= 1,
            "a 1.5-window downtime must register a quorum gap"
        );
        assert_eq!(outcome.totals.lost_lookups, 0, "surviving probes always read back");
    }

    #[test]
    fn bare_plant_rejoins_are_plain_reenrollments() {
        // The bare plant has no WAL: a rejoin re-enrolls the crashed tag
        // at its crash-time capacity, and the durability columns stay
        // deterministic zeros.
        let stream = Scenario::new(SimTime::millis(120_000))
            .with(Process::InitialFleet { nodes: 6, capacity: Capacity::Fixed(1) })
            .with(Process::CrashRejoin {
                at: SimTime::millis(30_000),
                cycles: 2,
                spread: SimTime::millis(10_000),
                downtime: SimTime::millis(10_000),
            })
            .build(13);
        let rejoins = stream
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RejoinRank { .. }))
            .count() as u64;
        assert!(rejoins >= 1);
        let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
        assert_eq!(outcome.totals.rejoins, rejoins, "every paired rejoin executes");
        assert_eq!(outcome.totals.repair_bytes, 0, "no overlay, no repair traffic");
        assert_eq!(outcome.totals.wal_replay_ms, 0.0, "no WAL on the bare plant");
    }

    #[test]
    fn rejoin_events_are_skipped_while_nothing_is_crashed() {
        let events = vec![ChurnEvent {
            at: SimTime::millis(10_000),
            kind: EventKind::RejoinRank { draw: 7 },
        }];
        let stream = EventStream::new(events, SimTime::millis(20_000));
        let mut driver = ChurnDriver::new(local(), DriverConfig::default());
        driver.step(&ChurnEvent {
            at: SimTime::millis(1),
            kind: EventKind::Join { node: NodeTag(0), vnodes: 2 },
        });
        for e in stream.events() {
            driver.step(e);
        }
        let outcome = driver.finish(stream.horizon());
        assert_eq!(outcome.totals.rejoins, 0);
        assert_eq!(outcome.totals.skipped, 1, "a rejoin with no crashed roster skips");
    }

    #[test]
    fn a_degraded_snode_is_detected_and_rebalanced_within_bounded_windows() {
        let stream = Scenario::hotspot_failover().build(17);
        let driver = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8)
            .with_router(RouterConfig::default());
        let outcome = driver.run(&stream);
        assert!(outcome.totals.hot_windows >= 1, "the degrade must trip the detector");
        assert!(outcome.totals.route_moves >= 1, "a hot snode must shed");
        assert!(outcome.totals.route_converged, "the imbalance must be rebalanced away");
        assert!(
            outcome.totals.route_convergence <= 3,
            "convergence must be bounded: {} windows",
            outcome.totals.route_convergence
        );
        assert_eq!(outcome.totals.lost_lookups, 0, "moves migrate data, never lose it");
        assert_eq!(outcome.totals.lease_violations, 0);
    }

    #[test]
    fn routed_replay_is_deterministic() {
        let scenario = Scenario::hotspot_failover();
        let run = || {
            ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 2)
                .with_router(RouterConfig::default())
                .run(&scenario.build(3))
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "the control plane runs on simulated time — byte-deterministic");
        assert_eq!(a.csv_string(), b.csv_string());
        assert!(a.csv_string().starts_with("window,t_ms,"));
        assert!(a.csv_string().contains("route_version"));
    }

    #[test]
    fn stall_and_degrade_events_are_skipped_without_a_router() {
        let stream = Scenario::hotspot_failover().build(5);
        let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
        assert_eq!(outcome.totals.failovers, 0);
        assert_eq!(outcome.totals.route_moves, 0);
        assert_eq!(
            outcome.totals.skipped, 2,
            "one stall + one degrade are unobservable without a control plane"
        );
    }

    #[test]
    fn availability_series_extraction() {
        let stream = small_scenario().build(4);
        let outcome = ChurnDriver::with_kv(local(), DriverConfig::default(), 500, 8).run(&stream);
        let s = outcome.series("availability", |w| w.availability);
        assert_eq!(s.len(), outcome.samples.len());
        assert!(s.y.iter().all(|&y| (0.0..=1.0).contains(&y)));
    }
}

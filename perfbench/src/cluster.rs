//! The cluster under test and the client operations the workloads issue.
//!
//! Every operation goes through a public function of a workspace crate,
//! is timed around that call only, and is checked against an oracle of
//! key → value. Membership operations are also logged, so a bare shadow
//! engine with the same seed can replay them at the end of an episode.

use crate::stats::{Hist, Tally};
use crate::trace::{Tracer, NONE};
use bytes::Bytes;
use domus_core::{
    CountOnly, DhtConfig, DhtEngine, EngineSnapshot, LocalDht, NullSink, RebalanceEvent,
    RebalanceSink, SnapshotBuilder, SnapshotCell, SnodeId, VnodeId,
};
use domus_hashspace::hasher::Fnv1aHasher;
use domus_hashspace::KeyHasher;
use domus_kv::ReplicatedStore;
use domus_route::{RouteAction, Router, RouterConfig};
use domus_sim::SimTime;
use domus_wal::{SegmentedWal, WalRecord};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Cluster shape every workload starts from: the paper's configuration
/// at 1024 snodes × 2 vnodes, replicated at R = 2.
pub const SNODES: u32 = 1024;
pub const VNODES_PER_SNODE: u32 = 2;
pub const R: usize = 2;

/// Appends per timed batch in the standalone WAL probe.
pub const WAL_BATCH: usize = 100;

pub type Store = ReplicatedStore<LocalDht>;

/// Seed of the engine's own random choices. It is the same in every run,
/// so every run starts from the same cluster; the run's seed drives the
/// workload's inputs.
pub const ENGINE_SEED: u64 = 0x00D0_0115;

pub fn build_engine() -> LocalDht {
    let mut e = LocalDht::with_seed(DhtConfig::paper_default(), ENGINE_SEED);
    for _ in 0..VNODES_PER_SNODE {
        for s in 0..SNODES {
            e.create_vnode_with(SnodeId(s), &mut NullSink).expect("setup creates a vnode");
        }
    }
    e
}

pub fn make_keys(n: usize) -> Vec<Bytes> {
    (0..n).map(|i| Bytes::from(format!("key:{i:010}").into_bytes())).collect()
}

/// The value written by the `version`-th put of key `key`: the key index
/// and version lead, so a wrong or stale value never compares equal.
pub fn value(key: usize, version: u64, len: usize) -> Bytes {
    let mut v = vec![0u8; len.max(16)];
    v[..8].copy_from_slice(&(key as u64).to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    let fill = (key as u64 ^ version) as u8;
    for (i, b) in v[16..].iter_mut().enumerate() {
        *b = fill.wrapping_add(i as u8);
    }
    Bytes::from(v)
}

/// A membership operation, as the shadow engine replays it.
#[derive(Debug, Clone, Copy)]
pub enum MemberOp {
    Join { snode: SnodeId, created: VnodeId },
    Leave(VnodeId),
    Fail(SnodeId),
    Rejoin { snode: SnodeId, vnodes: usize },
}

/// Forwards every rebalance event to the snapshot builder and remembers
/// vnode renames for the router.
struct OpSink<'a> {
    builder: &'a mut SnapshotBuilder,
    renames: Vec<(VnodeId, VnodeId)>,
}

impl RebalanceSink for OpSink<'_> {
    fn event(&mut self, e: RebalanceEvent) {
        if let RebalanceEvent::VnodeMigrated { old, new } = e {
            self.renames.push((old, new));
        }
        self.builder.event(e);
    }
}

/// The routing control plane, ticked on a virtual clock.
pub struct Control {
    pub router: Router,
    pub now: SimTime,
}

pub struct Cluster {
    pub store: Store,
    pub builder: SnapshotBuilder,
    pub cell: SnapshotCell,
    /// The client's pinned snapshot; it is re-pinned only when a read
    /// finds it stale.
    pub pin: Arc<EngineSnapshot>,
    pub oracle: Vec<Option<Bytes>>,
    pub log: Vec<(u32, MemberOp)>,
    pub control: Option<Control>,
    pub crashed: Vec<SnodeId>,
    puts: u64,
}

impl Cluster {
    /// Builds the cluster and loads every key with a `value_len`-byte
    /// value. This is what `setup_s` times.
    pub fn build(keys: &[Bytes], value_len: usize) -> Self {
        let mut store = ReplicatedStore::new(build_engine(), R);
        let mut oracle = Vec::with_capacity(keys.len());
        for (i, k) in keys.iter().enumerate() {
            let v = value(i, 0, value_len);
            store.put(k.clone(), v.clone());
            oracle.push(Some(v));
        }
        let builder = SnapshotBuilder::from_engine(store.engine());
        let cell = SnapshotCell::new(builder.snapshot());
        let pin = cell.load();
        Self {
            store,
            builder,
            cell,
            pin,
            oracle,
            log: Vec::new(),
            control: None,
            crashed: Vec::new(),
            puts: 0,
        }
    }

    /// Attaches a router holding one lease per vnode, each snode
    /// declaring its initial enrolment as its capacity.
    pub fn attach_router(&mut self) {
        let mut router = Router::new(RouterConfig::default());
        for (v, s) in roster(self.store.engine()) {
            router.note_capacity(s, VNODES_PER_SNODE);
            router.note_join(v, s, SimTime::ZERO);
        }
        self.control = Some(Control { router, now: SimTime::ZERO });
    }

    /// Live vnodes hosted by `s`.
    pub fn vnodes_of(&self, s: SnodeId) -> Vec<VnodeId> {
        self.store.engine().vnodes_of_snode(s)
    }

    /// Framed WAL bytes appended so far, over every snode's log.
    pub fn wal_appended(&self) -> u64 {
        (0..SNODES)
            .filter_map(|s| self.store.wal_of(SnodeId(s)))
            .map(|w| w.stats().appended_bytes)
            .sum()
    }

    pub fn wal_segments(&self) -> u64 {
        (0..SNODES)
            .filter_map(|s| self.store.wal_of(SnodeId(s)))
            .map(|w| w.segment_count() as u64)
            .sum()
    }
}

pub fn roster(e: &LocalDht) -> Vec<(VnodeId, SnodeId)> {
    let mut out = Vec::with_capacity(e.vnode_count());
    e.for_each_vnode(&mut |v| out.push((v, e.snode_of(v).expect("listed vnode is live"))));
    out
}

/// Everything the client measures or counts, in both traced and
/// untraced runs.
#[derive(Default)]
pub struct Meter {
    pub tally: Tally,
    pub get: Hist,
    pub put: Hist,
    pub remove: Hist,
    pub join: Hist,
    pub leave: Hist,
    pub recover: Hist,
    pub rejoin: Hist,
    pub setup_s: Vec<f64>,
    /// Throughput (ops/s) of each block of the timed phase.
    pub blocks: Vec<f64>,
    pub traced_blocks: Vec<f64>,
    pub balance_pct: Vec<f64>,
    pub reads: u64,
    pub stale_retries: u64,
    pub kv_member_ops: u64,
    pub kv_ranges: u64,
    pub kv_bytes_shipped: u64,
    pub repair_shipped: u64,
    pub repair_full: u64,
    pub keys_lost: u64,
    pub copies: u64,
    pub core_ops: u64,
    pub core_transfers: u64,
    pub user_bytes: u64,
    pub wal_bytes: u64,
    pub wal_segments: u64,
    pub rejoins: u64,
    pub rejoin_records: u64,
    pub rejoin_bytes: u64,
    pub rejoin_recovered: u64,
    pub torn: u64,
    pub ticks: u64,
    pub route_actions: u64,
    pub lease_violations: u64,
}

pub struct Client {
    pub keys: Vec<Bytes>,
    pub value_len: usize,
    pub m: Meter,
    pub tr: Tracer,
    next_op: u32,
}

impl Client {
    pub fn new(keys: Vec<Bytes>, value_len: usize, trace: bool) -> Self {
        Self { keys, value_len, m: Meter::default(), tr: Tracer::new(trace), next_op: 0 }
    }

    fn op_id(&mut self) -> u32 {
        let id = self.next_op;
        self.next_op = self.next_op.wrapping_add(1);
        id
    }

    /// Builds a cluster, timing it into `setup_s`.
    pub fn setup(&mut self, router: bool) -> Cluster {
        let t = Instant::now();
        let mut c = Cluster::build(&self.keys, self.value_len);
        if router {
            c.attach_router();
        }
        self.m.setup_s.push(t.elapsed().as_secs_f64());
        c
    }

    /// A routed quorum read on the pinned snapshot.
    pub fn get(&mut self, c: &mut Cluster, i: usize) {
        let op = self.op_id();
        let key = &self.keys[i];
        let root = self.tr.begin(op, NONE, "op.get");
        let s = self.tr.begin(op, root, "kv.get");
        let t = Instant::now();
        let mut rq = c.store.get_quorum_routed(&c.cell, &mut c.pin, &key[..]);
        let mut retries = rq.retries;
        if !rq.read.available() && c.cell.is_stale(&c.pin) {
            // The stale chain still held one copy, so the routed read
            // settled below quorum: re-pin and read again.
            c.pin = c.cell.load();
            rq = c.store.get_quorum_routed(&c.cell, &mut c.pin, &key[..]);
            retries += 1 + rq.retries;
        }
        let d = t.elapsed();
        self.tr.end(s);
        if self.tr.active() {
            // The two steps of the read path below the store, timed on
            // their own; the kv self time is what remains. They run after
            // the store call so that it pays the same cold misses as an
            // untraced read.
            let s = self.tr.begin(op, root, "hashspace.point");
            let point = black_box(Fnv1aHasher.point(black_box(key), c.pin.space()));
            self.tr.end(s);
            let s = self.tr.begin(op, root, "serve.replicas");
            black_box(c.pin.replicas(point, R));
            self.tr.end(s);
        }
        self.tr.end(root);
        self.m.get.record(d);
        self.m.reads += 1;
        self.m.stale_retries += u64::from(retries);
        let ok = match &c.oracle[i] {
            Some(v) => rq.read.available() && rq.read.value.as_deref() == Some(&v[..]),
            None => rq.read.value.is_none(),
        };
        self.m
            .tally
            .op(ok, || format!("get key {i}: {:?} hits/needed", (rq.read.hits, rq.read.needed)));
    }

    pub fn put(&mut self, c: &mut Cluster, i: usize) {
        let op = self.op_id();
        c.puts += 1;
        let v = value(i, c.puts, self.value_len);
        let key = self.keys[i].clone();
        self.m.user_bytes += (key.len() + v.len()) as u64;
        let root = self.tr.begin(op, NONE, "op.put");
        let s = self.tr.begin(op, root, "kv.put");
        let t = Instant::now();
        let prev = c.store.put(key.clone(), v.clone());
        let d = t.elapsed();
        self.tr.end(s);
        if self.tr.active() {
            let engine = c.store.engine();
            let point = Fnv1aHasher.point(&key, engine.config().hash_space());
            let s = self.tr.begin(op, root, "core.successor_walk");
            black_box(successor_snodes(engine, black_box(point)));
            self.tr.end(s);
        }
        self.tr.end(root);
        self.m.put.record(d);
        let ok = prev.as_deref() == c.oracle[i].as_deref();
        c.oracle[i] = Some(v);
        self.m.tally.op(ok, || format!("put key {i}: wrong previous value"));
    }

    pub fn remove(&mut self, c: &mut Cluster, i: usize) {
        let op = self.op_id();
        let key = &self.keys[i];
        self.m.user_bytes += key.len() as u64;
        let root = self.tr.begin(op, NONE, "op.remove");
        let s = self.tr.begin(op, root, "kv.remove");
        let t = Instant::now();
        let prev = c.store.remove(&key[..]);
        let d = t.elapsed();
        self.tr.end(s);
        self.tr.end(root);
        self.m.remove.record(d);
        let ok = prev.as_deref() == c.oracle[i].as_deref();
        c.oracle[i] = None;
        self.m.tally.op(ok, || format!("remove key {i}: wrong previous value"));
    }

    /// Publishes the builder's state as the next epoch.
    fn publish(
        &mut self,
        c: &mut Cluster,
        op: u32,
        root: u32,
        note: impl FnOnce(&mut SnapshotBuilder),
    ) {
        let s = self.tr.begin(op, root, "serve.publish");
        note(&mut c.builder);
        c.builder.publish(&c.cell);
        self.tr.end(s);
    }

    /// A single-vnode join on `snode`; the latency runs until the new
    /// epoch is published.
    pub fn join(&mut self, c: &mut Cluster, snode: SnodeId) {
        let op = self.op_id();
        let root = self.tr.begin(op, NONE, "op.join");
        let s = self.tr.begin(op, root, "kv.join");
        let t = Instant::now();
        let mut sink = OpSink { builder: &mut c.builder, renames: Vec::new() };
        let res = c.store.join_with(snode, &mut sink);
        let renames = sink.renames;
        self.tr.end(s);
        match res {
            Ok((out, rep)) => {
                self.publish(c, op, root, |b| b.note_create(out.vnode, snode));
                self.m.join.record(t.elapsed());
                self.tr.end(root);
                self.m.kv_member_ops += 1;
                self.m.kv_ranges += rep.ranges as u64;
                self.m.kv_bytes_shipped += rep.bytes_shipped;
                if let Some(ctl) = &mut c.control {
                    for (old, new) in renames {
                        ctl.router.note_rename(old, new);
                    }
                    ctl.router.note_join(out.vnode, snode, ctl.now);
                }
                c.log.push((op, MemberOp::Join { snode, created: out.vnode }));
                self.m.tally.op(true, String::new);
            }
            Err(e) => {
                self.tr.end(root);
                self.m.tally.op(false, || format!("join on {snode:?}: {e:?}"));
            }
        }
    }

    /// A graceful leave of vnode `v`.
    pub fn leave(&mut self, c: &mut Cluster, v: VnodeId) {
        let op = self.op_id();
        let root = self.tr.begin(op, NONE, "op.leave");
        let s = self.tr.begin(op, root, "kv.leave");
        let t = Instant::now();
        let mut sink = OpSink { builder: &mut c.builder, renames: Vec::new() };
        let res = c.store.leave_with(v, &mut sink);
        let renames = sink.renames;
        self.tr.end(s);
        match res {
            Ok((_, rep)) => {
                self.publish(c, op, root, |b| b.note_remove(v));
                self.m.leave.record(t.elapsed());
                self.tr.end(root);
                self.m.kv_member_ops += 1;
                self.m.kv_ranges += rep.ranges as u64;
                self.m.kv_bytes_shipped += rep.bytes_shipped;
                if let Some(ctl) = &mut c.control {
                    ctl.router.note_remove(v);
                    for (old, new) in renames {
                        ctl.router.note_rename(old, new);
                    }
                }
                c.log.push((op, MemberOp::Leave(v)));
                self.m.tally.op(true, String::new);
            }
            Err(e) => {
                self.tr.end(root);
                self.m.tally.op(false, || format!("leave of {v:?}: {e:?}"));
            }
        }
    }

    /// Crashes `snode` and repairs back to full redundancy; the latency
    /// is the time until every range is fully replicated again.
    pub fn recover(&mut self, c: &mut Cluster, snode: SnodeId) {
        let op = self.op_id();
        let root = self.tr.begin(op, NONE, "op.recover");
        let s = self.tr.begin(op, root, "kv.fail");
        let t = Instant::now();
        let res = {
            let mut sink = OpSink { builder: &mut c.builder, renames: Vec::new() };
            c.store.fail_snode_with(snode, &mut sink)
        };
        self.tr.end(s);
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                self.tr.end(root);
                self.m.tally.op(false, || format!("crash of {snode:?}: {e:?}"));
                return;
            }
        };
        self.publish(c, op, root, |b| b.note_fail(snode));
        let s = self.tr.begin(op, root, "kv.repair");
        let repair = c.store.repair();
        self.tr.end(s);
        self.m.recover.record(t.elapsed());
        self.tr.end(root);
        self.m.repair_shipped += repair.bytes_shipped;
        self.m.repair_full += repair.bytes_full;
        self.m.keys_lost += rep.keys_lost;
        if let Some(ctl) = &mut c.control {
            for &(old, new) in &rep.renames {
                ctl.router.note_rename(old, new);
            }
            ctl.router.note_fail(snode);
        }
        c.crashed.push(snode);
        c.log.push((op, MemberOp::Fail(snode)));
        let pending = c.store.has_pending_repair();
        self.m.tally.op(rep.keys_lost == 0 && !pending, || {
            format!("crash of {snode:?}: {} keys lost, repair pending {pending}", rep.keys_lost)
        });
    }

    /// Re-enrols a crashed snode and replays its WAL.
    pub fn rejoin(&mut self, c: &mut Cluster, snode: SnodeId) {
        let op = self.op_id();
        let root = self.tr.begin(op, NONE, "op.rejoin");
        let s = self.tr.begin(op, root, "kv.rejoin");
        let t = Instant::now();
        let mut sink = OpSink { builder: &mut c.builder, renames: Vec::new() };
        let res = c.store.rejoin_snode_with(snode, &mut sink);
        let renames = sink.renames;
        self.tr.end(s);
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                self.tr.end(root);
                self.m.tally.op(false, || format!("rejoin of {snode:?}: {e:?}"));
                return;
            }
        };
        let handles = rep.handles.clone();
        self.publish(c, op, root, |b| {
            for &v in &handles {
                b.note_create(v, snode);
            }
        });
        self.m.rejoin.record(t.elapsed());
        self.tr.end(root);
        self.m.rejoins += 1;
        self.m.rejoin_records += rep.wal_records;
        self.m.rejoin_bytes += rep.wal_bytes;
        self.m.rejoin_recovered += rep.recovered;
        self.m.torn += rep.torn;
        if let Some(ctl) = &mut c.control {
            for (old, new) in renames {
                ctl.router.note_rename(old, new);
            }
            ctl.router.note_capacity(snode, u32::try_from(rep.vnodes).unwrap_or(u32::MAX));
            for &v in &rep.handles {
                ctl.router.note_join(v, snode, ctl.now);
            }
        }
        c.crashed.retain(|&s| s != snode);
        c.log.push((op, MemberOp::Rejoin { snode, vnodes: rep.vnodes }));
        self.m
            .tally
            .op(rep.torn == 0, || format!("rejoin of {snode:?}: {} torn records", rep.torn));
    }

    /// One router window on the virtual clock: tick on the published
    /// loads, execute its actions, and check lease safety. Returns the
    /// number of operations issued.
    pub fn tick(&mut self, c: &mut Cluster) -> u64 {
        let op = self.op_id();
        let Some(ctl) = c.control.as_mut() else { return 0 };
        ctl.now += SimTime::millis(1_000);
        let s = self.tr.begin(op, NONE, "route.tick");
        let loads = c.cell.load();
        let report = ctl.router.tick(ctl.now, loads.loads());
        self.tr.end(s);
        self.m.ticks += 1;
        self.m.route_actions += report.actions.len() as u64;
        let mut issued = 1;
        for action in report.actions {
            match action {
                RouteAction::Failover { snode, .. } => {
                    if !c.vnodes_of(snode).is_empty() {
                        self.recover(c, snode);
                        issued += 1;
                    }
                }
                RouteAction::MoveVnode { from, to } => {
                    if let Some(&v) = c.vnodes_of(from).first() {
                        self.leave(c, v);
                        issued += 1;
                        if let Some(to) = to {
                            self.join(c, to);
                            issued += 1;
                        }
                    }
                }
            }
        }
        let roster = roster(c.store.engine());
        let ctl = c.control.as_ref().expect("checked above");
        if let Err(e) = ctl.router.verify(roster) {
            self.m.lease_violations += 1;
            self.m.tally.op(false, || format!("lease safety: {e}"));
        }
        issued
    }

    /// End-of-episode checks: replication invariants, every key against
    /// the oracle, the shadow engine's parity, and the must-be-zero
    /// counters. Also samples the end state for the report.
    pub fn verify(&mut self, c: &Cluster) {
        let rep = c.store.verify_replication();
        self.m.tally.op(rep.is_ok(), || format!("verify_replication: {rep:?}"));

        let mut bad = 0u64;
        for (i, k) in self.keys.iter().enumerate() {
            let q = c.store.get_quorum(&k[..]);
            let ok = match &c.oracle[i] {
                Some(v) => q.available() && q.value.as_deref() == Some(&v[..]),
                None => q.value.is_none(),
            };
            bad += u64::from(!ok);
        }
        self.m.tally.ops(self.keys.len() as u64, bad, || format!("oracle scan: {bad} keys differ"));
        let live = c.oracle.iter().filter(|v| v.is_some()).count() as u64;
        self.m.tally.op(c.store.len() == live, || {
            format!("store holds {} keys, oracle {live}", c.store.len())
        });

        self.shadow_parity(c);

        self.m.tally.op(self.m.keys_lost == 0, || format!("{} keys lost", self.m.keys_lost));
        self.m.tally.op(self.m.torn == 0, || format!("{} torn WAL records", self.m.torn));
        self.m.tally.op(self.m.lease_violations == 0, || {
            format!("{} lease violations", self.m.lease_violations)
        });
        self.m.balance_pct.push(c.store.engine().vnode_quota_relstd_pct());
        self.m.copies = c.store.copies();
        self.m.wal_segments = c.wal_segments();
    }

    /// Replays the episode's membership log on a bare engine built from
    /// the same seed, timing each engine call, and checks that it ends in
    /// the same state: same handles, vnode count and σ̄(Qv).
    fn shadow_parity(&mut self, c: &Cluster) {
        let mut shadow = build_engine();
        let was = self.tr.active();
        self.tr.set_active(true);
        let mut diverged = None;
        for &(op, kind) in &c.log {
            let mut count = CountOnly::default();
            let ok = match kind {
                MemberOp::Join { snode, created } => {
                    let s = self.tr.begin(op, NONE, "core.create");
                    let r = shadow.create_vnode_with(snode, &mut count);
                    self.tr.end(s);
                    matches!(r, Ok(out) if out.vnode == created)
                }
                MemberOp::Leave(v) => {
                    let s = self.tr.begin(op, NONE, "core.remove");
                    let r = shadow.remove_vnode_with(v, &mut count);
                    self.tr.end(s);
                    r.is_ok()
                }
                MemberOp::Fail(snode) => {
                    let s = self.tr.begin(op, NONE, "core.fail");
                    let r = shadow.fail_snode(snode, &mut count);
                    self.tr.end(s);
                    r.is_ok()
                }
                MemberOp::Rejoin { snode, vnodes } => {
                    let s = self.tr.begin(op, NONE, "core.rejoin");
                    let r = shadow.rejoin_snode(snode, vnodes, &mut count);
                    self.tr.end(s);
                    r.is_ok()
                }
            };
            self.m.core_ops += 1;
            self.m.core_transfers += count.transfers;
            if !ok && diverged.is_none() {
                diverged = Some(op);
            }
        }
        self.tr.set_active(was);
        let main = c.store.engine();
        let same = diverged.is_none()
            && shadow.vnode_count() == main.vnode_count()
            && shadow.vnode_quota_relstd_pct().to_bits() == main.vnode_quota_relstd_pct().to_bits();
        self.m.tally.op(same, || {
            format!(
                "shadow parity: diverged at op {diverged:?}, vnodes {} vs {}, relstd {} vs {}",
                shadow.vnode_count(),
                main.vnode_count(),
                shadow.vnode_quota_relstd_pct(),
                main.vnode_quota_relstd_pct()
            )
        });
    }

    /// Times standalone `SegmentedWal::append` of put records with this
    /// workload's key and value sizes (traced runs only).
    pub fn wal_probe(&mut self, batches: usize) {
        if !self.tr.enabled() {
            return;
        }
        self.tr.set_active(true);
        let mut wal = SegmentedWal::default();
        let record =
            WalRecord::Put { key: self.keys[0].clone(), value: value(0, 0, self.value_len) };
        for _ in 0..batches {
            let op = self.op_id();
            let s = self.tr.begin(op, NONE, "wal.append_batch");
            for _ in 0..WAL_BATCH {
                black_box(wal.append(black_box(&record)));
            }
            self.tr.end(s);
        }
        self.tr.set_active(false);
    }
}

/// The put path's placement walk: successors of `point` until `R`
/// distinct snodes are found.
fn successor_snodes(e: &LocalDht, point: u64) -> usize {
    let mut seen: Vec<SnodeId> = Vec::with_capacity(R);
    e.for_each_successor(point, &mut |v| {
        if let Ok(s) = e.snode_of(v) {
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        seen.len() < R
    });
    seen.len()
}

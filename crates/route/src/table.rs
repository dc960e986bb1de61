//! The client-side route table: [`RouteCache`], a pinned routing
//! snapshot with ≤1-round stale repair.
//!
//! A route version *is* a serving-plane epoch: clients route through the
//! [`EngineSnapshot`] they pinned from a [`SnapshotCell`], and a newer
//! publish is detected by one atomic epoch load. Every resolution
//! repairs staleness in **at most one round**: if the cell's epoch moved
//! past the pin, the cache re-pins once and resolves on the fresh
//! snapshot. Keyed KV reads repair through `domus_core::read_routed`
//! instead, which re-pins only while the key itself misses.

use domus_core::{EngineSnapshot, RouteStats, SnapshotCell, SnodeId, VnodeId};
use std::sync::Arc;

/// A client-side route cache with ≤1-round stale-route repair.
///
/// Holds the last snapshot pinned from a [`SnapshotCell`].
/// [`RouteCache::lookup`] resolves against the pin after at most one
/// refresh: the pin is replaced exactly when the cell published a newer
/// epoch. Every resolution lands in the cache's [`RouteStats`] block.
#[derive(Debug)]
pub struct RouteCache {
    cell: Arc<SnapshotCell>,
    pinned: Arc<EngineSnapshot>,
    stats: Arc<RouteStats>,
}

impl RouteCache {
    /// A cache pinned to `cell`'s current epoch.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        let pinned = cell.load();
        Self { cell, pinned, stats: Arc::new(RouteStats::new()) }
    }

    /// The snapshot currently pinned; its `epoch()` is the route version.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.pinned
    }

    /// The stat block resolutions are tallied into.
    pub fn stats(&self) -> &Arc<RouteStats> {
        &self.stats
    }

    /// Re-pins if (and only if) the cell published past the pin.
    /// Returns `true` when a refresh happened — the "stale" half of the
    /// hit/stale ratio.
    pub fn refresh(&mut self) -> bool {
        if self.cell.is_stale(&self.pinned) {
            self.pinned = self.cell.load();
            true
        } else {
            false
        }
    }

    /// Routes a hash point through the cache: at most one refresh, then
    /// a lookup on the pinned snapshot. Records one read (stale iff a
    /// refresh happened) into the stat block.
    pub fn lookup(&mut self, point: u64) -> Option<(VnodeId, SnodeId)> {
        let refreshed = self.refresh();
        let hit = self.pinned.lookup(point);
        self.stats.record(u32::from(refreshed), hit.is_none());
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{DhtConfig, DhtEngine, LocalDht, SnapshotBuilder};
    use domus_hashspace::HashSpace;

    fn grown(snodes: u32) -> (LocalDht, SnapshotBuilder, Arc<SnapshotCell>) {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut dht = LocalDht::with_seed(cfg, 2004);
        for s in 0..snodes {
            dht.create_vnode(SnodeId(s)).unwrap();
        }
        let builder = SnapshotBuilder::from_engine(&dht);
        let cell = Arc::new(SnapshotCell::new(builder.snapshot()));
        (dht, builder, cell)
    }

    #[test]
    fn table_is_a_strict_layer_over_the_snapshot() {
        let (dht, _, cell) = grown(6);
        let mut cache = RouteCache::new(Arc::clone(&cell));
        let snap = cell.load();
        assert_eq!(cache.snapshot().epoch(), 0);
        for i in 0..512u64 {
            let point = snap.space().fold(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert_eq!(cache.lookup(point), snap.lookup(point), "the cache must delegate");
            // And the snapshot agrees with the live engine at this epoch.
            let (_, owner) = dht.lookup(point).unwrap();
            assert_eq!(snap.owner_of(point), Some(owner));
        }
        assert_eq!(cache.stats().counters().stale_reads, 0);
    }

    #[test]
    fn versions_are_monotone_across_publishes() {
        let (mut dht, mut builder, cell) = grown(4);
        let mut cache = RouteCache::new(Arc::clone(&cell));
        let mut last = cache.snapshot().epoch();
        for s in 4..10u32 {
            let out = dht.create_vnode_with(SnodeId(s), &mut builder).unwrap();
            builder.note_create(out.vnode, SnodeId(s));
            builder.publish(&cell);
            assert!(cache.refresh(), "a publish must stale the pin");
            let v = cache.snapshot().epoch();
            assert!(v > last, "versions must be monotone: {v} after {last}");
            last = v;
        }
        assert!(!cache.refresh(), "a current pin does not refresh");
    }

    #[test]
    fn cache_repairs_staleness_in_one_round() {
        let (mut dht, mut builder, cell) = grown(4);
        let mut cache = RouteCache::new(Arc::clone(&cell));
        let grid: Vec<u64> = (0..64u64).map(|i| i << 26).collect();
        for &p in &grid {
            cache.lookup(p);
        }
        let before = cache.stats().counters();
        assert_eq!(before.reads, 64);
        assert_eq!(before.stale_reads, 0, "a fresh pin never refreshes");
        // One membership change → exactly one refresh over the next sweep.
        let out = dht.create_vnode_with(SnodeId(9), &mut builder).unwrap();
        builder.note_create(out.vnode, SnodeId(9));
        builder.publish(&cell);
        for &p in &grid {
            let cached = cache.lookup(p);
            let (_, owner) = dht.lookup(p).unwrap();
            assert_eq!(cached.map(|(v, _)| v), Some(owner), "repaired route must be live");
        }
        let delta = cache.stats().counters().since(before);
        assert_eq!(delta.reads, 64);
        assert_eq!(delta.stale_reads, 1, "≤1-round repair: one refresh per epoch, not per read");
        assert_eq!(cache.snapshot().epoch(), cell.epoch());
    }
}

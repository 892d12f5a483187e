//! The always-on counter/gauge registry.
//!
//! Every instrument is a `static` declared here, so registration is free
//! and the full set is enumerable at compile time ([`counters`],
//! [`digests`], [`BANK_ACTS`]). Instrumented crates only ever *write*
//! (`add`, `observe`, `touch`); reading happens exclusively through
//! [`Snapshot`] in the reporting layer. The `obs-purity` rule in
//! `sam-analyze` makes that split structural for the scheduler modules.
//!
//! With the `rt` feature off, every instrument is a name-only zero-state
//! struct and every write is an empty inlined function — the compile-time
//! no-op path, pinned by the `disabled_path_is_inert` test below (run in
//! CI via `cargo test -p sam-obs --no-default-features`).

#[cfg(feature = "rt")]
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    #[cfg(feature = "rt")]
    cell: AtomicU64,
}

impl Counter {
    /// Creates a counter (used only for the statics below).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            #[cfg(feature = "rt")]
            cell: AtomicU64::new(0),
        }
    }

    /// Adds `n` events. Relaxed; no ordering is implied between counters.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "rt")]
        self.cell.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "rt"))]
        let _ = n;
    }

    /// Current value (0 when the runtime path is compiled out).
    #[must_use]
    pub fn value(&self) -> u64 {
        #[cfg(feature = "rt")]
        {
            self.cell.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "rt"))]
        {
            0
        }
    }

    /// The counter's registry name (`area.event` convention).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Bucket count of a [`Digest`]: power-of-two depth classes
/// `0, 1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+`.
pub const DIGEST_BUCKETS: usize = 8;

/// A power-of-two histogram for queue-depth style gauges: each
/// observation increments the bucket of its magnitude class, so the
/// digest records the *distribution* of an instantaneous quantity
/// without ever being read back by the code that feeds it.
#[derive(Debug)]
pub struct Digest {
    name: &'static str,
    #[cfg(feature = "rt")]
    buckets: [AtomicU64; DIGEST_BUCKETS],
}

impl Digest {
    /// Creates a digest (used only for the statics below).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            #[cfg(feature = "rt")]
            buckets: [const { AtomicU64::new(0) }; DIGEST_BUCKETS],
        }
    }

    /// Records one observation of `value` (e.g. a queue depth at enqueue).
    #[inline(always)]
    pub fn observe(&self, value: usize) {
        #[cfg(feature = "rt")]
        {
            let class = (usize::BITS - value.leading_zeros()) as usize;
            let idx = class.min(DIGEST_BUCKETS - 1);
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(not(feature = "rt"))]
        let _ = value;
    }

    /// Bucket counts (all zero when the runtime path is compiled out).
    #[must_use]
    pub fn buckets(&self) -> [u64; DIGEST_BUCKETS] {
        #[cfg(feature = "rt")]
        {
            let mut out = [0; DIGEST_BUCKETS];
            for (o, b) in out.iter_mut().zip(&self.buckets) {
                *o = b.load(Ordering::Relaxed);
            }
            out
        }
        #[cfg(not(feature = "rt"))]
        {
            [0; DIGEST_BUCKETS]
        }
    }

    /// The digest's registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Ranks covered by the [`Heatmap`] (larger indices fold modulo).
pub const HEATMAP_RANKS: usize = 4;
/// Bank groups per rank covered by the [`Heatmap`].
pub const HEATMAP_GROUPS: usize = 4;
/// Banks per group covered by the [`Heatmap`].
pub const HEATMAP_BANKS: usize = 4;
/// Total heatmap cells.
pub const HEATMAP_CELLS: usize = HEATMAP_RANKS * HEATMAP_GROUPS * HEATMAP_BANKS;

/// A per-bank event heatmap (row activations, in practice). Geometry is
/// fixed at the largest device the workspace models (4×4×4); devices
/// with fewer ranks/groups/banks simply leave the upper cells at zero,
/// and anything larger folds modulo the grid.
#[derive(Debug)]
pub struct Heatmap {
    #[cfg(feature = "rt")]
    cells: [AtomicU64; HEATMAP_CELLS],
}

impl Heatmap {
    /// Creates a heatmap (used only for the statics below).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            #[cfg(feature = "rt")]
            cells: [const { AtomicU64::new(0) }; HEATMAP_CELLS],
        }
    }

    /// Records one event on `(rank, bank_group, bank)`.
    #[inline(always)]
    pub fn touch(&self, rank: usize, bank_group: usize, bank: usize) {
        #[cfg(feature = "rt")]
        {
            let idx = (rank % HEATMAP_RANKS) * HEATMAP_GROUPS * HEATMAP_BANKS
                + (bank_group % HEATMAP_GROUPS) * HEATMAP_BANKS
                + bank % HEATMAP_BANKS;
            self.cells[idx].fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(not(feature = "rt"))]
        let _ = (rank, bank_group, bank);
    }

    /// Flat cell counts in `(rank, group, bank)` row-major order.
    #[must_use]
    pub fn cells(&self) -> [u64; HEATMAP_CELLS] {
        #[cfg(feature = "rt")]
        {
            let mut out = [0; HEATMAP_CELLS];
            for (o, c) in out.iter_mut().zip(&self.cells) {
                *o = c.load(Ordering::Relaxed);
            }
            out
        }
        #[cfg(not(feature = "rt"))]
        {
            [0; HEATMAP_CELLS]
        }
    }
}

impl Default for Heatmap {
    fn default() -> Self {
        Self::new()
    }
}

/// FR-FCFS scheduling decisions taken (written by `sched.rs`; write-only
/// there).
pub static SCHED_SELECTS: Counter = Counter::new("sched.selects");
/// Requests accepted into the controller queues.
pub static CTRL_REQUESTS: Counter = Counter::new("ctrl.requests_enqueued");
/// Starvation-cap interventions (aged request forced ahead of row hits).
pub static CTRL_STARVED: Counter = Counter::new("ctrl.starvation_forced");
/// REF commands issued by the controller's refresh engine.
pub static CTRL_REFRESHES: Counter = Counter::new("ctrl.refreshes");
/// ACT commands issued to the device.
pub static DRAM_ACTS: Counter = Counter::new("dram.acts");
/// PRE commands issued to the device.
pub static DRAM_PRES: Counter = Counter::new("dram.pres");
/// Column reads (wide or narrow) issued to the device.
pub static DRAM_COL_READS: Counter = Counter::new("dram.col_reads");
/// Column writes (wide or narrow) issued to the device.
pub static DRAM_COL_WRITES: Counter = Counter::new("dram.col_writes");
/// MRS I/O-mode switches issued to the device.
pub static DRAM_MODE_SWITCHES: Counter = Counter::new("dram.mode_switches");
/// Accesses that missed the whole hierarchy and went to memory.
pub static CACHE_MEM_MISSES: Counter = Counter::new("cache.mem_misses");
/// Sector misses on otherwise-present lines (the strided-fill case).
pub static CACHE_SECTOR_MISSES: Counter = Counter::new("cache.sector_misses");
/// DRAM commands shadowed by the protocol oracle.
pub static ORACLE_COMMANDS: Counter = Counter::new("oracle.commands");
/// Simulated memory cycles completed (summed over finished runs; the
/// heartbeat's live cycles/sec numerator).
pub static SIM_CYCLES: Counter = Counter::new("sim.cycles");
/// JSON documents written by the reporting layer.
pub static JSON_DOCS: Counter = Counter::new("emit.json_docs");

/// Read-queue depth observed at each enqueue.
pub static READQ_DEPTH: Digest = Digest::new("ctrl.readq_depth");
/// Write-queue depth observed at each enqueue.
pub static WRITEQ_DEPTH: Digest = Digest::new("ctrl.writeq_depth");

/// Per-bank row activations.
pub static BANK_ACTS: Heatmap = Heatmap::new();

/// Every registered counter, in report order.
#[must_use]
pub fn counters() -> [&'static Counter; 14] {
    [
        &SCHED_SELECTS,
        &CTRL_REQUESTS,
        &CTRL_STARVED,
        &CTRL_REFRESHES,
        &DRAM_ACTS,
        &DRAM_PRES,
        &DRAM_COL_READS,
        &DRAM_COL_WRITES,
        &DRAM_MODE_SWITCHES,
        &CACHE_MEM_MISSES,
        &CACHE_SECTOR_MISSES,
        &ORACLE_COMMANDS,
        &SIM_CYCLES,
        &JSON_DOCS,
    ]
}

/// Every registered digest, in report order.
#[must_use]
pub fn digests() -> [&'static Digest; 2] {
    [&READQ_DEPTH, &WRITEQ_DEPTH]
}

/// A point-in-time reading of the whole registry. Deltas between two
/// snapshots scope the registry to one run of interest (the profile
/// report takes one at session start and one at export).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` per counter, in [`counters`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, buckets)` per digest, in [`digests`] order.
    pub digests: Vec<(&'static str, [u64; DIGEST_BUCKETS])>,
    /// [`BANK_ACTS`] cells, flat.
    pub heatmap: Vec<u64>,
}

impl Snapshot {
    /// Reads every instrument now.
    #[must_use]
    pub fn take() -> Self {
        Self {
            counters: counters().iter().map(|c| (c.name(), c.value())).collect(),
            digests: digests().iter().map(|d| (d.name(), d.buckets())).collect(),
            heatmap: BANK_ACTS.cells().to_vec(),
        }
    }

    /// The change since `earlier` (saturating, so a malformed pairing
    /// never underflows).
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .zip(&earlier.counters)
            .map(|(&(n, v), &(_, e))| (n, v.saturating_sub(e)))
            .collect();
        let digests = self
            .digests
            .iter()
            .zip(&earlier.digests)
            .map(|(&(n, b), &(_, eb))| {
                let mut out = [0; DIGEST_BUCKETS];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = b[i].saturating_sub(eb[i]);
                }
                (n, out)
            })
            .collect();
        let heatmap = self
            .heatmap
            .iter()
            .zip(&earlier.heatmap)
            .map(|(v, e)| v.saturating_sub(*e))
            .collect();
        Self {
            counters,
            digests,
            heatmap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "rt")]
    #[test]
    fn counters_count_and_snapshot_deltas_subtract() {
        let before = Snapshot::take();
        SCHED_SELECTS.add(3);
        READQ_DEPTH.observe(0);
        READQ_DEPTH.observe(5);
        BANK_ACTS.touch(1, 2, 3);
        let after = Snapshot::take();
        let d = after.delta(&before);
        let sel = d.counters.iter().find(|(n, _)| *n == "sched.selects");
        assert_eq!(sel.map(|&(_, v)| v), Some(3));
        let rq = d.digests.iter().find(|(n, _)| *n == "ctrl.readq_depth");
        let buckets = rq.map(|&(_, b)| b).unwrap();
        assert_eq!(buckets[0], 1); // depth 0
        assert_eq!(buckets[3], 1); // depth 5 -> class 4-7
        let idx = HEATMAP_GROUPS * HEATMAP_BANKS + 2 * HEATMAP_BANKS + 3;
        assert_eq!(d.heatmap[idx], 1);
    }

    #[cfg(feature = "rt")]
    #[test]
    fn digest_bucket_classes_are_power_of_two() {
        let d = Digest::new("test.depth");
        for (value, class) in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (31, 5), (64, 7)] {
            let before = d.buckets();
            d.observe(value);
            let after = d.buckets();
            assert_eq!(after[class], before[class] + 1, "value {value}");
        }
        // Everything at or beyond 64 lands in the last bucket.
        d.observe(1 << 20);
        assert!(d.buckets()[DIGEST_BUCKETS - 1] >= 2);
    }

    #[cfg(feature = "rt")]
    #[test]
    fn heatmap_folds_out_of_range_coordinates() {
        let h = Heatmap::new();
        h.touch(HEATMAP_RANKS + 1, 0, 0);
        assert_eq!(h.cells()[HEATMAP_GROUPS * HEATMAP_BANKS], 1);
    }

    /// The compile-time no-op guarantee: with `rt` off, instruments carry
    /// no state beyond their name, writes do nothing, and reads are zero.
    /// CI runs this under `--no-default-features`.
    #[cfg(not(feature = "rt"))]
    #[test]
    fn disabled_path_is_inert() {
        assert_eq!(
            std::mem::size_of::<Counter>(),
            std::mem::size_of::<&'static str>()
        );
        assert_eq!(std::mem::size_of::<Heatmap>(), 0);
        SCHED_SELECTS.add(100);
        READQ_DEPTH.observe(7);
        BANK_ACTS.touch(0, 0, 0);
        assert_eq!(SCHED_SELECTS.value(), 0);
        assert_eq!(READQ_DEPTH.buckets(), [0; DIGEST_BUCKETS]);
        assert_eq!(BANK_ACTS.cells(), [0; HEATMAP_CELLS]);
        let snap = Snapshot::take();
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn registry_names_are_unique() {
        let snap = Snapshot::take();
        let mut names: Vec<&str> = snap.counters.iter().map(|&(n, _)| n).collect();
        names.extend(snap.digests.iter().map(|&(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}

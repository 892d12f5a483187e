//! The FR-FCFS open-page memory controller (Table 2).
//!
//! Scheduling model: among all queued requests, the controller estimates the
//! earliest cycle each could perform its column access (row hits need no
//! PRE/ACT and thus sort first — the "first-ready" half of FR-FCFS), breaking
//! ties by arrival order ("FCFS"). The chosen request's command sequence
//! (optional MRS mode switch, PRE on conflict, ACT, then RD/WR) is issued at
//! the earliest legal cycles against the device's timing state machines.
//!
//! Pure first-ready ordering can starve: an unbroken stream of row-hit
//! arrivals to an open row keeps outrunning an older request that needs a
//! PRE/ACT. The scheduler therefore carries a starvation cap
//! ([`ControllerConfig::starvation_cap`]): once the oldest queued request
//! has waited longer than the cap, it is scheduled next unconditionally,
//! bounding worst-case queueing delay at the cost of one row switch.
//!
//! Writes collect in a 32-entry write queue and drain in batches between the
//! high and low watermarks, as in real controllers; reads otherwise have
//! priority. Refresh is issued per rank every tREFI.

use sam_dram::command::Command;
use sam_dram::device::{DeviceConfig, DeviceStats, MemoryDevice};
use sam_dram::Cycle;

use crate::mapping::{AddressMapper, Location};
use crate::request::{Completion, MemRequest, Provenance, ReqKind};
use crate::sched;
use crate::wake::TimeWheel;
use queues::Queue;
use sam_obs::profile::phase;
use sam_obs::registry as obs;
use sam_trace::event::track;
use sam_trace::{Category, EpochCounters, SharedEpochs, SinkSlot, TraceEvent};
use sam_util::hist::Histogram;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Device geometry and timing.
    pub device: DeviceConfig,
    /// Write queue capacity (Table 2: 32).
    pub write_queue_capacity: usize,
    /// Start draining writes at this occupancy.
    pub write_high_watermark: usize,
    /// Stop draining at this occupancy.
    pub write_low_watermark: usize,
    /// Read queue capacity.
    pub read_queue_capacity: usize,
    /// Whether periodic refresh is issued (DRAM yes, RRAM no).
    pub refresh_enabled: bool,
    /// FR-FCFS starvation cap in memory cycles: once the oldest queued
    /// request has waited longer than this, it wins the next scheduling
    /// decision regardless of row-buffer state. Prevents an unbroken
    /// stream of younger row hits from starving an older row miss.
    pub starvation_cap: Cycle,
    /// Use the naive whole-queue scan ([`sched::select_reference`])
    /// instead of the incremental group index for every scheduling
    /// decision. A differential-testing knob, not a policy change: the
    /// two implementations are exact equivalents, and the `sam-stress`
    /// matrix replays streams through both to prove it.
    pub reference_scheduler: bool,
}

impl ControllerConfig {
    /// Table 2 defaults over the given device.
    pub fn with_device(device: DeviceConfig) -> Self {
        let refresh_enabled = device.timing.needs_refresh();
        Self {
            device,
            write_queue_capacity: 32,
            write_high_watermark: 28,
            write_low_watermark: 8,
            read_queue_capacity: 96,
            refresh_enabled,
            starvation_cap: 4096,
            reference_scheduler: false,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::with_device(DeviceConfig::ddr4_server())
    }
}

/// Why an `enqueue` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueFull {
    /// Whether it was the write queue (else the read queue).
    pub write_queue: bool,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queue full",
            if self.write_queue { "write" } else { "read" }
        )
    }
}

impl std::error::Error for QueueFull {}

/// Row-buffer outcome counters and latency accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// Column accesses to a closed bank.
    pub row_misses: u64,
    /// Column accesses that required closing another row first.
    pub row_conflicts: u64,
    /// Completed reads (regular + stride).
    pub reads_done: u64,
    /// Completed writes (regular + stride).
    pub writes_done: u64,
    /// Sum over completions of (finish - arrival), for average latency.
    pub total_latency: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Scheduling decisions forced by the starvation cap: the oldest queued
    /// request had waited longer than [`ControllerConfig::starvation_cap`]
    /// and was served regardless of row-buffer state.
    pub starvation_forced: u64,
}

impl ControllerStats {
    /// Average request latency in cycles, if anything completed.
    pub fn avg_latency(&self) -> Option<f64> {
        let n = self.reads_done + self.writes_done;
        (n > 0).then(|| self.total_latency as f64 / n as f64)
    }

    /// Row-hit rate over all column accesses.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let n = self.row_hits + self.row_misses + self.row_conflicts;
        (n > 0).then(|| self.row_hits as f64 / n as f64)
    }
}

/// One provenance lane's slice of the aggregate [`ControllerStats`].
///
/// Lanes cover every counter that is attributable to a single request:
/// row-buffer outcomes, completions, service latency, and starvation
/// firings. Refreshes are rank-level background work with no originating
/// request, so they stay aggregate-only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// Column accesses to a closed bank.
    pub row_misses: u64,
    /// Column accesses that required closing another row first.
    pub row_conflicts: u64,
    /// Completed reads.
    pub reads_done: u64,
    /// Completed writes.
    pub writes_done: u64,
    /// Sum over completions of (finish - arrival).
    pub total_latency: u64,
    /// Scheduling decisions forced by the starvation cap.
    pub starvation_forced: u64,
}

impl LaneStats {
    /// Adds `other` field-wise.
    pub fn accumulate(&mut self, other: &LaneStats) {
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.reads_done += other.reads_done;
        self.writes_done += other.writes_done;
        self.total_latency += other.total_latency;
        self.starvation_forced += other.starvation_forced;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == LaneStats::default()
    }
}

/// Per-core × per-kind stat lanes that telescope to the aggregate
/// [`ControllerStats`]: summing every lane reproduces the aggregate
/// counters exactly (minus `refreshes`, which no request owns). The lane
/// table grows on demand to the highest core id observed, so untagged
/// streams cost one 5-lane row for core 0 and nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreLanes {
    lanes: Vec<[LaneStats; ReqKind::COUNT]>,
}

impl CoreLanes {
    pub(super) fn lane_mut(&mut self, prov: Provenance) -> &mut LaneStats {
        let core = prov.core as usize;
        if core >= self.lanes.len() {
            self.lanes
                .resize(core + 1, [LaneStats::default(); ReqKind::COUNT]);
        }
        &mut self.lanes[core][prov.kind.index()]
    }

    /// Rebuilds the lane table from per-core rows in (core, kind-index)
    /// layout — the inverse of reading every [`Self::lane`] back out.
    /// Exists for deserialization (the sweep shard envelopes); simulation
    /// populates lanes only through request provenance.
    pub fn from_rows(rows: Vec<[LaneStats; ReqKind::COUNT]>) -> Self {
        Self { lanes: rows }
    }

    /// Number of core rows (highest observed core id + 1; 0 when idle).
    pub fn cores(&self) -> usize {
        self.lanes.len()
    }

    /// The lane for (`core`, `kind`); all-zero for cores never observed.
    pub fn lane(&self, core: u8, kind: ReqKind) -> LaneStats {
        self.lanes
            .get(core as usize)
            .map_or_else(LaneStats::default, |row| row[kind.index()])
    }

    /// Sum of all kinds for one core.
    pub fn core_total(&self, core: u8) -> LaneStats {
        let mut total = LaneStats::default();
        if let Some(row) = self.lanes.get(core as usize) {
            for lane in row {
                total.accumulate(lane);
            }
        }
        total
    }

    /// Sum over every (core, kind) lane — must equal the aggregate
    /// [`ControllerStats`] counters (the telescoping invariant).
    pub fn total(&self) -> LaneStats {
        let mut total = LaneStats::default();
        for row in &self.lanes {
            for lane in row {
                total.accumulate(lane);
            }
        }
        total
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: MemRequest,
    loc: Location,
    arrival: Cycle,
    /// Per-controller enqueue sequence number: increases with every
    /// enqueue, so queue order is seq order.
    seq: u64,
}

impl Pending {
    /// The policy-visible projection (arrival, location, required mode —
    /// never provenance).
    fn view(&self) -> sched::SchedView {
        sched::SchedView {
            arrival: self.arrival,
            loc: self.loc,
            mode: self.req.required_mode(),
        }
    }
}

/// What a stored controller wake entry is for (DESIGN.md §13).
///
/// Only *sparse, self-re-arming* time-based publishers store entries in
/// the controller's [`TimeWheel`]: today that is rank refresh, whose
/// entry is re-armed one tREFI ahead at every issue. The other wake
/// publishers the event-driven core relies on are folded in at query
/// time by [`Controller::next_wake`] instead of being stored:
///
/// * **queued arrivals** and **bank timing gates** change on nearly
///   every command, so storing each change would cost a heap operation
///   per command for entries that are almost always superseded before
///   they fire — the fold recomputes the two minima on demand;
/// * the **write-drain hysteresis latch** is queue-depth-driven, not
///   time-driven: it can only flip at an enqueue or a completion, both
///   of which already re-enter the scheduler, so its wake is delivered
///   synchronously and it has no future cycle to publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WakeSource {
    /// Rank `rank`'s next refresh falls due at the entry's cycle.
    Refresh {
        /// The rank whose tREFI deadline this entry tracks.
        rank: usize,
    },
}

/// The memory controller: queues, FR-FCFS scheduler, refresh state, and the
/// owned [`MemoryDevice`].
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    device: MemoryDevice,
    mapper: AddressMapper,
    readq: Queue,
    writeq: Queue,
    /// Sequence number the next enqueued request gets.
    next_seq: u64,
    draining_writes: bool,
    next_refresh: Vec<Cycle>,
    clock: Cycle,
    stats: ControllerStats,
    lanes: CoreLanes,
    latency_hist: Histogram,
    read_latency_hist: Histogram,
    write_latency_hist: Histogram,
    trace: SinkSlot,
    epochs: Option<SharedEpochs>,
    /// Stored wake entries (rank refresh deadlines; see [`WakeSource`]).
    wheel: TimeWheel<WakeSource>,
}

impl Controller {
    /// Creates an idle controller.
    pub fn new(cfg: ControllerConfig) -> Self {
        let device = MemoryDevice::new(cfg.device);
        let mapper = AddressMapper::new(&cfg.device);
        let refi = cfg.device.timing.refi;
        let next_refresh: Vec<Cycle> = (0..cfg.device.ranks)
            .map(|r| {
                if cfg.refresh_enabled {
                    refi + (r as u64 * refi / cfg.device.ranks as u64)
                } else {
                    u64::MAX
                }
            })
            .collect();
        // Seed the wheel with each rank's first refresh deadline; every
        // issue in `service_refresh` re-arms its rank one tREFI ahead.
        let mut wheel = TimeWheel::new();
        for (rank, &due) in next_refresh.iter().enumerate() {
            if due != u64::MAX {
                wheel.push(due, WakeSource::Refresh { rank });
            }
        }
        Self {
            cfg,
            device,
            mapper,
            readq: Queue::default(),
            writeq: Queue::default(),
            next_seq: 0,
            draining_writes: false,
            next_refresh,
            clock: 0,
            stats: ControllerStats::default(),
            lanes: CoreLanes::default(),
            latency_hist: Histogram::new(),
            read_latency_hist: Histogram::new(),
            write_latency_hist: Histogram::new(),
            trace: SinkSlot::default(),
            epochs: None,
            wheel,
        }
    }

    /// Per-request latency histogram (arrival to last data beat).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Latency histogram over completed reads only.
    pub fn read_latency_histogram(&self) -> &Histogram {
        &self.read_latency_hist
    }

    /// Latency histogram over completed writes only.
    pub fn write_latency_histogram(&self) -> &Histogram {
        &self.write_latency_hist
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Per-core × per-kind stat lanes (telescope to [`Self::stats`]).
    pub fn per_core(&self) -> &CoreLanes {
        &self.lanes
    }

    /// Device command counters (input of the power model).
    pub fn device_stats(&self) -> &DeviceStats {
        self.device.stats()
    }

    /// The owned device (e.g. for bus-utilization stats).
    pub fn device(&self) -> &MemoryDevice {
        &self.device
    }

    /// Attaches a command observer to the underlying device; every accepted
    /// command is reported to it (see [`sam_dram::observe`]).
    #[cfg(feature = "check")]
    pub fn attach_observer(&mut self, observer: sam_dram::observe::SharedObserver) {
        self.device.attach_observer(observer);
    }

    /// Attaches a trace sink; scheduling decisions (enqueues, write-drain
    /// windows, starvation firings, refresh windows, per-request service
    /// spans) are recorded as [`TraceEvent`]s. Purely observational: the
    /// schedule is identical with or without a sink.
    pub fn attach_trace(&mut self, sink: sam_trace::SharedSink) {
        self.trace.attach(sink);
    }

    /// Whether a trace sink is attached.
    pub fn trace_attached(&self) -> bool {
        self.trace.is_attached()
    }

    /// Attaches an epoch recorder; cumulative counters are sampled at every
    /// completion and folded into per-epoch delta rows.
    pub fn attach_epochs(&mut self, epochs: SharedEpochs) {
        self.epochs = Some(epochs);
    }

    /// Closes the final (partial) epoch at `now`. Call once at end of run;
    /// harmless when no epoch recorder is attached.
    pub fn finish_epochs(&mut self, now: Cycle) {
        if let Some(ep) = &self.epochs {
            let snap = self.epoch_snapshot();
            ep.lock()
                .expect("epoch recorder lock poisoned")
                .finish(now.max(self.clock), snap);
        }
    }

    /// Cumulative counter snapshot across controller, device, and data bus.
    fn epoch_snapshot(&self) -> EpochCounters {
        let s = &self.stats;
        let d = self.device.stats();
        EpochCounters {
            reads: s.reads_done,
            writes: s.writes_done,
            row_hits: s.row_hits,
            row_misses: s.row_misses,
            row_conflicts: s.row_conflicts,
            refreshes: s.refreshes,
            starved: s.starvation_forced,
            latency: s.total_latency,
            acts: d.acts,
            pres: d.pres,
            mode_switches: d.mode_switches,
            bus_busy: self.device.channel().busy_cycles,
        }
    }

    /// Samples cumulative counters into the epoch recorder at `now`.
    pub(super) fn note_epoch(&mut self, now: Cycle) {
        if let Some(ep) = &self.epochs {
            let snap = self.epoch_snapshot();
            ep.lock().expect("epoch recorder lock poisoned").tick(
                now,
                snap,
                self.readq.len() as u64,
                self.writeq.len() as u64,
            );
        }
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Internal scheduler clock (last command issue time).
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Number of queued requests (reads + writes).
    pub fn queued(&self) -> usize {
        self.readq.len() + self.writeq.len()
    }

    /// The active configuration (after any per-design or CLI overrides).
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }
}

mod drain;
mod queues;
mod refresh;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::StrideSpec;
    use sam_dram::timing::TimingParams;

    fn ctrl() -> Controller {
        Controller::new(ControllerConfig::default())
    }

    fn t() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn single_read_latency_is_rcd_plus_cl_plus_burst() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        let done = c.drain(0);
        assert_eq!(done.len(), 1);
        let t = t();
        assert_eq!(done[0].finish, t.rcd + t.cl + t.burst);
        assert!(!done[0].row_hit);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn same_row_requests_hit() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 64), 0).unwrap();
        c.enqueue(MemRequest::read(3, 128), 0).unwrap();
        let done = c.drain(0);
        assert_eq!(done.len(), 3);
        assert_eq!(c.stats().row_hits, 2);
        assert_eq!(c.stats().row_misses, 1);
        // Streaming reads pipeline at tCCD_L (same bank group): gaps of
        // ccd_l between column commands.
        let t = t();
        assert_eq!(done[1].issue - done[0].issue, t.ccd_l);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let mut c = ctrl();
        // First open row 0 (addr 0)..
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        let _ = c.schedule_one(0).unwrap();
        // ..then queue an older conflicting request (row 1 of the same
        // physical bank: +256KB moves to row 1, and the +8KB bank-field
        // increment cancels the XOR permutation) and a newer row hit.
        let conflict_addr = 256 * 1024 + 8 * 1024;
        c.enqueue(MemRequest::read(2, conflict_addr), 1).unwrap();
        c.enqueue(MemRequest::read(3, 64), 2).unwrap();
        let first = c.schedule_one(0).unwrap();
        assert_eq!(first.id, 3, "row hit scheduled before older conflict");
        assert!(first.row_hit);
        let second = c.schedule_one(0).unwrap();
        assert_eq!(second.id, 2);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    /// The fixed starvation bug: an unbroken stream of younger row hits
    /// used to outrank an older row-conflict read forever. With the cap,
    /// the old request is forced once its wait exceeds the threshold.
    #[test]
    fn starvation_cap_forces_oldest_row_miss() {
        let run = |cap: u64| -> Option<u64> {
            let cfg = ControllerConfig {
                starvation_cap: cap,
                ..Default::default()
            };
            let mut c = Controller::new(cfg);
            // Open row 0 of bank 0.
            c.enqueue(MemRequest::read(1, 0), 0).unwrap();
            let first = c.schedule_one(0).unwrap();
            // An old request that conflicts with the open row (row 1 of the
            // same physical bank, as in frfcfs_prefers_row_hit_over_older_conflict).
            let conflict_addr = 256 * 1024 + 8 * 1024;
            c.enqueue(MemRequest::read(2, conflict_addr), 1).unwrap();
            // Unbroken row-hit stream: keep exactly one younger hit queued.
            let mut now = first.finish;
            for i in 0u64..200 {
                let col = 1 + (i % 120);
                c.enqueue(MemRequest::read(1000 + i, col * 64), now)
                    .unwrap();
                let done = c.schedule_one(now).unwrap();
                now = now.max(done.finish);
                if done.id == 2 {
                    return Some(now);
                }
            }
            None
        };
        // Without a cap the conflict request starves for the whole stream.
        assert_eq!(run(u64::MAX), None, "row hits starve the conflict forever");
        // With the cap it is served shortly after its wait crosses the cap.
        let served_at = run(500).expect("starvation cap must force the old request");
        assert!(
            served_at < 1200,
            "forced request served far too late: {served_at}"
        );
    }

    /// Watermark hysteresis: a drain that starts at the high watermark must
    /// continue down to the low watermark (not stop as soon as it dips
    /// below high), and reads regain priority afterwards.
    #[test]
    fn write_drain_hysteresis_runs_high_to_low_watermark() {
        let mut c = ctrl(); // high = 28, low = 8 (Table 2 defaults)
        for i in 0..28 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let mut writes_before_read = 0;
        loop {
            let done = c.schedule_one(0).expect("requests queued");
            if done.id == 100 {
                break;
            }
            writes_before_read += 1;
            assert!(writes_before_read <= 20, "drain overshot the low watermark");
        }
        assert_eq!(
            writes_before_read, 20,
            "drain must continue from high (28) to low (8) watermark"
        );
        // The remaining 8 writes complete once the read queue is empty.
        assert_eq!(c.drain(0).len(), 8);
        assert_eq!(c.stats().writes_done, 28);
        assert_eq!(c.stats().reads_done, 1);
    }

    #[test]
    fn read_and_write_latency_histograms_are_split() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 64), 0).unwrap();
        c.enqueue(MemRequest::write(3, 128), 0).unwrap();
        let _ = c.drain(0);
        assert_eq!(c.read_latency_histogram().count(), 2);
        assert_eq!(c.write_latency_histogram().count(), 1);
        assert_eq!(c.latency_histogram().count(), 3);
        let merged = c.read_latency_histogram().count() + c.write_latency_histogram().count();
        assert_eq!(merged, c.latency_histogram().count());
    }

    /// The sweep runner builds controllers inside worker threads; the run
    /// path must stay `Send` (observer hooks use `Arc<Mutex<..>>`).
    #[test]
    fn controller_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Controller>();
    }

    #[test]
    fn write_queue_capacity_enforced() {
        let mut c = ctrl();
        for i in 0..32 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        assert_eq!(
            c.enqueue(MemRequest::write(99, 0), 0),
            Err(QueueFull { write_queue: true })
        );
        assert!(c.can_accept(false));
        assert!(!c.can_accept(true));
    }

    #[test]
    fn reads_prioritized_until_write_watermark() {
        let mut c = ctrl();
        // 10 writes (below high watermark) + 1 read: read goes first.
        for i in 0..10 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let first = c.schedule_one(0).unwrap();
        assert_eq!(first.id, 100);
    }

    #[test]
    fn write_drain_kicks_in_at_high_watermark() {
        let mut c = ctrl();
        for i in 0..28 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let first = c.schedule_one(0).unwrap();
        assert_ne!(first.id, 100, "writes drain once above the high watermark");
    }

    #[test]
    fn stride_request_switches_mode_once() {
        let mut c = ctrl();
        let spec = StrideSpec::ssc();
        c.enqueue(MemRequest::stride_read(1, 0, spec), 0).unwrap();
        c.enqueue(MemRequest::stride_read(2, 4 * 64, spec), 0)
            .unwrap();
        let done = c.drain(0);
        assert_eq!(done.len(), 2);
        assert_eq!(c.device_stats().stride_reads, 2);
        assert_eq!(
            c.device_stats().mode_switches,
            1,
            "second request reuses the mode"
        );
    }

    #[test]
    fn mode_switch_costs_trtr() {
        let mut c = ctrl();
        let t = t();
        c.enqueue(MemRequest::stride_read(1, 0, StrideSpec::ssc()), 0)
            .unwrap();
        let done = c.drain(0);
        // MRS at 0, ACT at 0 (parallel on C/A in our model), column waits
        // for both tRCD and the mode-ready time; with tRCD > tRTR the RCD
        // dominates, so finish matches a regular read here.
        assert_eq!(done[0].finish, t.rcd.max(t.rtr) + t.cl + t.burst);
        // Switching back for a regular read pays tRTR again.
        c.enqueue(MemRequest::read(2, 64), done[0].finish).unwrap();
        let d2 = c.drain(done[0].finish);
        assert_eq!(c.device_stats().mode_switches, 2);
        assert!(d2[0].row_hit);
    }

    #[test]
    fn refresh_happens_every_trefi() {
        let mut c = ctrl();
        let t = t();
        // Schedule a read far past several refresh intervals.
        c.enqueue(MemRequest::read(1, 0), 4 * t.refi).unwrap();
        let _ = c.drain(4 * t.refi);
        assert!(
            c.stats().refreshes >= 4,
            "refreshes {} < 4",
            c.stats().refreshes
        );
    }

    #[test]
    fn rram_controller_skips_refresh() {
        let cfg = ControllerConfig::with_device(DeviceConfig::rram_server());
        assert!(!cfg.refresh_enabled);
        let mut c = Controller::new(cfg);
        c.enqueue(MemRequest::read(1, 0), 10_000_000).unwrap();
        let _ = c.drain(10_000_000);
        assert_eq!(c.stats().refreshes, 0);
    }

    #[test]
    fn stats_average_latency() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 64), 0).unwrap();
        let done = c.drain(0);
        let expect: u64 = done.iter().map(|d| d.finish).sum();
        assert_eq!(c.stats().total_latency, expect);
        assert!(c.stats().avg_latency().unwrap() > 0.0);
        assert_eq!(c.stats().row_hit_rate().unwrap(), 0.5);
    }

    /// A starvation-cap firing must be counted, and the traced schedule
    /// must equal the untraced one (hooks are observational).
    #[test]
    fn starvation_firings_are_counted_and_traced() {
        use std::sync::{Arc, Mutex};
        let run = |trace: bool| -> (Vec<u64>, u64, Vec<sam_trace::TraceEvent>) {
            let cfg = ControllerConfig {
                starvation_cap: 500,
                ..Default::default()
            };
            let mut c = Controller::new(cfg);
            let ring = Arc::new(Mutex::new(sam_trace::RingRecorder::new(4096)));
            if trace {
                c.attach_trace(ring.clone());
                assert!(c.trace_attached());
            }
            c.enqueue(MemRequest::read(1, 0), 0).unwrap();
            let first = c.schedule_one(0).unwrap();
            let conflict_addr = 256 * 1024 + 8 * 1024;
            c.enqueue(MemRequest::read(2, conflict_addr), 1).unwrap();
            let mut order = Vec::new();
            let mut now = first.finish;
            for i in 0u64..50 {
                let col = 1 + (i % 120);
                c.enqueue(MemRequest::read(1000 + i, col * 64), now)
                    .unwrap();
                let done = c.schedule_one(now).unwrap();
                order.push(done.id);
                now = now.max(done.finish);
            }
            let starved = c.stats().starvation_forced;
            drop(c);
            let events = Arc::try_unwrap(ring)
                .expect("sole owner")
                .into_inner()
                .unwrap()
                .into_events()
                .0;
            (order, starved, events)
        };
        let (traced_order, starved, events) = run(true);
        let (plain_order, plain_starved, plain_events) = run(false);
        assert_eq!(traced_order, plain_order, "tracing must not alter schedule");
        assert_eq!(starved, plain_starved);
        assert!(starved >= 1, "cap at 500 must fire in this stream");
        assert!(plain_events.is_empty());
        let fired = events.iter().filter(|e| e.name == "starved").count() as u64;
        assert_eq!(fired, starved, "one instant per counted firing");
        assert!(events.iter().any(|e| e.name == "enq-read"));
        assert!(events.iter().any(|e| e.name == "read"));
    }

    /// Write-drain windows trace as balanced begin/end pairs in occurrence
    /// order (the exporter closes a final dangling begin, but a finished
    /// drain must close itself).
    #[test]
    fn write_drain_windows_trace_balanced() {
        use std::sync::{Arc, Mutex};
        let mut c = ctrl();
        let ring = Arc::new(Mutex::new(sam_trace::RingRecorder::new(4096)));
        c.attach_trace(ring.clone());
        for i in 0..28 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let _ = c.drain(0);
        drop(c);
        let events = Arc::try_unwrap(ring)
            .expect("sole owner")
            .into_inner()
            .unwrap()
            .into_events()
            .0;
        let drains: Vec<_> = events.iter().filter(|e| e.name == "write-drain").collect();
        assert_eq!(drains.len(), 2, "one drain window: begin + end");
        assert_eq!(drains[0].kind, sam_trace::EventKind::Begin);
        assert_eq!(drains[1].kind, sam_trace::EventKind::End);
        let refs: Vec<_> = events.iter().filter(|e| e.name == "REF").collect();
        for r in &refs {
            assert!(r.track >= sam_trace::event::track::RANK0);
        }
    }

    /// Epoch rows telescope: summed deltas equal the end-of-run snapshot.
    #[test]
    fn epoch_rows_sum_to_final_stats() {
        use std::sync::{Arc, Mutex};
        let mut c = ctrl();
        let epochs = Arc::new(Mutex::new(sam_trace::EpochRecorder::new(200)));
        c.attach_epochs(epochs.clone());
        for i in 0..40 {
            c.enqueue(MemRequest::read(i, i * 256), 0).unwrap();
        }
        for i in 0..24 {
            c.enqueue(MemRequest::write(100 + i, 0x40000 + i * 64), 0)
                .unwrap();
        }
        let done = c.drain(0);
        assert_eq!(done.len(), 64);
        let end = done.iter().map(|d| d.finish).max().unwrap();
        c.finish_epochs(end);
        let rec = epochs.lock().unwrap();
        let sum = rec.sum();
        assert!(rec.rows().len() > 1, "run spans several 200-cycle epochs");
        assert_eq!(sum.reads, c.stats().reads_done);
        assert_eq!(sum.writes, c.stats().writes_done);
        assert_eq!(sum.row_hits, c.stats().row_hits);
        assert_eq!(sum.latency, c.stats().total_latency);
        assert_eq!(sum.acts, c.device_stats().acts);
        assert_eq!(sum.bus_busy, c.device().channel().busy_cycles);
    }

    #[test]
    fn bank_parallelism_overlaps_activates() {
        let mut c = ctrl();
        let t = t();
        // Two reads to different banks: the second should not wait for the
        // first's full row cycle, only tRRD + bus serialization.
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 8192), 0).unwrap(); // next bank
        let done = c.drain(0);
        let gap = done[1].finish - done[0].finish;
        assert!(
            gap <= t.ccd_s.max(t.burst) + t.rrd_s,
            "banks overlap, gap {gap}"
        );
    }

    /// Jump-safety of the refresh catch-up (the ISSUE's headline bug
    /// class): a read issued many tREFI after the last activity must see
    /// every intervening refresh issued at its *original* due cycle, not
    /// a collapsed burst at the read's arrival.
    #[test]
    fn refresh_catch_up_lands_on_original_due_cycles() {
        use std::sync::{Arc, Mutex};
        let mut c = ctrl();
        let ring = Arc::new(Mutex::new(sam_trace::RingRecorder::new(1 << 14)));
        c.attach_trace(ring.clone());
        let cfg = *c.config();
        let refi = cfg.device.timing.refi;
        let arrival = 10 * refi + 123;
        c.enqueue(MemRequest::read(1, 0), arrival).unwrap();
        let done = c.drain(arrival);
        assert_eq!(done.len(), 1);
        drop(c);
        let events = Arc::try_unwrap(ring)
            .expect("sole owner")
            .into_inner()
            .unwrap()
            .into_events()
            .0;
        // Reconstruct the expected deadline ladder per rank and compare
        // with the observed REF issue cycles, in order.
        for rank in 0..cfg.device.ranks {
            let observed: Vec<Cycle> = events
                .iter()
                .filter(|e| e.name == "REF" && e.arg == rank as u64)
                .map(|e| e.at)
                .collect();
            let mut expected = Vec::new();
            let mut due = refi + (rank as u64 * refi / cfg.device.ranks as u64);
            while due <= arrival {
                expected.push(due);
                due += refi;
            }
            assert_eq!(
                observed, expected,
                "rank {rank}: refreshes must issue at their original tREFI \
                 deadlines, never collapsed at the catch-up cycle"
            );
        }
    }

    /// The same long-idle read, reached two ways: ticking `advance_to`
    /// through every cycle of the gap, or jumping straight to the
    /// arrival and letting `execute` catch up lazily. Completion cycles,
    /// stats, and latency histograms must be identical (satellite: the
    /// event-driven path sees the same refresh penalty as a ticked run).
    #[test]
    fn read_after_long_idle_sees_same_refresh_penalty_ticked_or_jumped() {
        let t = t();
        let arrival = 4 * t.refi + 77;

        let mut ticked = ctrl();
        for now in 0..=arrival {
            ticked.advance_to(now);
        }
        ticked.enqueue(MemRequest::read(1, 0x40), arrival).unwrap();
        let a = ticked.drain(arrival);

        let mut jumped = ctrl();
        jumped.enqueue(MemRequest::read(1, 0x40), arrival).unwrap();
        let b = jumped.drain(arrival);

        assert_eq!(a, b, "completions must match cycle-for-cycle");
        assert_eq!(ticked.stats(), jumped.stats());
        // Count the staggered per-rank deadlines that fall inside the gap:
        // every one of them must have been serviced on both paths.
        let ranks = ticked.config().device.ranks;
        let mut ladder = 0u64;
        for rank in 0..ranks {
            let mut due = t.refi + (rank as u64 * t.refi / ranks as u64);
            while due <= arrival {
                ladder += 1;
                due += t.refi;
            }
        }
        assert!(ladder >= 4, "gap must span several deadlines, got {ladder}");
        assert!(
            ticked.stats().refreshes >= ladder,
            "the gap spans {ladder} refreshes, saw {}",
            ticked.stats().refreshes
        );
        assert_eq!(ticked.latency_histogram(), jumped.latency_histogram());
        assert_eq!(
            ticked.read_latency_histogram(),
            jumped.read_latency_histogram()
        );
    }

    #[test]
    fn next_wake_folds_refresh_arrivals_and_banks() {
        let t = t();
        let mut c = ctrl();
        let first_refresh = t.refi; // rank 0's first deadline
        assert_eq!(c.next_wake(0), Some(first_refresh));
        // A queued future arrival earlier than the refresh wins the fold.
        c.enqueue(MemRequest::read(1, 0), 500).unwrap();
        assert_eq!(c.next_wake(0), Some(500));
        // Arrivals at or before `now` are actionable, not wakes.
        assert_eq!(c.next_wake(500), Some(first_refresh));
        // After serving, the touched bank's earliest gate is the next
        // wake (its tRTP/tRAS window closes before the first refresh).
        let done = c.drain(500);
        let bank_wake = c.next_wake(500).expect("bank gates are closed");
        assert!(
            bank_wake > 500 && bank_wake < first_refresh,
            "bank wake {bank_wake} should precede refresh {first_refresh}"
        );
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn rram_controller_has_no_refresh_wakes() {
        let cfg = ControllerConfig::with_device(DeviceConfig::rram_server());
        assert!(!cfg.refresh_enabled);
        let mut c = Controller::new(cfg);
        assert_eq!(c.next_wake(0), None, "idle RRAM publishes nothing");
        c.advance_to(1_000_000_000);
        assert_eq!(c.stats().refreshes, 0);
    }

    /// The reference scan and the group index must be indistinguishable
    /// end-to-end, not just per decision: same completions, stats, and
    /// lanes over a mixed read/write/stride workload.
    #[test]
    fn reference_scheduler_is_observationally_identical() {
        let mut mixed = Vec::new();
        for i in 0..48u64 {
            let addr = (i % 7) * 8192 + (i % 3) * 64;
            let req = match i % 4 {
                0 => MemRequest::read(i, addr),
                1 => MemRequest::write(i, addr + 0x40000),
                2 => MemRequest::stride_read(
                    i,
                    addr,
                    StrideSpec {
                        gather: 8,
                        mode: sam_dram::moderegs::IoMode::Sx4((i % 4) as u8),
                    },
                ),
                _ => MemRequest::read(i, addr + 0x100),
            };
            mixed.push((req, i * 3));
        }
        let run = |reference: bool| {
            let cfg = ControllerConfig {
                reference_scheduler: reference,
                ..ControllerConfig::default()
            };
            let mut c = Controller::new(cfg);
            for (req, arrival) in &mixed {
                c.enqueue(*req, *arrival).unwrap();
            }
            let done = c.drain(0);
            (done, *c.stats(), c.per_core().clone())
        };
        let (done_i, stats_i, lanes_i) = run(false);
        let (done_r, stats_r, lanes_r) = run(true);
        assert_eq!(done_i, done_r);
        assert_eq!(stats_i, stats_r);
        assert_eq!(lanes_i, lanes_r);
    }
}

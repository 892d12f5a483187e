//! The `ctrl_stream` workload: seeded `sam-stress` patterns driven
//! straight into a bare FR-FCFS [`Controller`], with no query engine,
//! core model or cache above it.
//!
//! The driver admits requests in stream order once their arrival cycle is
//! due and the target queue has room, makes one scheduling decision at a
//! time, and jumps idle gaps with `advance_to` — the same front-end as
//! `sam_stress::driver::run_stream`, minus its invariant mirror, so the
//! per-stream counts must equal what that driver reports (the committed
//! reference in `data/ctrl_stream.json` was recorded with it).

use std::time::Instant;

use sam_dram::Cycle;
use sam_memctrl::controller::{Controller, ControllerConfig};
use sam_stress::pattern::{Pattern, PatternParams};
use sam_stress::stream::TimedRequest;

/// Streams per pattern in one pass.
pub const SEEDS_PER_PATTERN: u64 = 8;
/// Requests per stream: 5 patterns × 8 seeds × 32768 ≈ 1.3M per pass.
pub const STREAM_LEN: usize = 32_768;

/// One generated (pattern, seed) stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The generating pattern.
    pub pattern: Pattern,
    /// The pattern seed.
    pub seed: u64,
    /// Requests in arrival order.
    pub requests: Vec<TimedRequest>,
}

impl Stream {
    /// `pattern/seed`, the stream's label in reports and references.
    pub fn label(&self) -> String {
        format!("{}/{:#x}", self.pattern.name(), self.seed)
    }
}

/// The pattern seeds a workload seed expands to: a fixed, well-mixed set
/// per workload seed (splitmix64 of `seed + i`).
pub fn stream_seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_PATTERN)
        .map(|i| {
            let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Generates every stream of one pass: each pattern over each seed.
pub fn generate(seed: u64) -> Vec<Stream> {
    let seeds = stream_seeds(seed);
    let mut streams = Vec::with_capacity(Pattern::ALL.len() * seeds.len());
    for pattern in Pattern::ALL {
        for &s in &seeds {
            let params = PatternParams {
                seed: s,
                len: STREAM_LEN,
                ..PatternParams::default()
            };
            streams.push(Stream {
                pattern,
                seed: s,
                requests: pattern.generate(&params),
            });
        }
    }
    streams
}

/// What one stream execution produced: the counts the reference pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamCounts {
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Completions that hit the open row.
    pub row_hits: u64,
    /// Scheduling decisions forced by the starvation cap.
    pub starved: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Cycle the last completion finished.
    pub last_finish: Cycle,
}

/// One call in this many is timed: a clock read costs ~50 ns on the
/// reference host, a tenth of a scheduling decision, so timing every call
/// would distort what it measures.
pub const SAMPLE_ONE_IN: u64 = 16;

/// Host time inside a random sample of the controller calls, recorded by
/// a traced pass, net of the cost of the clock reads around each call.
#[derive(Debug, Clone)]
pub struct CtrlSpans {
    /// ns of each sampled `enqueue` call.
    pub enqueue_ns: Vec<u32>,
    /// `enqueue` calls.
    pub enqueues: u64,
    /// ns of each sampled `schedule_one` call.
    pub schedule_ns: Vec<u32>,
    /// `schedule_one` calls.
    pub schedules: u64,
    /// ns of each sampled `advance_to` call.
    pub advance_ns: Vec<u32>,
    /// `advance_to` calls.
    pub advances: u64,
    /// xorshift64 state choosing the sampled calls.
    rng: u64,
    /// ns an empty span measures, subtracted from every sample.
    clock_ns: u32,
}

impl Default for CtrlSpans {
    fn default() -> Self {
        Self::new()
    }
}

fn mean_ns(samples: &[u32]) -> f64 {
    crate::stats::ratio(
        samples.iter().map(|&n| f64::from(n)).sum(),
        samples.len() as f64,
    )
}

impl CtrlSpans {
    /// Empty spans, with the clock's own cost calibrated as the median of
    /// 1001 empty spans.
    pub fn new() -> Self {
        let mut empty: Vec<u32> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
            })
            .collect();
        empty.sort_unstable();
        Self {
            enqueue_ns: Vec::new(),
            enqueues: 0,
            schedule_ns: Vec::new(),
            schedules: 0,
            advance_ns: Vec::new(),
            advances: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            clock_ns: empty[empty.len() / 2],
        }
    }

    /// The `p`-th percentile of the sampled `schedule_one` calls, in ns.
    pub fn schedule_percentile_ns(&self, p: f64) -> f64 {
        let samples: Vec<f64> = self.schedule_ns.iter().map(|&n| f64::from(n)).collect();
        crate::stats::percentile(&samples, p)
    }

    /// Mean ns per `enqueue` call.
    pub fn enqueue_mean_ns(&self) -> f64 {
        mean_ns(&self.enqueue_ns)
    }

    /// Mean ns per `advance_to` call.
    pub fn advance_mean_ns(&self) -> f64 {
        mean_ns(&self.advance_ns)
    }

    /// Estimated seconds inside any controller call: each kind's sampled
    /// mean times its call count.
    pub fn total_s(&self) -> f64 {
        (self.enqueue_mean_ns() * self.enqueues as f64
            + mean_ns(&self.schedule_ns) * self.schedules as f64
            + self.advance_mean_ns() * self.advances as f64)
            / 1e9
    }

    fn sampled(&mut self) -> bool {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.is_multiple_of(SAMPLE_ONE_IN)
    }

    fn timed<R>(&mut self, which: fn(&mut Self) -> &mut Vec<u32>, f: impl FnOnce() -> R) -> R {
        if !self.sampled() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let net = ns.saturating_sub(self.clock_ns);
        which(self).push(net);
        r
    }
}

/// Where the driver's controller calls are timed: `()` times nothing (the
/// untraced passes), [`CtrlSpans`] samples calls.
pub trait Spans {
    /// Runs an `enqueue` call.
    fn enqueue<R>(&mut self, f: impl FnOnce() -> R) -> R;
    /// Runs a `schedule_one` call.
    fn schedule<R>(&mut self, f: impl FnOnce() -> R) -> R;
    /// Runs an `advance_to` call.
    fn advance<R>(&mut self, f: impl FnOnce() -> R) -> R;
}

impl Spans for () {
    #[inline]
    fn enqueue<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline]
    fn schedule<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline]
    fn advance<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Spans for CtrlSpans {
    fn enqueue<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.enqueues += 1;
        self.timed(|s| &mut s.enqueue_ns, f)
    }
    fn schedule<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.schedules += 1;
        self.timed(|s| &mut s.schedule_ns, f)
    }
    fn advance<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.advances += 1;
        self.timed(|s| &mut s.advance_ns, f)
    }
}

/// Drives `requests` through `ctrl` (a fresh controller) to completion.
///
/// # Errors
///
/// Returns a description when the controller stops making progress with
/// requests queued.
pub fn drive(
    ctrl: &mut Controller,
    requests: &[TimedRequest],
    spans: &mut impl Spans,
) -> Result<StreamCounts, String> {
    let mut counts = StreamCounts::default();
    let mut next = 0usize;
    let mut now: Cycle = 0;
    loop {
        while let Some(t) = requests.get(next) {
            if t.arrival > now || !ctrl.can_accept(t.req.is_write) {
                break;
            }
            let admitted = now.max(t.arrival);
            spans
                .enqueue(|| ctrl.enqueue(t.req, admitted))
                .map_err(|e| format!("enqueue refused after can_accept: {e}"))?;
            next += 1;
        }
        if ctrl.queued() == 0 {
            let Some(t) = requests.get(next) else { break };
            let target = now.max(t.arrival);
            spans.advance(|| ctrl.advance_to(target));
            now = target;
            continue;
        }
        let Some(c) = spans.schedule(|| ctrl.schedule_one(now)) else {
            return Err(format!(
                "scheduler idled at cycle {now} with {} requests queued",
                ctrl.queued()
            ));
        };
        // Stream ids are positional (`sam_stress::stream::renumber`).
        let is_write = usize::try_from(c.id)
            .ok()
            .and_then(|i| requests.get(i))
            .ok_or_else(|| format!("completion for unknown request id {}", c.id))?
            .req
            .is_write;
        if is_write {
            counts.writes += 1;
        } else {
            counts.reads += 1;
        }
        counts.row_hits += u64::from(c.row_hit);
        counts.last_finish = counts.last_finish.max(c.finish);
        now = now.max(c.finish);
    }
    counts.starved = ctrl.stats().starvation_forced;
    counts.refreshes = ctrl.stats().refreshes;
    Ok(counts)
}

/// The controller every stream runs on: Table 2 DDR4 defaults.
pub fn controller() -> Controller {
    Controller::new(ControllerConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_stress::stream::StressConfig;

    /// The benchmark's driver and the stress crate's checked driver are
    /// two front-ends over the same controller; they must agree exactly.
    #[test]
    fn driver_matches_the_stress_driver() {
        for pattern in Pattern::ALL {
            let requests = pattern.generate(&PatternParams::small(11));
            let ours = drive(&mut controller(), &requests, &mut ()).expect("stream completes");
            let theirs = sam_stress::driver::run_stream(&StressConfig::ddr4_default(), &requests);
            assert!(theirs.violations.is_empty(), "{:?}", theirs.violations);
            let expected = StreamCounts {
                reads: theirs.reads,
                writes: theirs.writes,
                row_hits: theirs.row_hits,
                starved: theirs.starved,
                refreshes: theirs.refreshes,
                last_finish: theirs.last_finish,
            };
            assert_eq!(ours, expected, "{}", pattern.name());
        }
    }

    #[test]
    fn spans_do_not_change_the_outcome() {
        let requests = Pattern::WriteBurst.generate(&PatternParams::small(3));
        let plain = drive(&mut controller(), &requests, &mut ()).expect("completes");
        let mut spans = CtrlSpans::new();
        let traced = drive(&mut controller(), &requests, &mut spans).expect("completes");
        assert_eq!(plain, traced);
        assert_eq!(spans.schedules, plain.reads + plain.writes);
        assert!(!spans.schedule_ns.is_empty());
        assert!(spans.schedule_ns.len() < spans.schedules as usize);
    }
}

//! Workload definitions, timed passes, correctness checks and metrics.
//!
//! A *pass* is one execution of a workload's whole run list; a *run* is one
//! `System::run` (fig12, fig16) or one stream driven through a bare
//! controller (`ctrl_stream`). The untraced command repeats passes for the
//! requested time and times each run by its fastest repetitions, the ones
//! a shared host's slow spells disturbed least. The traced command first
//! makes one capture pass (DRAM commands recorded and replayed through a
//! fresh device), then alternates untraced passes with traced ones and
//! reports per-layer numbers from the traced passes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sam::design::Design;
use sam::designs;
use sam::layout::Store;
use sam::system::{Instrumentation, RunResult, System, SystemConfig};
use sam_dram::device::DeviceConfig;
use sam_imdb::exec::Workload;
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_memctrl::hybrid::{HybridConfig, WritePolicy};
use sam_power::{energy_uj, ActivityCounts, PowerParams};

use crate::ctrl::{self, CtrlSpans, Stream, StreamCounts};
use crate::reference::{self, GoldenRun, PaperGmean};
use crate::replay::{self, DramReplay};
use crate::stats::{median, percentile, ratio};

/// The plan seed the goldens were recorded with (`PlanConfig`'s default).
pub const GOLDEN_SEED: u64 = 0x5A11AD;
/// Golden scale: Ta records.
pub const GOLDEN_TA: u64 = 2048;
/// Golden scale: Tb records.
pub const GOLDEN_TB: u64 = 8192;
/// fig16 grid repetitions per pass: one grid is ~0.2 s, too short to time.
pub const FIG16_REPEATS: usize = 5;
/// Host seconds of one slice of set-up repetitions, made before each
/// untraced pass; `setup_s` is the median set-up of the fastest slice. The
/// reference host runs set-up 1.4× slower in spells longer than a slice,
/// and in a noisy hour more than half of a command's slices fall in them,
/// so the median over every slice would report the spells.
const SETUP_SLICE_S: f64 = 0.01;
/// Fewest passes per traced command: the pass-to-pass identity check
/// needs two.
const MIN_PASSES: usize = 2;
/// Each run's fastest repetitions pooled for the run-time percentiles; the
/// untraced command makes at least this many passes. Every workload has at
/// least 40 runs per pass, so more than ten pooled samples lie beyond p90.
pub const FASTEST_K: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 12, Q query set: read-dominated strided scans.
    Fig12Q,
    /// Figure 12, Qs query set: write-heavy inserts and updates.
    Fig12Qs,
    /// Figure 16: the DRAM-cache-over-RRAM hybrid topology.
    Fig16Hybrid,
    /// Stress patterns driven into a bare controller.
    CtrlStream,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Fig12Q,
        Kind::Fig12Qs,
        Kind::Fig16Hybrid,
        Kind::CtrlStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig12Q => "fig12_q",
            Kind::Fig12Qs => "fig12_qs",
            Kind::Fig16Hybrid => "fig16_hybrid",
            Kind::CtrlStream => "ctrl_stream",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One simulation of a fig12/fig16 workload.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Golden label: `Q3/SAM-en/Row`, `Q3/flat`, `Q3/bs128/writeback`.
    pub label: String,
    /// The query.
    pub query: Query,
    /// The design simulated.
    pub design: Design,
    /// Table layout.
    pub store: Store,
    /// System configuration (hybrid topology for fig16 points).
    pub system: SystemConfig,
    /// Index of the run this one's speedup is relative to.
    pub base: usize,
}

/// The Figure 12 designs in legend order.
fn figure12_designs() -> [Design; 7] {
    [
        designs::rc_nvm_bit(),
        designs::rc_nvm_wd(),
        designs::gs_dram(),
        designs::gs_dram_ecc(),
        designs::sam_sub(),
        designs::sam_io(),
        designs::sam_en(),
    ]
}

/// Figure 12's grid for `queries`: per query the commodity row-store
/// baseline, every design on the row store, and the commodity column store.
fn fig12_tasks(queries: &[Query]) -> Vec<SimTask> {
    let system = SystemConfig::default();
    let mut tasks = Vec::new();
    for &query in queries {
        let base = tasks.len();
        let mut push = |design: Design, store: Store| {
            tasks.push(SimTask {
                label: format!("{}/{}/{store:?}", query.name(), design.name),
                query,
                design,
                store,
                system,
                base,
            });
        };
        push(designs::commodity(), Store::Row);
        for design in figure12_designs() {
            push(design, Store::Row);
        }
        push(designs::commodity(), Store::Column);
    }
    tasks
}

/// Figure 16's grid (`crates/bench/src/fig16.rs`): per query the flat
/// RC-NVM-wd baseline, then block size × write policy hybrid points.
fn fig16_tasks() -> Vec<SimTask> {
    let system = SystemConfig::default();
    let mut tasks = Vec::new();
    for _ in 0..FIG16_REPEATS {
        for query in [Query::Q3, Query::Q12] {
            let base = tasks.len();
            tasks.push(SimTask {
                label: format!("{}/flat", query.name()),
                query,
                design: designs::rc_nvm_wd(),
                store: Store::Row,
                system,
                base,
            });
            for block in [128, 256, 512] {
                for policy in [WritePolicy::Writeback, WritePolicy::Writethrough] {
                    tasks.push(SimTask {
                        label: format!("{}/bs{block}/{}", query.name(), policy.label()),
                        query,
                        design: designs::rc_nvm_wd(),
                        store: Store::Row,
                        system: SystemConfig {
                            hybrid: Some(HybridConfig::new(block, policy)),
                            ..system
                        },
                        base,
                    });
                }
            }
        }
    }
    tasks
}

/// What a workload's runs are checked against.
#[derive(Debug, Clone)]
pub enum Reference {
    /// Committed records, one per run (golden seed only).
    Golden(Vec<GoldenRun>),
    /// Committed `ctrl_stream` counts, one per stream (golden seed only).
    Streams(Vec<StreamCounts>),
    /// Another seed: every pass must reproduce the first pass exactly.
    FirstPass,
}

/// Everything a workload needs before timing starts.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// Plan scale and seed (fig12, fig16).
    pub plan: PlanConfig,
    /// Simulations of one pass (fig12, fig16).
    pub tasks: Vec<SimTask>,
    /// Streams of one pass (`ctrl_stream`).
    pub streams: Vec<Stream>,
    /// What runs are checked against.
    pub reference: Reference,
    /// The paper's Figure 12 gmeans.
    pub paper: Vec<PaperGmean>,
}

impl Setup {
    /// Runs per pass.
    pub fn runs_per_pass(&self) -> usize {
        self.tasks.len() + self.streams.len()
    }

    /// A one-line description of how runs are checked.
    pub fn check_description(&self) -> &'static str {
        match (&self.reference, self.kind) {
            (Reference::Golden(_), Kind::Fig16Hybrid) => {
                "every run compared with tests/golden/fig16.json"
            }
            (Reference::Golden(_), _) => "every run compared with tests/golden/fig12.json",
            (Reference::Streams(_), _) => {
                "every stream compared with simbench/data/ctrl_stream.json"
            }
            (Reference::FirstPass, _) => {
                "seed differs from the golden seed: references replaced by \
                 'every pass reproduces the first pass exactly'"
            }
        }
    }
}

/// Loads references and builds the run list of `kind` under `seed`.
///
/// # Errors
///
/// A reference file is missing, malformed, or does not cover a run.
pub fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let plan = PlanConfig {
        ta_records: GOLDEN_TA,
        tb_records: GOLDEN_TB,
        seed,
        ..PlanConfig::default_scale()
    };
    let paper = reference::paper_fig12()?;
    let golden = seed == GOLDEN_SEED;
    let (tasks, streams, reference) = match kind {
        Kind::CtrlStream => {
            let streams = ctrl::generate(seed);
            let reference = if golden {
                let (recorded_for, expected) = reference::ctrl_expected()?;
                if recorded_for != seed {
                    return Err(format!(
                        "ctrl_stream.json was recorded for seed {recorded_for:#x}"
                    ));
                }
                let counts = streams
                    .iter()
                    .map(|s| {
                        expected
                            .get(&s.label())
                            .copied()
                            .ok_or_else(|| format!("ctrl_stream.json has no stream {}", s.label()))
                    })
                    .collect::<Result<_, _>>()?;
                Reference::Streams(counts)
            } else {
                Reference::FirstPass
            };
            (Vec::new(), streams, reference)
        }
        _ => {
            let (tasks, goldens) = match kind {
                Kind::Fig12Q => (
                    fig12_tasks(&Query::q_set()),
                    golden.then(|| reference::fig12_goldens(GOLDEN_TA, GOLDEN_TB, seed)),
                ),
                Kind::Fig12Qs => (
                    fig12_tasks(&Query::qs_set()),
                    golden.then(|| reference::fig12_goldens(GOLDEN_TA, GOLDEN_TB, seed)),
                ),
                _ => (
                    fig16_tasks(),
                    golden.then(|| reference::fig16_goldens(GOLDEN_TA, GOLDEN_TB, seed)),
                ),
            };
            let reference = match goldens {
                Some(goldens) => {
                    let goldens = goldens?;
                    Reference::Golden(
                        tasks
                            .iter()
                            .map(|t| {
                                goldens
                                    .get(&t.label)
                                    .cloned()
                                    .ok_or_else(|| format!("no golden record for {}", t.label))
                            })
                            .collect::<Result<_, _>>()?,
                    )
                }
                None => Reference::FirstPass,
            };
            (tasks, Vec::new(), reference)
        }
    };
    Ok(Setup {
        kind,
        plan,
        tasks,
        streams,
        reference,
        paper,
    })
}

/// Deterministic per-pass work counts, summed over the pass's runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Trace ops compiled.
    pub ops: u64,
    /// Requests completed (reads + writes).
    pub requests: u64,
    /// Simulated memory cycles.
    pub cycles: u64,
    /// Stride bursts issued by the core engine.
    pub stride_bursts: u64,
    /// Line bursts issued.
    pub line_bursts: u64,
    /// Writeback bursts issued.
    pub writeback_bursts: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC sector misses.
    pub sector_misses: u64,
    /// LLC line misses.
    pub line_misses: u64,
    /// LLC writebacks.
    pub writebacks: u64,
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// All column accesses.
    pub col_accesses: u64,
    /// Starvation-forced scheduling decisions.
    pub starvation_forced: u64,
    /// Refreshes.
    pub refreshes: u64,
    /// DRAM-cache hits (fig16).
    pub hybrid_hits: u64,
    /// DRAM-cache misses.
    pub hybrid_misses: u64,
    /// DRAM-cache block fills.
    pub hybrid_fills: u64,
    /// DRAM-cache dirty evictions.
    pub hybrid_dirty_evictions: u64,
    /// Activates (CPU-facing device).
    pub acts: u64,
    /// Column commands (CPU-facing device).
    pub col_cmds: u64,
    /// I/O mode switches (CPU-facing device).
    pub mode_switches: u64,
}

impl Counts {
    fn add_run(&mut self, r: &RunResult) {
        self.requests += r.ctrl.reads_done + r.ctrl.writes_done;
        self.cycles += r.cycles;
        self.stride_bursts += r.stride_bursts;
        self.line_bursts += r.line_bursts;
        self.writeback_bursts += r.writeback_bursts;
        self.l1_hits += r.cache.0.hits;
        self.sector_misses += r.cache.2.sector_misses;
        self.line_misses += r.cache.2.line_misses;
        self.writebacks += r.cache.2.writebacks;
        self.row_hits += r.ctrl.row_hits;
        self.col_accesses += r.ctrl.row_hits + r.ctrl.row_misses + r.ctrl.row_conflicts;
        self.starvation_forced += r.ctrl.starvation_forced;
        self.refreshes += r.ctrl.refreshes;
        if let Some(h) = &r.hybrid {
            self.hybrid_hits += h.hits;
            self.hybrid_misses += h.misses;
            self.hybrid_fills += h.fills;
            self.hybrid_dirty_evictions += h.dirty_evictions;
        }
        self.acts += r.device.acts;
        self.col_cmds += r.device.column_commands();
        self.mode_switches += r.device.mode_switches;
    }

    fn add_stream(&mut self, c: &StreamCounts, device: &sam_dram::device::DeviceStats) {
        self.requests += c.reads + c.writes;
        self.cycles += c.last_finish;
        self.row_hits += c.row_hits;
        self.col_accesses += c.reads + c.writes;
        self.starvation_forced += c.starved;
        self.refreshes += c.refreshes;
        self.acts += device.acts;
        self.col_cmds += device.column_commands();
        self.mode_switches += device.mode_switches;
    }
}

/// One timed pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds for the pass (replay time excluded).
    pub wall_s: f64,
    /// Host ms per run.
    pub run_ms: Vec<f64>,
    /// Host seconds inside `Workload::compile`.
    pub compile_s: f64,
    /// Host seconds inside `System::run` (or driving a stream).
    pub run_s: f64,
    /// Host seconds in the harness's own per-run work (checking results).
    pub other_s: f64,
    /// Controller-call spans (traced `ctrl_stream` passes).
    pub ctrl_spans: Option<CtrlSpans>,
    /// DRAM replay of the pass's captured command streams (traced passes).
    pub dram: DramReplay,
    /// Work counts.
    pub counts: Counts,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked or differed from their reference.
    pub failed: u64,
    /// Failure descriptions (at most a few per pass).
    pub failures: Vec<String>,
}

impl Pass {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// How a pass observes the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Times each run and, for fig12/fig16, the compile / run / check
    /// split inside it (three clock reads per run, too few to matter).
    Plain,
    /// [`Mode::Plain`], plus a span around every controller call of
    /// `ctrl_stream`.
    Spans,
    /// Captures every run's DRAM commands and replays them through a
    /// fresh device after the run; replay time is excluded from the wall.
    Capture,
}

/// Results of a command's first pass: the reference under
/// [`Reference::FirstPass`], and the source of the paper error.
#[derive(Debug, Clone, Default)]
pub struct FirstPass {
    runs: Option<Vec<Option<RunResult>>>,
    streams: Option<Vec<Option<StreamCounts>>>,
}

fn sim_mismatches(
    task: &SimTask,
    r: &RunResult,
    base_cycles: u64,
    golden: &GoldenRun,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut cmp = |name: &str, got: f64, want: f64| {
        if got.to_bits() != want.to_bits() {
            bad.push(format!("{name} {got} != {want}"));
        }
    };
    cmp("cycles", r.cycles as f64, golden.cycles as f64);
    cmp(
        "speedup",
        base_cycles as f64 / r.cycles as f64,
        golden.speedup,
    );
    cmp(
        "row_hit_rate",
        r.ctrl.row_hit_rate().unwrap_or(0.0),
        golden.row_hit_rate,
    );
    cmp(
        "read_latency_mean",
        r.read_latency_mean,
        golden.read_latency_mean,
    );
    cmp(
        "read_latency_p99",
        r.read_latency_p99 as f64,
        golden.read_latency_p99 as f64,
    );
    cmp(
        "write_latency_mean",
        r.write_latency_mean,
        golden.write_latency_mean,
    );
    cmp(
        "write_latency_p99",
        r.write_latency_p99 as f64,
        golden.write_latency_p99 as f64,
    );
    cmp(
        "refreshes",
        r.ctrl.refreshes as f64,
        golden.refreshes as f64,
    );
    if let Some(want) = golden.energy_uj {
        let gather = task.system.granularity.gather() as u64;
        let got = energy_uj(
            &PowerParams::for_design(&task.design),
            &task.design,
            &ActivityCounts::from_run(r, gather),
        );
        cmp("energy_uj", got, want);
    }
    match (&golden.hybrid, &r.hybrid) {
        (None, None) => {}
        (Some(want), Some(got)) => {
            cmp("hits", got.hits as f64, want.hits as f64);
            cmp("misses", got.misses as f64, want.misses as f64);
            cmp("fills", got.fills as f64, want.fills as f64);
            cmp(
                "dirty_evictions",
                got.dirty_evictions as f64,
                want.dirty_evictions as f64,
            );
            cmp(
                "writethroughs",
                got.writethroughs as f64,
                want.writethroughs as f64,
            );
            cmp("hit_rate", got.hit_rate(), want.hit_rate);
        }
        _ => bad.push("hybrid summary presence differs".into()),
    }
    bad
}

/// Runs one pass of a fig12/fig16 workload.
pub fn sim_pass(setup: &Setup, first: &mut FirstPass, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let mut results: Vec<Option<RunResult>> = Vec::with_capacity(setup.tasks.len());
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    for (i, task) in setup.tasks.iter().enumerate() {
        let t0 = Instant::now();
        let mut t1 = t0;
        let logs = (mode == Mode::Capture).then(|| (replay::command_log(), replay::command_log()));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let workload = Workload::new(task.query, setup.plan).with_system(task.system);
            let plan = workload.compile();
            t1 = Instant::now();
            let system = System::new(task.system, task.design.clone(), task.store);
            let result = match &logs {
                None => system.run(&plan.tables, &plan.traces),
                Some(((_, front), (_, back))) => {
                    let mut instr = Instrumentation {
                        observer: Some(front.clone()),
                        backing_observer: Some(back.clone()),
                        ..Instrumentation::default()
                    };
                    system.run_instrumented(&plan.tables, &plan.traces, &mut instr)
                }
            };
            let ops: usize = plan.traces.iter().map(Vec::len).sum();
            (result, ops as u64)
        }));
        let t2 = Instant::now();
        pass.attempted += 1;
        let result = match outcome {
            Ok((result, ops)) => {
                pass.counts.ops += ops;
                Some(result)
            }
            Err(_) => {
                pass.fail(format!("{}: panicked", task.label));
                None
            }
        };
        if let Some(r) = &result {
            let base_cycles = if task.base == i {
                r.cycles
            } else {
                results[task.base]
                    .as_ref()
                    .map_or(0, |b: &RunResult| b.cycles)
            };
            let bad = match &setup.reference {
                Reference::Golden(goldens) => sim_mismatches(task, r, base_cycles, &goldens[i]),
                Reference::FirstPass => match &first.runs {
                    Some(runs) if runs[i].as_ref() != Some(r) => {
                        vec!["statistics differ from the first pass".to_string()]
                    }
                    _ => Vec::new(),
                },
                Reference::Streams(_) => unreachable!("sim workloads have run references"),
            };
            if !bad.is_empty() {
                pass.fail(format!("{}: {}", task.label, bad.join(", ")));
            }
            pass.counts.add_run(r);
        }
        let t3 = Instant::now();
        pass.compile_s += (t1 - t0).as_secs_f64();
        pass.run_s += (t2 - t1).as_secs_f64();
        pass.other_s += (t3 - t2).as_secs_f64();
        pass.run_ms.push((t2 - t0).as_secs_f64() * 1e3);
        if let (Some(((front, _), (back, _))), Some(r)) = (&logs, &result) {
            let t = Instant::now();
            let front_cmds = replay::take_commands(front);
            let back_cmds = replay::take_commands(back);
            match &r.hybrid {
                Some(h) => {
                    pass.dram.add(replay::replay_dram(
                        DeviceConfig::ddr4_server(),
                        &front_cmds,
                        &h.front,
                    ));
                    pass.dram.add(replay::replay_dram(
                        task.design.device_config(),
                        &back_cmds,
                        &h.back,
                    ));
                }
                None => pass.dram.add(replay::replay_dram(
                    task.design.device_config(),
                    &front_cmds,
                    &r.device,
                )),
            }
            excluded += t.elapsed();
        }
        results.push(result);
    }
    pass.wall_s = (start.elapsed() - excluded).as_secs_f64();
    if first.runs.is_none() {
        first.runs = Some(results);
    }
    pass
}

/// Runs one pass of `ctrl_stream`.
pub fn ctrl_pass(setup: &Setup, first: &mut FirstPass, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let mut spans = (mode == Mode::Spans).then(CtrlSpans::new);
    let mut outcomes = Vec::with_capacity(setup.streams.len());
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    for (i, stream) in setup.streams.iter().enumerate() {
        let t0 = Instant::now();
        let mut controller = ctrl::controller();
        let log = (mode == Mode::Capture).then(|| {
            let (log, observer) = replay::command_log();
            controller.attach_observer(observer);
            log
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| match spans.as_mut() {
            Some(s) => ctrl::drive(&mut controller, &stream.requests, s),
            None => ctrl::drive(&mut controller, &stream.requests, &mut ()),
        }));
        let t1 = Instant::now();
        pass.attempted += 1;
        let counts = match outcome {
            Ok(Ok(counts)) => Some(counts),
            Ok(Err(e)) => {
                pass.fail(format!("{}: {e}", stream.label()));
                None
            }
            Err(_) => {
                pass.fail(format!("{}: panicked", stream.label()));
                None
            }
        };
        if let Some(c) = &counts {
            let want = match &setup.reference {
                Reference::Streams(expected) => Some(&expected[i]),
                Reference::FirstPass => first.streams.as_ref().and_then(|s| s[i].as_ref()),
                Reference::Golden(_) => unreachable!("ctrl_stream has stream references"),
            };
            if want.is_some_and(|w| w != c) {
                pass.fail(format!("{}: counts {c:?} != {want:?}", stream.label()));
            }
            pass.counts.add_stream(c, controller.device_stats());
        }
        let t2 = Instant::now();
        pass.run_s += (t1 - t0).as_secs_f64();
        pass.other_s += (t2 - t1).as_secs_f64();
        pass.run_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if let (Some(log), Some(_)) = (&log, &counts) {
            let t = Instant::now();
            let commands = replay::take_commands(log);
            pass.dram.add(replay::replay_dram(
                controller.config().device,
                &commands,
                controller.device_stats(),
            ));
            excluded += t.elapsed();
        }
        outcomes.push(counts);
    }
    pass.wall_s = (start.elapsed() - excluded).as_secs_f64();
    pass.ctrl_spans = spans;
    if first.streams.is_none() {
        first.streams = Some(outcomes);
    }
    pass
}

/// Runs one pass of whichever kind `setup` is.
pub fn pass(setup: &Setup, first: &mut FirstPass, mode: Mode) -> Pass {
    match setup.kind {
        Kind::CtrlStream => ctrl_pass(setup, first, mode),
        _ => sim_pass(setup, first, mode),
    }
}

/// Mean |ln(measured / paper)| over the seven designs' Figure 12
/// gmeans, from the first pass's runs; `None` for workloads without a
/// paper reference or when a run of the first pass panicked.
pub fn paper_gmean_err(setup: &Setup, first: &FirstPass) -> Option<f64> {
    let qs = match setup.kind {
        Kind::Fig12Q => false,
        Kind::Fig12Qs => true,
        _ => return None,
    };
    let results: Vec<&RunResult> = first
        .runs
        .as_ref()?
        .iter()
        .map(Option::as_ref)
        .collect::<Option<_>>()?;
    let mut speedups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (task, r) in setup.tasks.iter().zip(&results) {
        if task.store == Store::Row {
            let base = results[task.base];
            speedups
                .entry(task.design.name)
                .or_default()
                .push(base.cycles as f64 / r.cycles as f64);
        }
    }
    let mut total = 0.0;
    for p in &setup.paper {
        let s = speedups.get(p.design.as_str())?;
        let gmean = (s.iter().map(|v| v.ln()).sum::<f64>() / s.len() as f64).exp();
        total += (gmean / if qs { p.qs } else { p.q }).ln().abs();
    }
    Some(total / setup.paper.len() as f64)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one command invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Printed metrics, in order.
    pub metrics: Vec<Metric>,
    /// Runs attempted over every pass.
    pub attempted: u64,
    /// Runs that panicked or differed from their reference.
    pub failed: u64,
    /// DRAM replay errors (traced command only).
    pub replay_errors: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Passes made (untraced, traced); the traced command also makes one
    /// capture pass.
    pub passes: (usize, usize),
    /// The fig12 paper error, when the workload has a reference.
    pub paper_gmean_err: Option<f64>,
    /// Host ms per run at p50 and p90 (untraced command). Printed, not
    /// gated: a few runs' times set them, and they spread past the largest
    /// bound allowed between runs on the reference host.
    pub run_ms: Option<(f64, f64)>,
}

impl Report {
    /// Whether every run matched its reference and every replay was clean.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.replay_errors == 0
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.replay_errors += pass.dram.errors;
        for f in &pass.failures {
            if self.failures.len() < 10 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// Rebuilds `setup`'s workload for at least [`SETUP_SLICE_S`], and at least
/// once; returns the median set-up in host seconds.
///
/// # Errors
///
/// See [`setup`].
fn setup_slice(setup: &Setup) -> Result<f64, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        std::hint::black_box(self::setup(setup.kind, setup.plan.seed)?);
        times.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return Ok(median(&times));
        }
    }
}

/// Whether a command has measured enough: its minimum counts are met and
/// one more step (of `step_s` seconds) would end further from `seconds`
/// than stopping now.
fn enough(minimums_met: bool, start: Instant, seconds: f64, step_s: f64) -> bool {
    minimums_met && start.elapsed().as_secs_f64() + step_s / 2.0 >= seconds
}

/// Each run's repetition times over `passes`, fastest first, in run order.
fn fastest_first(passes: &[Pass]) -> Vec<Vec<f64>> {
    let runs = passes.first().map_or(0, |p| p.run_ms.len());
    (0..runs)
        .map(|i| {
            let mut reps: Vec<f64> = passes.iter().map(|p| p.run_ms[i]).collect();
            reps.sort_by(f64::total_cmp);
            reps
        })
        .collect()
}

/// The untraced command: repeats set-up slices and passes for `seconds`
/// and reports the end-to-end metrics.
///
/// A pass's time is the sum of its runs' fastest repetitions, and the
/// run-time percentiles pool each run's [`FASTEST_K`] fastest. Other
/// tenants of a shared host slow whole stretches of passes by up to 2×;
/// a run's fastest repetition is the one they least disturbed.
///
/// # Errors
///
/// A repeated set-up fails (see [`setup`]).
pub fn measure(setup: &Setup, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut first = FirstPass::default();
    let mut passes = Vec::new();
    let mut setup_s = f64::INFINITY;
    let start = Instant::now();
    let mut last_s = 0.0;
    while !enough(passes.len() >= FASTEST_K, start, seconds, last_s) {
        setup_s = setup_s.min(setup_slice(setup)?);
        let p = pass(setup, &mut first, Mode::Plain);
        report.absorb(&p);
        last_s = p.wall_s;
        passes.push(p);
    }
    report.passes = (passes.len(), 0);
    let reps = fastest_first(&passes);
    let wall_s: f64 = reps.iter().map(|r| r[0]).sum::<f64>() / 1e3;
    let run_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r[..FASTEST_K].iter().copied())
        .collect();
    let counts = passes[0].counts;
    report.metrics = vec![
        ("req_per_s", counts.requests as f64 / wall_s, "1/s"),
        ("sim_cycles_per_s", counts.cycles as f64 / wall_s, "1/s"),
        ("wall_s", wall_s, "s"),
        ("setup_s", setup_s, "s"),
        ("peak_heap_mb", crate::stats::peak_heap_mb(), "MB"),
    ];
    report.run_ms = Some((percentile(&run_ms, 50.0), percentile(&run_ms, 90.0)));
    report.paper_gmean_err = paper_gmean_err(setup, &first);
    Ok(report)
}

/// Walks every run's compiled plan of one pass through the cache replay;
/// returns (accesses, seconds).
fn cache_replay(setup: &Setup) -> (u64, f64) {
    let mut accesses = 0;
    let mut seconds = 0.0;
    for task in &setup.tasks {
        let plan = Workload::new(task.query, setup.plan)
            .with_system(task.system)
            .compile();
        let t = Instant::now();
        accesses += replay::walk_cache(&plan, &task.design, task.store, &task.system);
        seconds += t.elapsed().as_secs_f64();
    }
    (accesses, seconds)
}

/// The traced command: replays the cache layer (fig12 workloads), makes
/// one capture pass for the DRAM replay, then alternates untraced and
/// traced passes for `seconds` and reports the per-layer metrics.
pub fn trace(setup: &Setup, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut first = FirstPass::default();
    let (replay_accesses, replay_s) = if matches!(setup.kind, Kind::Fig12Q | Kind::Fig12Qs) {
        cache_replay(setup)
    } else {
        (0, 0.0)
    };
    let start = Instant::now();
    let capture = pass(setup, &mut first, Mode::Capture);
    report.absorb(&capture);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut last_s = 0.0;
    while !enough(traced.len() >= MIN_PASSES, start, seconds, last_s) {
        let pair = Instant::now();
        for mode in [Mode::Plain, Mode::Spans] {
            let p = pass(setup, &mut first, mode);
            report.absorb(&p);
            if mode == Mode::Spans {
                traced.push(p);
            } else {
                plain.push(p);
            }
        }
        last_s = pair.elapsed().as_secs_f64();
    }
    report.passes = (plain.len(), traced.len());
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let counts = traced[0].counts;
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = med(&|p| p.wall_s);
    let run_s = med(&|p| p.run_s);
    let ctrl_ns = |f: &dyn Fn(&CtrlSpans) -> f64| med(&|p| p.ctrl_spans.as_ref().map_or(0.0, f));
    let covered = |p: &Pass| {
        let layers = match &p.ctrl_spans {
            Some(s) => s.total_s(),
            None => p.compile_s + p.run_s,
        };
        (layers + p.other_s) / p.wall_s
    };
    let is_sim = setup.kind != Kind::CtrlStream;
    report.paper_gmean_err = paper_gmean_err(setup, &first);
    report.metrics = vec![
        ("imdb.compile_s", med(&|p| p.compile_s), "s"),
        ("imdb.ops", counts.ops as f64, "count"),
        ("system.run_s", if is_sim { run_s } else { 0.0 }, "s"),
        (
            "system.ns_per_req",
            if is_sim {
                ratio(run_s * 1e9, counts.requests as f64)
            } else {
                0.0
            },
            "ns",
        ),
        ("sim.requests", counts.requests as f64, "count"),
        ("sim.cycles", counts.cycles as f64, "count"),
        ("core.stride_bursts", counts.stride_bursts as f64, "count"),
        ("core.line_bursts", counts.line_bursts as f64, "count"),
        (
            "core.writeback_bursts",
            counts.writeback_bursts as f64,
            "count",
        ),
        ("cache.l1_hits", counts.l1_hits as f64, "count"),
        ("cache.sector_misses", counts.sector_misses as f64, "count"),
        ("cache.line_misses", counts.line_misses as f64, "count"),
        ("cache.writebacks", counts.writebacks as f64, "count"),
        ("cache.replay_accesses", replay_accesses as f64, "count"),
        (
            "cache.replay_ns_per_access",
            ratio(replay_s * 1e9, replay_accesses as f64),
            "ns",
        ),
        (
            "memctrl.row_hit_rate",
            ratio(counts.row_hits as f64, counts.col_accesses as f64),
            "frac",
        ),
        (
            "memctrl.starvation_forced",
            counts.starvation_forced as f64,
            "count",
        ),
        (
            "memctrl.starved_share",
            ratio(counts.starvation_forced as f64, counts.requests as f64),
            "frac",
        ),
        ("memctrl.refreshes", counts.refreshes as f64, "count"),
        (
            "memctrl.schedule_ns_p50",
            ctrl_ns(&|s| s.schedule_percentile_ns(50.0)),
            "ns",
        ),
        (
            "memctrl.schedule_ns_p90",
            ctrl_ns(&|s| s.schedule_percentile_ns(90.0)),
            "ns",
        ),
        (
            "memctrl.enqueue_ns",
            ctrl_ns(&CtrlSpans::enqueue_mean_ns),
            "ns",
        ),
        (
            "memctrl.advance_ns",
            ctrl_ns(&CtrlSpans::advance_mean_ns),
            "ns",
        ),
        (
            "memctrl.hybrid_hit_rate",
            ratio(
                counts.hybrid_hits as f64,
                (counts.hybrid_hits + counts.hybrid_misses) as f64,
            ),
            "frac",
        ),
        ("memctrl.hybrid_fills", counts.hybrid_fills as f64, "count"),
        (
            "memctrl.hybrid_dirty_evictions",
            counts.hybrid_dirty_evictions as f64,
            "count",
        ),
        ("dram.acts", counts.acts as f64, "count"),
        ("dram.col_cmds", counts.col_cmds as f64, "count"),
        ("dram.mode_switches", counts.mode_switches as f64, "count"),
        ("dram.replay_cmds", capture.dram.commands as f64, "count"),
        (
            "dram.replay_ns_per_cmd",
            ratio(capture.dram.ns as f64, capture.dram.commands as f64),
            "ns",
        ),
        ("dram.replay_errors", report.replay_errors as f64, "count"),
        ("harness.other_s", med(&|p| p.other_s), "s"),
        ("trace.coverage", med(&covered), "frac"),
        (
            "trace.overhead_frac",
            ratio(traced_wall - plain_wall, plain_wall),
            "frac",
        ),
        ("fail_frac", report.fail_frac(), "frac"),
        (
            "paper_gmean_err",
            report.paper_gmean_err.unwrap_or(-1.0),
            "ln",
        ),
    ];
    report
}

//! Per-layer replays: the cache hierarchy alone over a compiled plan, and
//! a DRAM device alone over a captured command stream.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use sam::design::Design;
use sam::layout::{Placement, Store};
use sam::ops::TraceOp;
use sam::system::SystemConfig;
use sam_cache::hierarchy::{AccessKind, Hierarchy};
use sam_dram::command::Command;
use sam_dram::device::{DeviceConfig, DeviceStats, MemoryDevice};
use sam_dram::observe::{CommandObserver, SharedObserver};
use sam_dram::Cycle;
use sam_imdb::plan::Plan;

/// Records every command a device accepts, in issue order.
#[derive(Debug, Default)]
pub struct CommandLog {
    /// `(command, issue cycle)` pairs.
    pub commands: Vec<(Command, Cycle)>,
}

impl CommandObserver for CommandLog {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        self.commands.push((*cmd, at));
    }
}

/// A fresh shared log, plus the same log as the observer handle the
/// simulator takes.
pub fn command_log() -> (Arc<Mutex<CommandLog>>, SharedObserver) {
    let log = Arc::new(Mutex::new(CommandLog::default()));
    let observer: SharedObserver = log.clone();
    (log, observer)
}

/// Takes the commands recorded so far out of `log`.
pub fn take_commands(log: &Mutex<CommandLog>) -> Vec<(Command, Cycle)> {
    std::mem::take(&mut log.lock().expect("command log lock poisoned").commands)
}

/// Outcome of replaying one captured command stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramReplay {
    /// Commands issued.
    pub commands: u64,
    /// Host ns spent in `MemoryDevice::issue`.
    pub ns: u64,
    /// Commands the fresh device refused, plus one if its final counters
    /// differ from the run's.
    pub errors: u64,
}

impl DramReplay {
    /// Accumulates another replay.
    pub fn add(&mut self, other: DramReplay) {
        self.commands += other.commands;
        self.ns += other.ns;
        self.errors += other.errors;
    }
}

/// Replays `commands` through a fresh device of `config` at their recorded
/// cycles. The device is deterministic, so the stream it accepted once it
/// must accept again, ending on the same counters (`expect`).
pub fn replay_dram(
    config: DeviceConfig,
    commands: &[(Command, Cycle)],
    expect: &DeviceStats,
) -> DramReplay {
    let mut device = MemoryDevice::new(config);
    let mut errors = 0;
    let start = std::time::Instant::now();
    for (cmd, at) in commands {
        if black_box(device.issue(cmd, *at)).is_err() {
            errors += 1;
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    if device.stats() != expect {
        errors += 1;
    }
    DramReplay {
        commands: commands.len() as u64,
        ns,
        errors,
    }
}

/// Walks `plan`'s op traces through a fresh cache hierarchy under the
/// placement `design` and `store` give the plan's tables: every touched
/// 16B sector is looked up with `Hierarchy::access`, and a miss installs
/// a sector (grouped stride layouts) or a whole line (everything else).
/// Cores advance one op at a time in turn. Returns the accesses made.
///
/// This is a host-cost replay of the cache layer, not the simulator's
/// timing model: it has no MSHRs, no prefetch and no memory latency.
pub fn walk_cache(plan: &Plan, design: &Design, store: Store, system: &SystemConfig) -> u64 {
    let placements: Vec<Placement> = plan
        .tables
        .iter()
        .map(|t| Placement::new(*t, store, design, system.granularity))
        .collect();
    let mut hierarchy = Hierarchy::new(system.hierarchy);
    let mut accesses = 0u64;
    let mut cursors = vec![0usize; plan.traces.len()];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (trace, cursor) in plan.traces.iter().zip(cursors.iter_mut()) {
            let Some(op) = trace.get(*cursor) else {
                continue;
            };
            *cursor += 1;
            progressed = true;
            let (table, record, write) = match op {
                TraceOp::Fields {
                    table,
                    record,
                    write,
                    ..
                }
                | TraceOp::Whole {
                    table,
                    record,
                    write,
                } => (*table, *record, *write),
                TraceOp::Compute(_) => continue,
            };
            let placement = &placements[usize::from(table)];
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let mut last_sector = u64::MAX;
            let mut touch = |field: u32| {
                let addr = placement.field_addr(record, field);
                // Fields are 8B: consecutive fields share a 16B sector.
                if addr & !15 == last_sector {
                    return;
                }
                last_sector = addr & !15;
                accesses += 1;
                if hierarchy.access(addr, kind).memory_fill_needed() {
                    let writebacks = if placement.gather().is_some() {
                        hierarchy.fill_sector(addr)
                    } else {
                        hierarchy.fill_line(addr)
                    };
                    black_box(writebacks);
                    if write {
                        hierarchy.mark_dirty(addr);
                    }
                }
            };
            match op {
                TraceOp::Fields { fields, .. } => {
                    for &f in fields {
                        touch(u32::from(f));
                    }
                }
                _ => (0..placement.spec().fields).for_each(touch),
            }
        }
    }
    black_box(hierarchy.stats());
    accesses
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam::designs;
    use sam_imdb::exec::Workload;
    use sam_imdb::plan::PlanConfig;
    use sam_imdb::query::Query;

    #[test]
    fn captured_streams_replay_without_errors() {
        let workload = Workload::new(Query::Q12, PlanConfig::tiny());
        let plan = workload.compile();
        let design = designs::sam_en();
        let (log, observer) = command_log();
        let mut instr = sam::system::Instrumentation {
            observer: Some(observer),
            ..Default::default()
        };
        let system = sam::system::System::new(workload.system, design.clone(), Store::Row);
        let result = system.run_instrumented(&plan.tables, &plan.traces, &mut instr);
        let commands = take_commands(&log);
        assert!(!commands.is_empty());
        let replay = replay_dram(design.device_config(), &commands, &result.device);
        assert_eq!(replay.errors, 0);
        assert_eq!(replay.commands, commands.len() as u64);

        // A command dropped from the stream leaves the device out of step.
        let mut broken = commands.clone();
        broken.remove(0);
        let replay = replay_dram(design.device_config(), &broken, &result.device);
        assert!(replay.errors > 0);
    }

    #[test]
    fn cache_walk_touches_every_planned_sector() {
        let workload = Workload::new(Query::Q3, PlanConfig::tiny());
        let plan = workload.compile();
        let row = walk_cache(&plan, &designs::commodity(), Store::Row, &workload.system);
        let strided = walk_cache(&plan, &designs::sam_en(), Store::Row, &workload.system);
        assert!(row > 0 && strided > 0);
    }
}

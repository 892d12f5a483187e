//! Scheduling and execution: FR-FCFS selection, the write-drain
//! latch, command execution against the device, and `drain`.

use super::*;

impl Controller {
    /// Picks the FR-FCFS winner within one queue, returning its queue
    /// index and whether the starvation cap forced it. The policy sees
    /// requests only as [`sched::SchedView`]s (arrival, location,
    /// required mode — never provenance): through the queue's
    /// incrementally kept [`sched::GroupIndex`], or through the
    /// whole-queue [`sched::select_reference`] scan when
    /// [`ControllerConfig::reference_scheduler`] is set. The closures hand
    /// the policy read-only access to the device's bank timing state and
    /// per-rank I/O mode.
    fn select(&self, write_queue: bool, now: Cycle) -> Option<(usize, bool)> {
        let _p = phase("sched-select");
        let queue = if write_queue {
            &self.writeq
        } else {
            &self.readq
        };
        let device = &self.device;
        let est = |loc: Location, base: Cycle| {
            device.earliest_column_for_row(loc.rank, loc.bank_group, loc.bank, loc.row, base)
        };
        let mode = |rank: usize| device.io_mode(rank);
        let cap = self.cfg.starvation_cap;
        let trtr = self.cfg.device.timing.rtr;
        if self.cfg.reference_scheduler {
            let views = queue.iter().map(Pending::view);
            let d = sched::select_reference(views, now, cap, trtr, est, mode)?;
            Some((d.index, d.starved))
        } else {
            queue.select(now, cap, trtr, est, mode)
        }
    }

    /// Executes the full command sequence for `p`, returning its completion.
    fn execute(&mut self, p: Pending) -> Completion {
        let _p = phase("dram");
        self.service_refresh(self.clock.max(p.arrival));
        // Every command issued below (MRS/PRE/ACT plus the column access)
        // serves this request; stamp its origin for the observer fan-out.
        self.device.set_command_origin(Some(p.req.prov.core));
        let t = self.cfg.device.timing;
        let loc = p.loc;
        // Start from the request's own arrival: per-bank state machines and
        // the shared data bus already serialize where physics requires, so
        // a later-selected request's PRE/ACT may overlap earlier requests'
        // column phases (bank-level parallelism).
        let mut cursor = p.arrival;

        // I/O mode switch if needed (MRS; tRTR charged by the rank state).
        let want = p.req.required_mode();
        if self.device.io_mode(loc.rank) != want {
            let mrs = Command::mrs(loc.rank, want);
            let at = self.device.earliest_issue(&mrs, cursor);
            self.device.issue(&mrs, at).expect("MRS always issuable");
            cursor = at;
        }

        // Row state handling (open-page policy).
        let open = self.device.open_row(loc.rank, loc.bank_group, loc.bank);
        match open {
            Some(row) if row == loc.row => {
                self.stats.row_hits += 1;
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                let pre = Command::pre(loc.rank, loc.bank_group, loc.bank);
                let at = self.device.earliest_issue(&pre, cursor);
                self.device
                    .issue(&pre, at)
                    .expect("PRE follows earliest_issue");
                cursor = at;
                let act = Command::act(loc.rank, loc.bank_group, loc.bank, loc.row);
                let at = self.device.earliest_issue(&act, cursor);
                self.device
                    .issue(&act, at)
                    .expect("ACT follows earliest_issue");
                cursor = at;
            }
            None => {
                self.stats.row_misses += 1;
                let act = Command::act(loc.rank, loc.bank_group, loc.bank, loc.row);
                let at = self.device.earliest_issue(&act, cursor);
                self.device
                    .issue(&act, at)
                    .expect("ACT follows earliest_issue");
                cursor = at;
            }
        }

        // The column access itself.
        let stride = p.req.stride.is_some();
        let col_cmd = match (p.req.narrow, p.req.is_write) {
            (true, false) => Command::read_narrow(
                loc.rank,
                loc.bank_group,
                loc.bank,
                loc.row,
                loc.col,
                p.req.sub_lane(),
            ),
            (true, true) => Command::write_narrow(
                loc.rank,
                loc.bank_group,
                loc.bank,
                loc.row,
                loc.col,
                p.req.sub_lane(),
            ),
            (false, true) => {
                Command::write(loc.rank, loc.bank_group, loc.bank, loc.row, loc.col, stride)
            }
            (false, false) => {
                Command::read(loc.rank, loc.bank_group, loc.bank, loc.row, loc.col, stride)
            }
        };
        let at = self.device.earliest_issue(&col_cmd, cursor);
        let finish = self
            .device
            .issue(&col_cmd, at)
            .expect("column command follows earliest_issue");
        self.device.set_command_origin(None);
        self.clock = self.clock.max(at);

        // A completion earlier than its own arrival means the scheduler (or
        // device timing) produced an impossible ordering; fail loudly
        // instead of silently recording a zero-cycle latency that would
        // mask the bug and skew every latency statistic.
        debug_assert!(
            finish >= p.arrival,
            "request {} completed at {finish} before its arrival {}",
            p.req.id,
            p.arrival
        );
        let latency = finish
            .checked_sub(p.arrival)
            .expect("completion must not precede arrival");
        if p.req.is_write {
            self.stats.writes_done += 1;
            self.write_latency_hist.add(latency);
        } else {
            self.stats.reads_done += 1;
            self.read_latency_hist.add(latency);
        }
        self.stats.total_latency += latency;
        self.latency_hist.add(latency);
        // The per-(core, kind) lane mirrors every per-request aggregate
        // increment above (plus the row outcome), so lanes telescope.
        let lane = self.lanes.lane_mut(p.req.prov);
        match open {
            Some(row) if row == loc.row => lane.row_hits += 1,
            Some(_) => lane.row_conflicts += 1,
            None => lane.row_misses += 1,
        }
        if p.req.is_write {
            lane.writes_done += 1;
        } else {
            lane.reads_done += 1;
        }
        lane.total_latency += latency;
        let _ = t;
        self.trace.emit(TraceEvent::complete(
            track::REQUESTS,
            Category::Ctrl,
            if p.req.is_write { "write" } else { "read" },
            at,
            finish.saturating_sub(at),
            p.req.id,
        ));
        // Same service span again on the issuing core's lane, named by the
        // lowering path so Perfetto shows where each core's cycles go.
        self.trace.emit(TraceEvent::complete(
            track::core(p.req.prov.core),
            Category::Ctrl,
            p.req.prov.kind.label(),
            at,
            finish.saturating_sub(at),
            p.req.id,
        ));
        self.note_epoch(finish);
        Completion {
            id: p.req.id,
            issue: at,
            finish,
            row_hit: matches!(open, Some(r) if r == loc.row),
        }
    }

    /// Schedules and fully executes one request, FR-FCFS order, honouring
    /// the write-drain watermarks. Returns `None` when both queues are empty.
    pub fn schedule_one(&mut self, now: Cycle) -> Option<Completion> {
        // Watermark policy.
        let was_draining = self.draining_writes;
        self.draining_writes = sched::drain_latch(
            was_draining,
            self.writeq.len(),
            self.cfg.write_high_watermark,
            self.cfg.write_low_watermark,
        );
        if self.draining_writes != was_draining {
            let ev = if self.draining_writes {
                TraceEvent::begin(track::CTRL, Category::Ctrl, "write-drain", now)
            } else {
                TraceEvent::end(track::CTRL, Category::Ctrl, "write-drain", now)
            };
            self.trace.emit(ev);
        }
        let serve_writes = sched::serve_writes(
            self.readq.is_empty(),
            self.writeq.is_empty(),
            self.draining_writes,
        );
        let (queue_is_write, (idx, starved)) = if serve_writes {
            (true, self.select(true, now)?)
        } else {
            (false, self.select(false, now)?)
        };
        let pending = if queue_is_write {
            self.writeq.remove(idx)
        } else {
            self.readq.remove(idx)
        };
        if starved {
            self.stats.starvation_forced += 1;
            obs::CTRL_STARVED.add(1);
            self.lanes.lane_mut(pending.req.prov).starvation_forced += 1;
            self.trace.emit(TraceEvent::instant(
                track::CTRL,
                Category::Ctrl,
                "starved",
                now,
                pending.req.id,
            ));
        }
        Some(self.execute(pending))
    }

    /// Schedules until both queues are empty, returning all completions in
    /// execution order.
    pub fn drain(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::with_capacity(self.queued());
        while let Some(c) = self.schedule_one(now.max(self.clock)) {
            done.push(c);
        }
        done
    }
}

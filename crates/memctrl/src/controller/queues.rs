//! Request admission: the request queues, occupancy accessors,
//! backpressure, and `enqueue` (the controller's ingress edge).

use std::collections::VecDeque;

use sam_dram::moderegs::IoMode;

use super::*;

/// One request queue, in enqueue order, with its FR-FCFS group index
/// ([`sched::GroupIndex`]) kept in step on every push and removal.
#[derive(Debug, Clone, Default)]
pub(super) struct Queue {
    pending: VecDeque<Pending>,
    groups: sched::GroupIndex,
}

impl Queue {
    pub(super) fn len(&self) -> usize {
        self.pending.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &Pending> + '_ {
        self.pending.iter()
    }

    /// The FR-FCFS winner by [`sched::GroupIndex::select`]: its queue
    /// index, found by binary search on `seq` because queue order is seq
    /// order, and whether the starvation cap forced it.
    pub(super) fn select(
        &self,
        now: Cycle,
        cap: Cycle,
        trtr: Cycle,
        earliest_column: impl FnMut(Location, Cycle) -> Cycle,
        rank_mode: impl FnMut(usize) -> IoMode,
    ) -> Option<(usize, bool)> {
        let pick = self
            .groups
            .select(now, cap, trtr, earliest_column, rank_mode)?;
        let index = self
            .pending
            .binary_search_by_key(&pick.seq, |p| p.seq)
            .expect("selected request is queued");
        Some((index, pick.starved))
    }

    fn push(&mut self, p: Pending) {
        self.groups.insert(p.view(), p.seq);
        self.pending.push_back(p);
    }

    /// Removes and returns the request at queue index `index`.
    pub(super) fn remove(&mut self, index: usize) -> Pending {
        let p = self.pending.remove(index).expect("index from select");
        self.groups.remove(p.view(), p.seq);
        p
    }
}

impl Controller {
    /// Current read-queue occupancy.
    pub fn read_queue_len(&self) -> usize {
        self.readq.len()
    }

    /// Current write-queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.writeq.len()
    }

    /// Whether the write-drain hysteresis latch is currently set (writes
    /// being served in preference to reads).
    pub fn draining_writes(&self) -> bool {
        self.draining_writes
    }

    /// Forward-progress probe: the age at `now` of the oldest queued
    /// request across both queues, or `None` when idle. An external
    /// harness can assert this never exceeds the starvation cap plus a
    /// drain-window bound; the controller itself only enforces the cap
    /// *within* the queue selected by the drain latch, so the combined
    /// bound is a property of the whole scheduler, not of `select()`.
    pub fn oldest_pending_age(&self, now: Cycle) -> Option<Cycle> {
        let oldest = |q: &Queue| q.iter().map(|p| p.arrival).min();
        match (oldest(&self.readq), oldest(&self.writeq)) {
            (None, None) => None,
            (a, b) => {
                let arrival = a.into_iter().chain(b).min().expect("one side is Some");
                Some(now.saturating_sub(arrival))
            }
        }
    }

    /// Whether a read (or write) can currently be accepted.
    pub fn can_accept(&self, is_write: bool) -> bool {
        if is_write {
            self.writeq.len() < self.cfg.write_queue_capacity
        } else {
            self.readq.len() < self.cfg.read_queue_capacity
        }
    }

    /// Enqueues `req` arriving at cycle `arrival`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the corresponding queue is at capacity; the
    /// caller should schedule work and retry.
    pub fn enqueue(&mut self, req: MemRequest, arrival: Cycle) -> Result<(), QueueFull> {
        if !self.can_accept(req.is_write) {
            return Err(QueueFull {
                write_queue: req.is_write,
            });
        }
        let loc = self.mapper.decode(req.addr);
        let pending = Pending {
            req,
            loc,
            arrival,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        if req.is_write {
            self.writeq.push(pending);
            obs::WRITEQ_DEPTH.observe(self.writeq.len());
        } else {
            self.readq.push(pending);
            obs::READQ_DEPTH.observe(self.readq.len());
        }
        obs::CTRL_REQUESTS.add(1);
        if self.trace.is_attached() {
            let (name, lane, depth) = if req.is_write {
                ("enq-write", track::WRITEQ, self.writeq.len())
            } else {
                ("enq-read", track::READQ, self.readq.len())
            };
            self.trace.emit(TraceEvent::instant(
                track::CTRL,
                Category::Ctrl,
                name,
                arrival,
                req.id,
            ));
            self.trace.emit(TraceEvent::counter(
                lane,
                Category::Ctrl,
                "depth",
                arrival,
                depth as u64,
            ));
        }
        Ok(())
    }
}

//! The FR-FCFS scheduling *policy*, isolated from the controller datapath.
//!
//! Everything in this module is deliberately blind to request identity: a
//! queued request is visible to the policy only as a [`SchedView`] — its
//! arrival cycle, decoded bank [`Location`], and required [`IoMode`]. The
//! PR 5 invariant ("provenance is payload, never policy") is structural
//! here: this module cannot name provenance fields because its inputs do
//! not carry them, and the `sam-analyze` provenance-purity rule denies the
//! tokens outright in any `src/sched*` module. Scheduling decisions
//! therefore cannot depend on which core or lowering path issued a
//! request, which is what keeps per-core attribution observational.
//!
//! The policy has three parts:
//!
//! - [`GroupIndex::select`]: the FR-FCFS winner of one queue — earliest
//!   estimated column issue first (row hits sort first by construction),
//!   arrival order breaking ties, with the starvation cap overriding both.
//!   The index is kept up to date as requests enter and leave the queue,
//!   so a decision visits only the queue's live groups;
//!   [`select_reference`] is the whole-queue scan it is proven against.
//! - [`drain_latch`]: the write-drain hysteresis latch over the
//!   high/low watermarks.
//! - [`serve_writes`]: which queue the next decision comes from, given
//!   occupancies and the latch.

use std::collections::VecDeque;

use sam_dram::moderegs::IoMode;
use sam_dram::Cycle;

// Observability is write-only in this module: counters are bumped, never
// read, so no scheduling decision can depend on observability state. The
// sam-analyze obs-purity rule denies the registry's read surface
// (`value`/`snapshot`/`delta`) in any `src/sched*` module outright.
use sam_obs::registry as obs;

use crate::mapping::Location;

/// The policy-visible projection of a queued request: *where* it goes and
/// *when* it arrived — never *who* issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedView {
    /// Cycle the request entered the queue.
    pub arrival: Cycle,
    /// Decoded device location.
    pub loc: Location,
    /// I/O mode the column access requires (stride accesses need a mode
    /// switch costing tRTR when the rank is in the other mode).
    pub mode: IoMode,
}

/// Outcome of one [`select_reference`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index of the winning request within the scanned queue.
    pub index: usize,
    /// Whether the starvation cap forced this pick (the oldest request had
    /// waited more than the cap, bypassing first-ready preference).
    pub starved: bool,
}

/// Outcome of one [`GroupIndex::select`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Enqueue sequence number of the winning request.
    pub seq: u64,
    /// Whether the starvation cap forced this pick.
    pub starved: bool,
}

/// One queued request as the index keeps it. The derived order is
/// `(arrival, seq)`: the FCFS order, enqueue order breaking ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Member {
    arrival: Cycle,
    seq: u64,
}

/// Queued requests agreeing on (bank, row, mode). They are
/// interchangeable to the estimate except through `max(now, arrival)`,
/// and the estimate is monotone in arrival, so the representative — the
/// member with the smallest `(arrival, seq)` — dominates every other
/// member under the `(est, arrival, seq)` order and is the only one a
/// decision needs to estimate.
#[derive(Debug, Clone)]
struct Group {
    /// The group's bank and row (`col` is whichever member formed the
    /// group; it never enters the estimate).
    loc: Location,
    mode: IoMode,
    /// `members[0]`, copied out so a decision reads only the group.
    rep: Member,
    /// Ascending `(arrival, seq)`; empty while the group sits in the
    /// reuse tail.
    members: VecDeque<Member>,
}

impl Group {
    fn holds(&self, v: &SchedView) -> bool {
        self.loc.row == v.loc.row
            && self.loc.bank == v.loc.bank
            && self.loc.bank_group == v.loc.bank_group
            && self.loc.rank == v.loc.rank
            && self.mode == v.mode
    }
}

/// The (bank, row, mode) groups of one request queue, updated as requests
/// are inserted and removed instead of rebuilt on every decision.
///
/// The live groups sit first in one flat vector, so a decision reads a
/// single dense array. Queues hold few live groups at a time (3 to 12
/// per decision on average on the simbench `ctrl_stream` and fig12
/// workloads), which a linear key match finds faster than per-bank
/// buckets would. Emptied
/// groups move to a reuse tail and keep their member storage, so a
/// steady-state insert does not allocate.
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    /// Live groups in `groups[..live]`, emptied ones after them.
    groups: Vec<Group>,
    live: usize,
}

impl GroupIndex {
    /// Adds a request. `seq` must exceed every `seq` inserted before it,
    /// so that seq order is queue order.
    pub fn insert(&mut self, v: SchedView, seq: u64) {
        let member = Member {
            arrival: v.arrival,
            seq,
        };
        if let Some(g) = self.groups[..self.live].iter_mut().find(|g| g.holds(&v)) {
            // Arrivals mostly come in enqueue order, so the new member
            // usually sorts last.
            if g.members.back().is_some_and(|&last| last > member) {
                let at = g.members.partition_point(|&m| m < member);
                g.members.insert(at, member);
                g.rep = g.members[0];
            } else {
                g.members.push_back(member);
            }
            return;
        }
        if self.live == self.groups.len() {
            self.groups.push(Group {
                loc: v.loc,
                mode: v.mode,
                rep: member,
                members: VecDeque::new(),
            });
        }
        let g = &mut self.groups[self.live];
        g.loc = v.loc;
        g.mode = v.mode;
        g.rep = member;
        g.members.push_back(member);
        self.live += 1;
    }

    /// Removes the request inserted as (`v`, `seq`).
    ///
    /// # Panics
    ///
    /// If no such request is indexed.
    pub fn remove(&mut self, v: SchedView, seq: u64) {
        let gi = self.groups[..self.live]
            .iter()
            .position(|g| g.holds(&v))
            .expect("removed request has an indexed group");
        let g = &mut self.groups[gi];
        let at = g
            .members
            .binary_search(&Member {
                arrival: v.arrival,
                seq,
            })
            .expect("removed request is an indexed member");
        g.members.remove(at);
        match g.members.front() {
            Some(&rep) => g.rep = rep,
            None => {
                self.live -= 1;
                self.groups.swap(gi, self.live);
            }
        }
    }

    /// Picks the FR-FCFS winner among the indexed requests: they are
    /// ranked by the estimated earliest column-issue cycle (row hits first
    /// by construction), with arrival order breaking ties. Requests whose
    /// required mode differs from the rank's current mode are charged
    /// `trtr` in the estimate, which makes the scheduler batch same-mode
    /// requests and amortize switches (the controller behaviour Section
    /// 5.3 assumes).
    ///
    /// Starvation guard: if the oldest request has already waited more
    /// than `cap` cycles at `now`, it is returned directly — first-ready
    /// preference must not delay any request unboundedly.
    /// [`Pick::starved`] reports whether the guard fired, so the caller
    /// can count and trace cap firings.
    ///
    /// Device state is reached only through the two closures
    /// (`earliest_column` estimates the column-issue cycle for a location;
    /// `rank_mode` reports a rank's current I/O mode), so the policy stays
    /// a pure function of its visible inputs. `earliest_column` must be
    /// pure, independent of `col`, and monotone non-decreasing in its
    /// cycle argument (every device form is `max(ready, base + fixed)`);
    /// that is what lets one representative stand for its whole group.
    ///
    /// Decision-for-decision identical to [`select_reference`] over the
    /// same requests in seq order: the oldest request is the minimum
    /// `(arrival, seq)` over the representatives, and the winner is the
    /// minimum `(est, arrival, seq)` over them, which is the reference
    /// scan's `(est, arrival, index)` minimum because queue index order
    /// is seq order.
    pub fn select(
        &self,
        now: Cycle,
        cap: Cycle,
        trtr: Cycle,
        mut earliest_column: impl FnMut(Location, Cycle) -> Cycle,
        mut rank_mode: impl FnMut(usize) -> IoMode,
    ) -> Option<Pick> {
        obs::SCHED_SELECTS.add(1);
        let live = &self.groups[..self.live];
        let oldest = live.iter().map(|g| g.rep).min()?;
        if now.saturating_sub(oldest.arrival) > cap {
            return Some(Pick {
                seq: oldest.seq,
                starved: true,
            });
        }
        live.iter()
            .map(|g| {
                let v = SchedView {
                    arrival: g.rep.arrival,
                    loc: g.loc,
                    mode: g.mode,
                };
                let est = estimate(&v, now, trtr, &mut earliest_column, &mut rank_mode);
                (est, g.rep)
            })
            .min()
            .map(|(_, rep)| Pick {
                seq: rep.seq,
                starved: false,
            })
    }
}

fn estimate(
    v: &SchedView,
    now: Cycle,
    trtr: Cycle,
    earliest_column: &mut impl FnMut(Location, Cycle) -> Cycle,
    rank_mode: &mut impl FnMut(usize) -> IoMode,
) -> Cycle {
    let base = now.max(v.arrival);
    let mut est = earliest_column(v.loc, base);
    if rank_mode(v.loc.rank) != v.mode {
        est += trtr;
    }
    est
}

/// The reference FR-FCFS scan: estimates every queued request and keeps
/// the strict `(est, arrival)` minimum, first index winning ties.
///
/// This is the model [`GroupIndex::select`] is proven against — the
/// differential suite replays recorded request streams through both and
/// asserts identical decisions (see `tests/` and the sam-stress matrix).
/// Keep it dead simple; it is the spec, not the fast path.
pub fn select_reference(
    queue: impl Iterator<Item = SchedView>,
    now: Cycle,
    cap: Cycle,
    trtr: Cycle,
    mut earliest_column: impl FnMut(Location, Cycle) -> Cycle,
    mut rank_mode: impl FnMut(usize) -> IoMode,
) -> Option<Decision> {
    obs::SCHED_SELECTS.add(1);
    let mut oldest: Option<(Cycle, usize)> = None;
    let mut best: Option<(Cycle, Cycle, usize)> = None;
    for (i, v) in queue.enumerate() {
        if oldest.is_none_or(|(a, _)| v.arrival < a) {
            oldest = Some((v.arrival, i));
        }
        let est = estimate(&v, now, trtr, &mut earliest_column, &mut rank_mode);
        if best.is_none_or(|(be, ba, _)| (est, v.arrival) < (be, ba)) {
            best = Some((est, v.arrival, i));
        }
    }
    let (oldest_arrival, oldest_idx) = oldest?;
    if now.saturating_sub(oldest_arrival) > cap {
        return Some(Decision {
            index: oldest_idx,
            starved: true,
        });
    }
    best.map(|(_, _, index)| Decision {
        index,
        starved: false,
    })
}

/// Advances the write-drain hysteresis latch: occupancy at or above `hi`
/// sets it (writes drain in a batch), occupancy at or below `lo` clears it
/// (reads regain priority). Between the watermarks the latch holds its
/// previous state — that hysteresis is what batches writes instead of
/// thrashing the bus turnaround on every enqueue.
pub fn drain_latch(current: bool, writeq_len: usize, hi: usize, lo: usize) -> bool {
    let mut latch = current;
    if writeq_len >= hi {
        latch = true;
    }
    if writeq_len <= lo {
        latch = false;
    }
    latch
}

/// Which queue the next scheduling decision serves: an empty side never
/// wins, otherwise the drain latch decides.
pub fn serve_writes(readq_empty: bool, writeq_empty: bool, draining: bool) -> bool {
    if readq_empty {
        !writeq_empty
    } else if writeq_empty {
        false
    } else {
        draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(arrival: Cycle, row: u64) -> SchedView {
        SchedView {
            arrival,
            loc: Location {
                row,
                ..Location::default()
            },
            mode: IoMode::X4,
        }
    }

    /// An estimate that charges 10 cycles unless the row is 7 ("open").
    fn est(loc: Location, base: Cycle) -> Cycle {
        base + if loc.row == 7 { 0 } else { 10 }
    }

    /// Indexes `q` (seq = queue index), runs the index select and the
    /// reference scan, and asserts they agree before returning the
    /// decision.
    fn select_checked(q: &[SchedView], now: Cycle, cap: Cycle, trtr: Cycle) -> Option<Decision> {
        let mut index = GroupIndex::default();
        for (seq, v) in q.iter().enumerate() {
            index.insert(*v, seq as u64);
        }
        let fast = index.select(now, cap, trtr, est, |_| IoMode::X4);
        let reference = select_reference(q.iter().copied(), now, cap, trtr, est, |_| IoMode::X4);
        assert_eq!(
            fast,
            reference.map(|d| Pick {
                seq: d.index as u64,
                starved: d.starved
            }),
            "index must match the reference scan"
        );
        reference
    }

    #[test]
    fn row_hit_beats_older_miss() {
        let q = [view(0, 1), view(5, 7)];
        let d = select_checked(&q, 6, 100, 2).unwrap();
        assert_eq!(
            d,
            Decision {
                index: 1,
                starved: false
            }
        );
    }

    #[test]
    fn arrival_breaks_estimate_ties() {
        let q = [view(3, 1), view(1, 1)];
        let d = select_checked(&q, 4, 100, 2).unwrap();
        assert_eq!(d.index, 1);
    }

    #[test]
    fn starvation_cap_overrides_row_hits() {
        let q = [view(0, 1), view(200, 7)];
        let d = select_checked(&q, 150, 100, 2).unwrap();
        assert_eq!(
            d,
            Decision {
                index: 0,
                starved: true
            }
        );
    }

    #[test]
    fn mode_mismatch_charges_trtr() {
        // Same arrival and row state; request 0 needs a stride mode the
        // rank is not in, so tRTR tips the estimate toward request 1.
        let mut q = [view(0, 7), view(0, 7)];
        q[0].mode = IoMode::Sx4(0);
        let d = select_checked(&q, 0, 100, 2).unwrap();
        assert_eq!(d.index, 1);
    }

    #[test]
    fn empty_queue_selects_nothing() {
        assert!(select_checked(&[], 0, 100, 2).is_none());
    }

    #[test]
    fn equal_arrival_ties_pick_the_first_index() {
        // Three same-group requests with equal arrivals: the reference
        // strict `<` keeps index 0; the index's representative rule must
        // do the same.
        let q = [view(4, 7), view(4, 7), view(4, 7)];
        let d = select_checked(&q, 5, 100, 2).unwrap();
        assert_eq!(d.index, 0);
    }

    #[test]
    fn emptied_groups_keep_their_storage() {
        let mut index = GroupIndex::default();
        for seq in 0..3 {
            index.insert(view(seq, 7), seq);
        }
        for seq in 0..3 {
            index.remove(view(seq, 7), seq);
        }
        assert!(index.select(0, 100, 2, est, |_| IoMode::X4).is_none());
        // A different group re-forms in the emptied slot.
        index.insert(view(5, 9), 3);
        assert_eq!((index.live, index.groups.len()), (1, 1));
        assert!(index.groups[0].members.capacity() >= 3);
        assert_eq!(
            index.select(5, 100, 2, est, |_| IoMode::X4),
            Some(Pick {
                seq: 3,
                starved: false
            })
        );
    }

    /// Randomized differential check of the incremental index against the
    /// reference scan. Interleaves enqueues, served winners and arbitrary
    /// removals, with equal arrivals, arrivals out of enqueue order and
    /// after `now`, stride modes, more than 48 distinct rows in the queue,
    /// groups that empty and re-form, and starvation caps 0, 20 and 4096.
    /// The estimate models per-bank open rows and readiness, updated by
    /// every served winner, so decisions see evolving device state.
    #[test]
    fn index_matches_reference_under_interleaved_updates() {
        let mut state = 0x5A11_AD5E_1EC7_0000_u64 ^ 0x1234_5678_9abc_def0;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // (rank, bank group, bank, row, mode) of a view, and its bank's
        // dense id over 2 ranks x 4 bank groups x 4 banks.
        let key = |v: &SchedView| {
            let mode = IoMode::ALL.iter().position(|&m| m == v.mode);
            (v.loc.rank, v.loc.bank_group, v.loc.bank, v.loc.row, mode)
        };
        let bank_of = |l: Location| (l.rank * 4 + l.bank_group) * 4 + l.bank;
        let banks = 32;
        let mut starved = [0u64; 3];
        let (mut max_groups, mut late, mut reformed) = (0, 0, 0);
        for case in 0..240 {
            let cap_slot = case % 3;
            let cap = [0, 20, 4096][cap_slot];
            // Few rows make groups empty and re-form; many rows, with
            // enqueues outpacing removals, keep more than 48 groups live.
            let (rows, enqueue_ops) = if case % 2 == 0 { (3, 2) } else { (90, 3) };
            let mut index = GroupIndex::default();
            let mut queue: Vec<(SchedView, u64)> = Vec::new();
            let mut ever = Vec::new();
            let mut open = vec![u64::MAX; banks];
            let mut ready = vec![0; banks];
            let mut mode = [IoMode::X4; 2];
            let (mut seq, mut now) = (0u64, 0);
            for step in 0..300 {
                let op = next() % (enqueue_ops + 2);
                if op < enqueue_ops && queue.len() < 96 {
                    let mut v = view((now + next() % 24).saturating_sub(12), next() % rows);
                    v.loc.bank = (next() % 4) as usize;
                    v.loc.bank_group = (next() % 4) as usize;
                    v.loc.rank = (next() % 2) as usize;
                    v.loc.col = next() % 128;
                    if next() % 3 == 0 {
                        v.mode = IoMode::Sx4((next() % 4) as u8);
                    }
                    let k = key(&v);
                    if ever.contains(&k) && !queue.iter().any(|q| key(&q.0) == k) {
                        reformed += 1;
                    }
                    ever.push(k);
                    late += u64::from(v.arrival > now);
                    index.insert(v, seq);
                    queue.push((v, seq));
                    seq += 1;
                } else if op == enqueue_ops && !queue.is_empty() {
                    let (v, s) = queue.remove((next() % queue.len() as u64) as usize);
                    index.remove(v, s);
                }
                let mut groups: Vec<_> = queue.iter().map(|q| key(&q.0)).collect();
                groups.sort_unstable();
                groups.dedup();
                max_groups = max_groups.max(groups.len());
                let est = |l: Location, base: Cycle| {
                    let b = bank_of(l);
                    ready[b].max(base) + if open[b] == l.row { 0 } else { 14 }
                };
                let rank_mode = |r: usize| mode[r];
                let reference =
                    select_reference(queue.iter().map(|q| q.0), now, cap, 3, est, rank_mode);
                let fast = index.select(now, cap, 3, est, rank_mode);
                assert_eq!(
                    fast,
                    reference.map(|d| Pick {
                        seq: queue[d.index].1,
                        starved: d.starved
                    }),
                    "case {case} step {step}: now {now} cap {cap} queue {queue:?}"
                );
                if op == enqueue_ops + 1 {
                    if let Some(d) = reference {
                        let (v, s) = queue.remove(d.index);
                        index.remove(v, s);
                        starved[cap_slot] += u64::from(d.starved);
                        let b = bank_of(v.loc);
                        open[b] = v.loc.row;
                        ready[b] = now.max(v.arrival) + 4;
                        mode[v.loc.rank] = v.mode;
                    }
                }
                now += next() % 6;
            }
        }
        assert!(max_groups > 48, "distinct groups peaked at {max_groups}");
        assert!(
            starved[0] > 0 && starved[1] > 0,
            "starved picks {starved:?}"
        );
        assert!(
            late > 0 && reformed > 0,
            "late {late}, re-formed {reformed}"
        );
    }

    #[test]
    fn latch_hysteresis_holds_between_watermarks() {
        assert!(drain_latch(false, 28, 28, 8));
        assert!(drain_latch(true, 15, 28, 8), "holds between watermarks");
        assert!(!drain_latch(false, 15, 28, 8), "holds when clear too");
        assert!(!drain_latch(true, 8, 28, 8));
    }

    #[test]
    fn queue_choice_never_picks_an_empty_side() {
        assert!(!serve_writes(false, true, true));
        assert!(serve_writes(true, false, false));
        assert!(!serve_writes(true, true, true));
        assert!(serve_writes(false, false, true));
        assert!(!serve_writes(false, false, false));
    }
}

use std::collections::VecDeque;

use crate::EventQueue;

/// Typed events of the ComDML discrete-event simulation.
///
/// `pair` fields index into the round's pairing list (the round engine in
/// `comdml-core` owns the per-pair state); agent-level events carry the
/// agent's *slot* — the dense index the caller gave it among the agents
/// the simulation touches (see [`SimDriver`]). The engine is deliberately
/// open-ended: fleet-level dynamics (failure, join; a leave is delivered
/// as a failure) share the same queue as the per-batch pipeline events,
/// so a helper can die halfway through a transfer and the handler observes
/// it in causal order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// The slow side of pairing `pair` finished producing activation batch
    /// `batch`.
    BatchProduced {
        /// Pairing index within the round.
        pair: usize,
        /// Zero-based batch index.
        batch: usize,
    },
    /// The link of pairing `pair` finished moving batch `batch` to the
    /// helper.
    TransferComplete {
        /// Pairing index within the round.
        pair: usize,
        /// Zero-based batch index.
        batch: usize,
    },
    /// The helper of pairing `pair` shipped the trained suffix parameters
    /// back to the slow agent.
    SuffixReturn {
        /// Pairing index within the round.
        pair: usize,
    },
    /// Coarse-granularity completion of pairing `pair`: the whole
    /// produce/transfer/train/return pipeline collapsed into one event
    /// scheduled from the closed-form completion time. Emitted instead of
    /// the per-batch `BatchProduced`/`TransferComplete`/`SuffixReturn`
    /// cascade when the pair has no pending disruption.
    PairDone {
        /// Pairing index within the round.
        pair: usize,
    },
    /// The agent in `slot` finished its round task (solo epoch or its
    /// half of a pair).
    AgentDone {
        /// The finishing agent's slot.
        slot: usize,
    },
    /// Aggregation began over the currently finished cohort.
    AggregateStart,
    /// Aggregation completed; the round's critical path ends here.
    AggregateDone,
    /// The agent in `slot` failed (crash-stop) or left. Pairs it
    /// participates in must react.
    AgentFail {
        /// The failing agent's slot.
        slot: usize,
    },
    /// The agent in `slot` joined the fleet mid-simulation.
    AgentJoin {
        /// The joining agent's slot.
        slot: usize,
    },
}

/// Per-agent accounting accumulated while events execute.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AgentTimeline {
    /// Compute-busy seconds.
    pub busy_s: f64,
    /// Critical-path communication seconds.
    pub comm_s: f64,
    /// When the agent's task finished (simulated seconds); 0 until then.
    pub finish_s: f64,
    /// Whether the agent finished its task this round.
    pub done: bool,
}

/// The discrete-event simulation driver: a shared simulated clock, the
/// typed event queue, and per-agent timelines.
///
/// Timelines are indexed by *slot*: the caller numbers the agents a
/// simulation can touch `0..n` and sizes the driver by `n`, so a round over
/// a small cohort of a huge world allocates cohort-sized state. The round
/// engine in `comdml-core` assigns slots in ascending agent-id order.
///
/// The driver intentionally has *no* callback registration — the consumer
/// drains events in causal order with [`SimDriver::next`] and schedules
/// follow-ups, which keeps borrow scopes trivial and makes handlers easy
/// to test:
///
/// ```
/// use comdml_simnet::{SimDriver, SimEvent};
///
/// let mut driver = SimDriver::new(2);
/// // The agent in slot 0 produces one batch at t=1.0; the transfer takes
/// // 0.5s.
/// driver.schedule_at(1.0, SimEvent::BatchProduced { pair: 0, batch: 0 });
/// while let Some((t, ev)) = driver.next() {
///     match ev {
///         SimEvent::BatchProduced { pair, batch } => {
///             driver.record_busy(0, 1.0);
///             driver.schedule_in(0.5, SimEvent::TransferComplete { pair, batch });
///         }
///         SimEvent::TransferComplete { .. } => {
///             driver.mark_done(0, t);
///         }
///         _ => {}
///     }
/// }
/// assert_eq!(driver.now(), 1.5);
/// assert!(driver.timeline(0).done);
/// ```
///
/// # The same-instant lane
///
/// Many follow-ups happen at the current instant: the `AgentDone` pair a
/// finished pairing releases, or an `AggregateStart` the last finisher
/// triggers. Those events skip the calendar queue and wait in a FIFO
/// *lane*: an event scheduled at exactly [`SimDriver::now`] goes there,
/// every later one to the calendar. [`SimDriver::next`] pops the calendar
/// while its earliest event is at `now`, then the lane, then the calendar
/// again. That is exactly the `(time, seq)` order a single queue gives.
/// A calendar event at `now` was scheduled before the clock reached `now`,
/// so before any lane event, and it comes first. Lane events are all at
/// `now`, ahead of every later calendar event, and the FIFO keeps their
/// scheduling order. [`SimDriver::pending`], [`SimDriver::peak_pending`]
/// and [`SimDriver::events_processed`] count both, so they read as with
/// one queue.
#[derive(Debug, Clone)]
pub struct SimDriver {
    queue: EventQueue<SimEvent>,
    /// Events scheduled at exactly `now`, in scheduling order; the clock
    /// stays at `now` until the lane is empty, so their time is `now`.
    lane: VecDeque<SimEvent>,
    now: f64,
    timelines: Vec<AgentTimeline>,
    processed: u64,
    peak_pending: usize,
    /// Events scheduled through the calendar and through the lane.
    calendar_pushes: u64,
    lane_pushes: u64,
}

impl SimDriver {
    /// Like [`SimDriver::new`], with the event queue pre-sized for an
    /// opening burst of about `events` scheduled events (see
    /// [`EventQueue::with_capacity`]).
    pub fn with_capacity(num_slots: usize, events: usize) -> Self {
        Self { queue: EventQueue::with_capacity(events), ..Self::new(num_slots) }
    }

    /// Creates a driver for `num_slots` agent slots, clock at zero.
    pub fn new(num_slots: usize) -> Self {
        Self {
            queue: EventQueue::new(),
            lane: VecDeque::new(),
            now: 0.0,
            timelines: vec![AgentTimeline::default(); num_slots],
            processed: 0,
            peak_pending: 0,
            calendar_pushes: 0,
            lane_pushes: 0,
        }
    }

    /// The current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events executed by [`SimDriver::next`] so far — the
    /// cost metric the benchmark JSON reports, and what the coarse event
    /// granularity shrinks.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.lane.len()
    }

    /// High-water mark of the pending-event queue — how bursty the round's
    /// schedule got. Plain bookkeeping, so it is exact whether or not
    /// observability is enabled.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Publishes the driver's lifetime counters to the process-wide
    /// metrics registry (`simnet.events`, `simnet.peak_pending`,
    /// `simnet.calendar_pushes`, `simnet.lane_pushes`), plus the
    /// calendar-queue layout (`simnet.queue_buckets`,
    /// `simnet.bucket_occupancy` p50/p99 at the high-water calendar). No-op
    /// unless observability is enabled; never touches the clock or queue,
    /// so calling it cannot perturb a run.
    pub fn publish_metrics(&self) {
        if !comdml_obs::metrics_enabled() {
            return;
        }
        comdml_obs::counter_add("simnet.events", self.processed);
        comdml_obs::counter_add("simnet.calendar_pushes", self.calendar_pushes);
        comdml_obs::counter_add("simnet.lane_pushes", self.lane_pushes);
        comdml_obs::gauge_max("simnet.peak_pending", self.peak_pending as f64);
        let stats = self.queue.bucket_stats();
        comdml_obs::gauge_max("simnet.queue_buckets", stats.buckets as f64);
        comdml_obs::gauge_max("simnet.bucket_occupancy_p50", stats.occupancy_p50);
        comdml_obs::gauge_max("simnet.bucket_occupancy_p99", stats.occupancy_p99);
    }

    /// Schedules `event` at absolute simulated time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current clock (causality violation) or
    /// is NaN.
    pub fn schedule_at(&mut self, time: f64, event: SimEvent) {
        assert!(time >= self.now, "cannot schedule into the past: {time} < {}", self.now);
        self.push(time, event);
    }

    /// Schedules `event` `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: SimEvent) {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.push(self.now + delay, event);
    }

    /// Queues an event at `time >= now`: on the lane at `now`, else on
    /// the calendar (see "The same-instant lane").
    fn push(&mut self, time: f64, event: SimEvent) {
        if time == self.now {
            self.lane.push_back(event);
            self.lane_pushes += 1;
        } else {
            self.queue.push(time, event);
            self.calendar_pushes += 1;
        }
        self.peak_pending = self.peak_pending.max(self.pending());
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// Ties are delivered in scheduling order, so identical runs replay the
    /// exact same event sequence — the determinism the seed-reproducibility
    /// tests rely on.
    #[allow(clippy::should_implement_trait)] // DES vocabulary; the driver is not an Iterator
    pub fn next(&mut self) -> Option<(f64, SimEvent)> {
        let (t, ev) = if self.lane.is_empty() {
            self.queue.pop()?
        } else {
            // Calendar events at `now` were scheduled before any lane event.
            match self.queue.pop_at(self.now) {
                Some(at_now) => at_now,
                None => (self.now, self.lane.pop_front().expect("the lane is not empty")),
            }
        };
        self.now = t;
        self.processed += 1;
        Some((t, ev))
    }

    /// Accounts `seconds` of compute on the timeline of `slot`.
    pub fn record_busy(&mut self, slot: usize, seconds: f64) {
        self.timelines[slot].busy_s += seconds;
    }

    /// Accounts `seconds` of critical-path communication on the timeline
    /// of `slot`.
    pub fn record_comm(&mut self, slot: usize, seconds: f64) {
        self.timelines[slot].comm_s += seconds;
    }

    /// Marks the task of `slot` finished at time `at`.
    pub fn mark_done(&mut self, slot: usize, at: f64) {
        let t = &mut self.timelines[slot];
        t.done = true;
        t.finish_s = at;
    }

    /// Clears the done flag of `slot` — used when an idle agent is
    /// re-tasked mid-round (e.g. claimed as a replacement helper after a
    /// failure).
    pub fn mark_active(&mut self, slot: usize) {
        self.timelines[slot].done = false;
    }

    /// One slot's accumulated timeline.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn timeline(&self, slot: usize) -> &AgentTimeline {
        &self.timelines[slot]
    }

    /// All timelines, indexed by slot.
    pub fn timelines(&self) -> &[AgentTimeline] {
        &self.timelines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut d = SimDriver::new(1);
        d.schedule_at(2.0, SimEvent::AggregateStart);
        d.schedule_at(1.0, SimEvent::AgentDone { slot: 0 });
        let (t1, e1) = d.next().unwrap();
        assert_eq!(t1, 1.0);
        assert!(matches!(e1, SimEvent::AgentDone { .. }));
        assert_eq!(d.now(), 1.0);
        let (t2, _) = d.next().unwrap();
        assert_eq!(t2, 2.0);
        assert!(d.next().is_none());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut d = SimDriver::new(1);
        d.schedule_at(3.0, SimEvent::AggregateStart);
        d.next().unwrap();
        d.schedule_in(1.5, SimEvent::AggregateDone);
        let (t, _) = d.next().unwrap();
        assert_eq!(t, 4.5);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut d = SimDriver::new(1);
        d.schedule_at(5.0, SimEvent::AggregateStart);
        d.next().unwrap();
        d.schedule_at(4.0, SimEvent::AggregateDone);
    }

    #[test]
    fn timelines_accumulate() {
        let mut d = SimDriver::new(2);
        d.record_busy(0, 2.0);
        d.record_busy(0, 3.0);
        d.record_comm(1, 1.0);
        d.mark_done(0, 5.0);
        assert_eq!(d.timeline(0).busy_s, 5.0);
        assert_eq!(d.timeline(1).comm_s, 1.0);
        assert!(d.timeline(0).done);
        assert!(!d.timeline(1).done);
    }

    #[test]
    fn peak_pending_tracks_queue_high_water_mark() {
        let mut d = SimDriver::new(1);
        assert_eq!(d.peak_pending(), 0);
        d.schedule_at(1.0, SimEvent::AggregateStart);
        d.schedule_at(2.0, SimEvent::AggregateDone);
        assert_eq!(d.peak_pending(), 2);
        d.next().unwrap();
        d.next().unwrap();
        // Draining does not lower the high-water mark.
        assert_eq!(d.pending(), 0);
        assert_eq!(d.peak_pending(), 2);
        d.schedule_in(1.0, SimEvent::AggregateStart);
        assert_eq!(d.peak_pending(), 2);
    }

    #[test]
    fn identical_schedules_replay_identically() {
        let run = || {
            let mut d = SimDriver::new(3);
            d.schedule_at(1.0, SimEvent::AgentDone { slot: 0 });
            d.schedule_at(1.0, SimEvent::AgentDone { slot: 1 });
            d.schedule_at(0.5, SimEvent::BatchProduced { pair: 0, batch: 0 });
            let mut order = Vec::new();
            while let Some((t, ev)) = d.next() {
                order.push((t.to_bits(), format!("{ev:?}")));
            }
            order
        };
        assert_eq!(run(), run());
    }
}

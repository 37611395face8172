//! Deterministic discrete-event queue, implemented as a calendar queue.
//!
//! The classic `BinaryHeap` implementation pays `O(log n)` per operation
//! and scatters comparisons across the heap array; at fleet scale (millions
//! of pending events per round) that log factor and its cache misses
//! dominate the event loop. A calendar queue instead hashes each event into
//! a time bucket of width ≈ the mean inter-event gap, making push `O(1)`
//! and pop an `O(1)` amortized probe of the cursor's bucket.
//!
//! Fleet rounds are full of *tied* timestamps — every agent released by the
//! same barrier or aggregate schedules at the identical instant — and tied
//! events all share one bucket by construction. A naive per-bucket list
//! degrades to `O(m²)` when draining an `m`-way tie, so each bucket is a
//! small binary heap ordered by `(time, seq)`: probing a bucket is an `O(1)`
//! peek and draining a tie costs `O(m log m)` total.
//!
//! Determinism is the load-bearing contract: pop order is exactly
//! ascending `(time, insertion sequence)`, bit-for-bit identical to the
//! heap it replaced, because equal timestamps always land in the same
//! bucket (same `t / width` quotient) where the sequence number breaks the
//! tie explicitly. The paranoid cases — events pushed into the past,
//! events a full calendar rotation in the future, ±infinite times — are
//! handled by cursor reset and a global min-scan fallback, and
//! `tests/properties.rs` holds the heap-equivalence property under random
//! interleaved push/pop.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Occupancy snapshot of the calendar layout (see
/// [`EventQueue::bucket_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketStats {
    /// Number of buckets in the calendar.
    pub buckets: usize,
    /// Median events per bucket.
    pub occupancy_p50: f64,
    /// 99th-percentile events per bucket.
    pub occupancy_p99: f64,
}

/// A deterministic discrete-event queue keyed by simulated seconds.
///
/// Ties are broken by insertion order so simulations are reproducible across
/// runs regardless of payload type.
///
/// # Example
///
/// ```
/// use comdml_simnet::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Min-heaps (via `Reverse`) keyed by `(time, seq)`; a bucket's peek is
    /// therefore its earliest entry, which is also its earliest *virtual
    /// bucket* since `vbucket` is monotone in time.
    buckets: Vec<BinaryHeap<Reverse<Entry<T>>>>,
    /// Bucket width in simulated seconds (re-estimated at every resize).
    width: f64,
    /// Virtual bucket index of the pop cursor: every strictly earlier
    /// virtual bucket is known empty. Integer, so the cursor cannot drift
    /// from the `t / width` quotient the way a floating bucket-top would.
    cur_vb: i64,
    len: usize,
    seq: u64,
    /// Layout snapshot captured at the last capacity grow — the high-water
    /// calendar — for observability (the live layout at publish time is
    /// usually already drained).
    grow_stats: Option<BucketStats>,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

// Ordered by `(time, seq)` exactly as the tuple comparison the heap-backed
// queue used; `time` is never NaN (asserted on push) and `seq` is unique,
// so the order is total and the tie-break deterministic.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq && self.time == other.time
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are never NaN")
            .then(self.seq.cmp(&other.seq))
    }
}

/// Smallest calendar; also the initial size.
const MIN_BUCKETS: usize = 16;

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            width: 1.0,
            cur_vb: 0,
            len: 0,
            seq: 0,
            grow_stats: None,
        }
    }

    /// Creates an empty queue whose calendar already has room for about
    /// `events` pending events, so an opening burst of that many pushes
    /// does not regrow — and re-bucket — it on the way. The bucket width
    /// keeps its default until the first resize re-estimates it.
    pub fn with_capacity(events: usize) -> Self {
        let nb = events.div_ceil(2).max(MIN_BUCKETS).next_power_of_two();
        Self { buckets: (0..nb).map(|_| BinaryHeap::new()).collect(), ..Self::new() }
    }

    /// The virtual (un-wrapped) bucket an event time belongs to. Equal
    /// times share a quotient, hence a bucket, hence an explicit
    /// sequence-number tie-break — the determinism contract.
    fn vbucket(&self, time: f64) -> i64 {
        // `as` saturates, which keeps ±infinite times ordered at the
        // extremes instead of wrapping.
        (time / self.width).floor() as i64
    }

    /// Schedules `payload` at simulated time `time` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN — an event at undefined time would silently
    /// corrupt the ordering.
    pub fn push(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let vb = self.vbucket(time);
        // An event pushed before the cursor (legal here, even though
        // `SimDriver` forbids scheduling in the past) rewinds it.
        if self.len == 0 || vb < self.cur_vb {
            self.cur_vb = vb;
        }
        let nb = self.buckets.len();
        let idx = vb.rem_euclid(nb as i64) as usize;
        self.buckets[idx].push(Reverse(Entry { time, seq: self.seq, payload }));
        self.seq += 1;
        self.len += 1;
        if self.len > 2 * nb {
            self.resize(self.len, true);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let b = self.find_min()?;
        Some(self.pop_bucket(b))
    }

    /// Removes and returns the earliest event if it is at `time`, probing
    /// only `time`'s bucket. Exact when no pending event is earlier than
    /// `time`: every event at `time` then shares that bucket, and its
    /// `(time, seq)` peek is the earliest of them.
    pub(crate) fn pop_at(&mut self, time: f64) -> Option<(f64, T)> {
        if self.len == 0 {
            return None;
        }
        let b = self.vbucket(time).rem_euclid(self.buckets.len() as i64) as usize;
        let Reverse(e) = self.buckets[b].peek()?;
        (e.time == time).then(|| self.pop_bucket(b))
    }

    /// Pops bucket `b`'s earliest entry, which must be the global minimum.
    #[inline]
    fn pop_bucket(&mut self, b: usize) -> (f64, T) {
        let Reverse(e) = self.buckets[b].pop().expect("popped bucket is non-empty");
        // The popped event was the global minimum, so nothing earlier than
        // its bucket remains; later pops resume the scan there.
        self.cur_vb = self.vbucket(e.time);
        self.len -= 1;
        let nb = self.buckets.len();
        if nb > MIN_BUCKETS && self.len * 8 < nb {
            self.resize(self.len, false);
        }
        (e.time, e.payload)
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.find_min().map(|b| self.buckets[b].peek().expect("non-empty bucket").0.time)
    }

    /// Locates the bucket holding the earliest event by `(time, seq)`: walk
    /// the calendar one rotation from the cursor looking for a bucket whose
    /// earliest entry lives in the visited virtual bucket. A bucket's peek
    /// is its time-minimal entry, and every pending virtual bucket is
    /// ≥ `cur_vb`, so within one rotation the peek's virtual bucket is
    /// either the visited one (hit — and the peek is exactly the `(time,
    /// seq)` minimum at home) or a later rotation (miss, `O(1)` skip). If
    /// the whole rotation misses, every pending event is at least a full
    /// rotation ahead, and a direct global peek-scan finds it exactly.
    fn find_min(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as i64;
        for step in 0..nb {
            let vb = self.cur_vb.saturating_add(step);
            let idx = vb.rem_euclid(nb) as usize;
            if let Some(Reverse(e)) = self.buckets[idx].peek() {
                if self.vbucket(e.time) == vb {
                    return Some(idx);
                }
            }
        }
        let mut best: Option<usize> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(Reverse(c)) = bucket.peek() {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let Reverse(p) = self.buckets[b].peek().expect("tracked best is non-empty");
                        c < p
                    }
                };
                if better {
                    best = Some(idx);
                }
            }
        }
        best
    }

    /// Rebuilds the calendar for ~`target` events: bucket count is the next
    /// power of two (so the modulo is a mask) and the width is re-estimated
    /// from the pending span so roughly one event lands per bucket. Both
    /// triggers are geometric (grow at 2× buckets, shrink at 1/8), so the
    /// `O(n)` redistribution amortizes to `O(1)` per operation.
    fn resize(&mut self, target: usize, grew: bool) {
        let nb = target.max(MIN_BUCKETS).next_power_of_two();
        let entries: Vec<Entry<T>> = std::mem::take(&mut self.buckets)
            .into_iter()
            .flat_map(|heap| heap.into_iter().map(|Reverse(e)| e))
            .collect();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &entries {
            lo = lo.min(e.time);
            hi = hi.max(e.time);
        }
        let span = hi - lo;
        if entries.len() > 1 && span > 0.0 && span.is_finite() {
            self.width = span / entries.len() as f64;
        }
        self.buckets = (0..nb).map(|_| BinaryHeap::new()).collect();
        if !entries.is_empty() {
            self.cur_vb = self.vbucket(lo);
        }
        for e in entries {
            let idx = self.vbucket(e.time).rem_euclid(nb as i64) as usize;
            self.buckets[idx].push(Reverse(e));
        }
        if grew {
            self.grow_stats = Some(self.layout_stats());
        }
    }

    /// Occupancy snapshot: the layout at the last capacity grow (the
    /// high-water calendar), or the live layout if the queue never grew.
    pub fn bucket_stats(&self) -> BucketStats {
        self.grow_stats.unwrap_or_else(|| self.layout_stats())
    }

    fn layout_stats(&self) -> BucketStats {
        let mut counts: Vec<usize> = self.buckets.iter().map(BinaryHeap::len).collect();
        counts.sort_unstable();
        let q = |p: f64| counts[((counts.len() - 1) as f64 * p).round() as usize] as f64;
        BucketStats { buckets: self.buckets.len(), occupancy_p50: q(0.5), occupancy_p99: q(0.99) }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 'c');
        q.push(1.0, 'a');
        q.push(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_times_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        // Push enough to force several grows, drain through the shrink
        // threshold, and require globally sorted (time, seq) output.
        let mut q = EventQueue::new();
        let mut rng = 0x9e37_79b9_u64;
        for i in 0..10_000usize {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            q.push((rng % 1000) as f64 * 0.125, i);
        }
        let mut prev: Option<(f64, usize)> = None;
        while let Some((t, p)) = q.pop() {
            if let Some((pt, pp)) = prev {
                assert!(pt < t || (pt == t && pp < p), "({pt},{pp}) then ({t},{p})");
            }
            prev = Some((t, p));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn events_pushed_into_the_past_rewind_the_cursor() {
        let mut q = EventQueue::new();
        q.push(100.0, "late");
        assert_eq!(q.pop(), Some((100.0, "late")));
        // The cursor now sits at t=100's bucket; an earlier event must
        // still come out first.
        q.push(200.0, "later");
        q.push(1.0, "early");
        assert_eq!(q.pop(), Some((1.0, "early")));
        assert_eq!(q.pop(), Some((200.0, "later")));
    }

    #[test]
    fn far_future_events_use_the_rotation_fallback() {
        // One event many full calendar rotations ahead: the rotation scan
        // finds nothing at home and the global min-scan must locate it.
        let mut q = EventQueue::new();
        q.push(0.0, "now");
        q.push(1e9, "someday");
        assert_eq!(q.pop(), Some((0.0, "now")));
        assert_eq!(q.pop(), Some((1e9, "someday")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_survive_resizes() {
        let mut q = EventQueue::new();
        for i in 0..1000usize {
            q.push(7.5, i);
        }
        for i in 0..1000usize {
            assert_eq!(q.pop(), Some((7.5, i)));
        }
    }

    #[test]
    fn negative_and_infinite_times_order_correctly() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, "end");
        q.push(-3.0, "past");
        q.push(0.0, "zero");
        q.push(f64::NEG_INFINITY, "dawn");
        assert_eq!(q.pop(), Some((f64::NEG_INFINITY, "dawn")));
        assert_eq!(q.pop(), Some((-3.0, "past")));
        assert_eq!(q.pop(), Some((0.0, "zero")));
        assert_eq!(q.pop(), Some((f64::INFINITY, "end")));
    }

    #[test]
    fn bucket_stats_reflect_the_high_water_layout() {
        let mut q = EventQueue::new();
        for i in 0..500usize {
            q.push(i as f64, i);
        }
        let stats = q.bucket_stats();
        // Grows trigger at 2× buckets, so the high-water calendar holds at
        // least half an event per bucket.
        assert!(stats.buckets >= 256, "grew with the event count: {stats:?}");
        assert!(stats.occupancy_p50 <= stats.occupancy_p99);
        // Draining does not erase the high-water snapshot.
        while q.pop().is_some() {}
        assert_eq!(q.bucket_stats(), stats);
    }
}

//! Indexed fleet membership: the structures that let [`crate::FleetDriver`]
//! answer every per-round question in time proportional to the cohort and
//! the membership events, not the world.
//!
//! * [`ActiveSet`] — which world slots are active: a bitmap with an O(1)
//!   count and a Fenwick tree over block popcounts, so the i-th active id
//!   in ascending order takes O(log n) ([`ActiveSet::select_ascending`])
//!   instead of a world scan.
//! * [`DepartureIndex`] — the `(depart_at, id)` pairs of the active agents
//!   with a finite departure time: a ring of time buckets over the near
//!   future plus an 8-ary heap for the rest. Due departures pop in exactly
//!   the `(time, id)` order a sorted world scan produced, and the
//!   planning-window query scans only the buckets inside the window.

/// Bits per block of the active bitmap that the Fenwick tree counts.
const BLOCK_BITS: usize = 512;
const BLOCK_WORDS: usize = BLOCK_BITS / 64;

/// Which world slots are active members, with rank/select over them: a
/// bitmap plus a Fenwick tree over per-block popcounts. An update touches
/// one bitmap word and the small (world/512-node, cache-resident) tree.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    /// Number of slots (bits in use).
    len: usize,
    /// 1-indexed Fenwick tree over block popcounts (`tree[0]` is unused).
    tree: Vec<u32>,
    count: usize,
}

/// The lowest set bit of `i`.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// The position of the `n`-th (0-based) set bit of `word`, which has more
/// than `n` set bits: whole 16-bit chunks are skipped by popcount, then
/// the chunk's lower set bits are cleared one by one.
fn nth_set_bit(mut word: u64, mut n: usize) -> usize {
    let mut base = 0;
    loop {
        let ones = (word & 0xffff).count_ones() as usize;
        if n < ones {
            break;
        }
        n -= ones;
        word >>= 16;
        base += 16;
    }
    for _ in 0..n {
        word &= word - 1;
    }
    base + word.trailing_zeros() as usize
}

impl ActiveSet {
    /// `n` slots, all active, built in O(n / 64).
    pub(crate) fn all_active(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n > 0") = (1u64 << (n % 64)) - 1;
        }
        let blocks =
            words.chunks(BLOCK_WORDS).map(|b| b.iter().map(|w| w.count_ones()).sum::<u32>());
        let mut set = Self { words: Vec::new(), len: n, tree: vec![0], count: n };
        set.tree.extend(blocks);
        // Linear Fenwick build: push each node's sum into its parent.
        for i in 1..set.tree.len() {
            let parent = i + lowbit(i);
            if parent < set.tree.len() {
                set.tree[parent] += set.tree[i];
            }
        }
        set.words = words;
        set
    }

    /// Number of active slots.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Whether slot `i` is active (false for slots past the end).
    pub(crate) fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends one inactive slot.
    pub(crate) fn push_inactive(&mut self) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if self.len.is_multiple_of(BLOCK_BITS) {
            // A new (empty) block: its Fenwick node covers the blocks
            // below it, whose sums it inherits in O(log n).
            let m = self.tree.len();
            let floor = m - lowbit(m);
            let mut sum = 0;
            let mut j = m - 1;
            while j > floor {
                sum += self.tree[j];
                j -= lowbit(j);
            }
            self.tree.push(sum);
        }
        self.len += 1;
    }

    /// Activates slot `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(!self.contains(i), "slot {i} is already active");
        self.words[i / 64] |= 1 << (i % 64);
        self.count += 1;
        self.add_to_block(i / BLOCK_BITS, 1);
    }

    /// Deactivates slot `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        debug_assert!(self.contains(i), "slot {i} is not active");
        self.words[i / 64] &= !(1 << (i % 64));
        self.count -= 1;
        self.add_to_block(i / BLOCK_BITS, u32::MAX); // wrapping -1
    }

    fn add_to_block(&mut self, block: usize, delta: u32) {
        let mut j = block + 1;
        while j < self.tree.len() {
            self.tree[j] = self.tree[j].wrapping_add(delta);
            j += lowbit(j);
        }
    }

    /// The slots of the active members at the ascending 0-based `ranks`
    /// (the rank-th active slot in id order). Between nearby ranks the
    /// cursor walks forward a few words; a far rank descends the tree.
    ///
    /// # Panics
    ///
    /// Panics if a rank is not below [`ActiveSet::count`].
    pub(crate) fn select_ascending(&self, ranks: &[u32]) -> Vec<usize> {
        let ones = |w: usize| self.words[w].count_ones() as usize;
        // Cursor: a word and the number of active slots before it.
        let (mut w, mut before) = (0, 0);
        ranks
            .iter()
            .map(|&rank| {
                let rank = rank as usize;
                let mut steps = 0;
                while before + ones(w) <= rank && steps < BLOCK_WORDS {
                    before += ones(w);
                    w += 1;
                    steps += 1;
                }
                if before + ones(w) <= rank {
                    (w, before) = self.locate(rank);
                }
                w * 64 + nth_set_bit(self.words[w], rank - before)
            })
            .collect()
    }

    /// The word holding the `rank`-th active slot and the number of active
    /// slots before that word: a Fenwick descent to the block, then
    /// popcounts within it.
    fn locate(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.count, "rank {rank} of {} active", self.count);
        let blocks = self.tree.len() - 1;
        let mut block = 0;
        let mut before = 0;
        let mut step = 1 << blocks.ilog2();
        while step > 0 {
            let next = block + step;
            if next <= blocks && before + (self.tree[next] as usize) <= rank {
                block = next;
                before += self.tree[next] as usize;
            }
            step >>= 1;
        }
        let mut w = block * BLOCK_WORDS;
        while before + self.words[w].count_ones() as usize <= rank {
            before += self.words[w].count_ones() as usize;
            w += 1;
        }
        (w, before)
    }

    /// The active slots in ascending order, in O(len / 64 + count).
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// One scheduled departure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Departure {
    /// Absolute fleet time of the departure.
    pub(crate) at: f64,
    /// The departing agent's slot.
    pub(crate) id: u32,
}

impl Departure {
    /// Index order: by time, ties to the lower id (times are never NaN).
    fn before(self, other: Departure) -> bool {
        self.at < other.at || (self.at == other.at && self.id < other.id)
    }

    /// An integer key in [`Departure::before`] order: the time's bits made
    /// monotone (both zeros as +0), then the id.
    fn key(self) -> (u64, u32) {
        let bits = if self.at == 0.0 { 0 } else { self.at.to_bits() };
        let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
        (ordered, self.id)
    }
}

/// Buckets in the departure index's near-term ring.
const RING: usize = 512;

/// The departures of the active agents, in `(depart_at, id)` order.
///
/// Near-term departures sit in a ring of [`RING`] time buckets, the rest
/// in an 8-ary heap. Buckets are sorted only when they reach the front, so
/// a due departure pops in O(1) amortized and a planning window is a scan
/// of the buckets it covers; an entry leaves the heap once, when the ring
/// advances over its bucket. The bucket width is set at build time so the
/// ring spans about twice the initial mean time to departure; any width
/// is correct, only speed depends on it.
#[derive(Debug, Clone)]
pub(crate) struct DepartureIndex {
    /// Buckets per second: `at` belongs to bucket `floor(at * per_s)`.
    per_s: f64,
    /// Bucket number of the front bucket.
    base: i64,
    /// Bucket `base + i` is `ring[(head + i) % RING]`. The front bucket
    /// also holds departures whose bucket precedes `base`.
    ring: Vec<Vec<Departure>>,
    head: usize,
    /// Departures in the ring.
    in_ring: usize,
    /// Whether the front bucket is sorted latest first, so that the
    /// earliest departure is its last element.
    front_sorted: bool,
    /// Departures whose bucket is at or past `base + RING`.
    far: DepartureHeap,
}

impl DepartureIndex {
    /// Indexes every indexable entry of `depart_at` (slot = position) in
    /// O(n): one pass to place each entry, and a heapify of the entries
    /// past the ring.
    pub(crate) fn from_times(depart_at: &[f64]) -> Self {
        // The width only sets speed, so a strided sample of the finite
        // times estimates it (departures below the sampled minimum simply
        // join the front bucket).
        let stride = (depart_at.len() / 4096).max(1);
        let sample = depart_at.iter().step_by(stride).filter(|at| at.is_finite());
        let (count, sum, min) = sample
            .fold((0usize, 0.0f64, f64::INFINITY), |(n, s, m), &at| (n + 1, s + at, m.min(at)));
        let per_s = RING as f64 / (2.0 * (sum / count.max(1) as f64 - min));
        let per_s = if per_s.is_finite() && per_s > 0.0 { per_s } else { 1.0 };
        let mut index = Self {
            per_s,
            base: 0,
            ring: vec![Vec::new(); RING],
            head: 0,
            in_ring: 0,
            front_sorted: false,
            far: DepartureHeap::default(),
        };
        if count > 0 {
            index.base = index.bucket(min);
        }
        for (i, &at) in depart_at.iter().enumerate() {
            if Self::indexable(at) {
                let d = Departure { at, id: i as u32 };
                match index.ring_offset(at) {
                    Some(offset) => index.ring[offset].push(d),
                    None => index.far.heap.push(d),
                }
            }
        }
        index.in_ring = index.ring.iter().map(Vec::len).sum();
        index.far.heapify();
        index
    }

    /// Whether a departure time belongs in the index: an infinite (or NaN)
    /// time never falls inside a window or before a clock.
    pub(crate) fn indexable(at: f64) -> bool {
        at < f64::INFINITY
    }

    /// `floor(at * per_s)`, saturating. Spelled out with a truncating
    /// cast because `f64::floor` is a libm call on baseline x86-64, and
    /// this runs for every departure the index sees.
    fn bucket(&self, at: f64) -> i64 {
        let x = at * self.per_s;
        let t = x as i64;
        if (t as f64) > x {
            t.saturating_sub(1)
        } else {
            t
        }
    }

    /// The ring position of a departure at `at` (0 for the front, which
    /// also takes earlier buckets), or `None` if it belongs to the heap.
    fn ring_offset(&self, at: f64) -> Option<usize> {
        let offset = self.bucket(at).saturating_sub(self.base).max(0);
        (offset < RING as i64).then_some(offset as usize)
    }

    /// Puts `d` into the ring at `offset`, keeping a sorted front sorted.
    fn place(&mut self, offset: usize, d: Departure) {
        self.in_ring += 1;
        let bucket = &mut self.ring[(self.head + offset) % RING];
        if offset == 0 && self.front_sorted {
            let at = bucket.partition_point(|e| d.before(*e));
            bucket.insert(at, d);
        } else {
            bucket.push(d);
        }
    }

    /// Adds slot `id` departing at `at` (ignored unless indexable).
    pub(crate) fn push(&mut self, id: usize, at: f64) {
        if !Self::indexable(at) {
            return;
        }
        let d = Departure { at, id: id as u32 };
        match self.ring_offset(at) {
            Some(offset) => self.place(offset, d),
            None => self.far.push(d),
        }
    }

    /// Brings the earliest departure to the end of a sorted front bucket:
    /// advances the ring past empty buckets (at most `RING` steps while it
    /// holds anything) or, once it is empty, jumps it to the heap's
    /// earliest bucket. Returns false if the index is empty.
    fn settle(&mut self) -> bool {
        loop {
            if !self.ring[self.head].is_empty() {
                if !self.front_sorted {
                    self.ring[self.head].sort_unstable_by_key(|d| std::cmp::Reverse(d.key()));
                    self.front_sorted = true;
                }
                return true;
            }
            self.front_sorted = false;
            if self.in_ring == 0 {
                let Some(first) = self.far.heap.first() else { return false };
                self.base = self.bucket(first.at);
            } else {
                self.head = (self.head + 1) % RING;
                self.base = self.base.saturating_add(1);
            }
            // Pull the departures the ring now covers out of the heap.
            while let Some(&d) = self.far.heap.first() {
                let Some(offset) = self.ring_offset(d.at) else { break };
                self.far.pop();
                self.place(offset, d);
            }
        }
    }

    /// The earliest departure time, if any.
    pub(crate) fn earliest(&mut self) -> Option<f64> {
        self.settle().then(|| self.ring[self.head].last().expect("settled front").at)
    }

    /// Pops the `(time, id)`-minimal departure if it is due by `t`.
    pub(crate) fn pop_due(&mut self, t: f64) -> Option<Departure> {
        if !self.settle() || self.ring[self.head].last().expect("settled front").at > t {
            return None;
        }
        self.in_ring -= 1;
        self.ring[self.head].pop()
    }

    /// Calls `f` on every departure strictly before `end`, in no
    /// particular order: the ring buckets up to `end`'s, then — if the
    /// window reaches past the ring — the heap's matches.
    pub(crate) fn for_each_before(&self, end: f64, mut f: impl FnMut(Departure)) {
        let last = self.bucket(end).saturating_sub(self.base);
        for offset in 0..RING.min(last.saturating_add(1).max(1) as usize) {
            for &d in &self.ring[(self.head + offset) % RING] {
                if d.at < end {
                    f(d);
                }
            }
        }
        if last >= RING as i64 {
            self.far.for_each_before(end, f);
        }
    }
}

/// Children per heap node. A wide heap is shallow: heapify and every pop
/// touch fewer cache lines than a binary heap's.
const ARITY: usize = 8;

/// 8-ary min-heap of departures (the index's far tier).
#[derive(Debug, Clone, Default)]
struct DepartureHeap {
    heap: Vec<Departure>,
}

impl DepartureHeap {
    /// Restores the heap order bottom-up, O(n).
    fn heapify(&mut self) {
        for i in (0..self.heap.len().div_ceil(ARITY)).rev() {
            self.sift_down(i);
        }
    }

    fn push(&mut self, d: Departure) {
        self.heap.push(d);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !self.heap[i].before(self.heap[parent]) {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<Departure> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Calls `f` on every departure strictly before `end`. A node at or
    /// past `end` prunes its whole subtree, so the walk costs O(matches)
    /// node visits (each match has at most `ARITY` pruned children).
    fn for_each_before(&self, end: f64, mut f: impl FnMut(Departure)) {
        let mut stack = Vec::new();
        if !self.heap.is_empty() {
            stack.push(0usize);
        }
        while let Some(i) = stack.pop() {
            let d = self.heap[i];
            if d.at >= end {
                continue;
            }
            f(d);
            let first = ARITY * i + 1;
            stack.extend(first..(first + ARITY).min(self.heap.len()));
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                return;
            }
            let mut min = first;
            for child in first + 1..(first + ARITY).min(n) {
                if self.heap[child].before(self.heap[min]) {
                    min = child;
                }
            }
            if !self.heap[min].before(self.heap[i]) {
                return;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_finds_the_ranked_active_slot() {
        // Spans several words and blocks, with a partial last word.
        let mut set = ActiveSet::all_active(700);
        for _ in 0..1_500 {
            set.push_inactive();
        }
        for i in (0..700).filter(|i| i % 3 != 0) {
            set.remove(i);
        }
        for i in [700, 1_023, 1_024, 2_199] {
            set.insert(i);
        }
        let ascending: Vec<usize> = (0..2_200).filter(|&i| set.contains(i)).collect();
        assert_eq!(ascending.len(), 234 + 4);
        assert_eq!(set.count(), ascending.len());
        assert!(!set.contains(2_200));
        let all: Vec<u32> = (0..set.count() as u32).collect();
        assert_eq!(set.select_ascending(&all), ascending);
        // Every other rank, and a sparse tail that forces tree descents.
        let ranks: Vec<u32> = (0..set.count() as u32).step_by(2).chain([236, 237]).collect();
        let want: Vec<usize> = ranks.iter().map(|&r| ascending[r as usize]).collect();
        assert_eq!(set.select_ascending(&ranks), want);
        assert_eq!(set.iter().collect::<Vec<_>>(), ascending);
    }

    #[test]
    fn departure_index_matches_a_sorted_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Times from a mix that stresses the ring: ties, zeros, -inf, a
        // huge value that saturates the bucket number, and ordinary
        // spreads at very different scales.
        fn draw(rng: &mut StdRng, scale: f64) -> f64 {
            match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NEG_INFINITY,
                3 => f64::INFINITY,
                4 => 1e300,
                5 => rng.gen_range(0..4) as f64,
                _ => rng.gen::<f64>() * scale,
            }
        }
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let scale = [1e-3, 1.0, 1e3, 1e7][seed as usize % 4];
            let times: Vec<f64> =
                (0..rng.gen_range(0..400)).map(|_| draw(&mut rng, scale)).collect();
            let mut index = DepartureIndex::from_times(&times);
            let mut model: Vec<Departure> = times
                .iter()
                .enumerate()
                .filter(|&(_, &at)| DepartureIndex::indexable(at))
                .map(|(i, &at)| Departure { at, id: i as u32 })
                .collect();
            let mut next_id = times.len();
            let mut clock = 0.0f64;
            for _ in 0..300 {
                model.sort_unstable_by_key(|d| d.key());
                match rng.gen_range(0..4) {
                    0 => {
                        let at = clock + draw(&mut rng, scale);
                        index.push(next_id, at);
                        if DepartureIndex::indexable(at) {
                            model.push(Departure { at, id: next_id as u32 });
                        }
                        next_id += 1;
                    }
                    1 => {
                        clock += rng.gen::<f64>() * scale;
                        let want = model.first().filter(|d| d.at <= clock).copied();
                        if want.is_some() {
                            model.remove(0);
                        }
                        assert_eq!(index.pop_due(clock), want, "seed {seed}");
                    }
                    2 => assert_eq!(index.earliest(), model.first().map(|d| d.at), "seed {seed}"),
                    _ => {
                        let end = clock + draw(&mut rng, scale);
                        let mut got = Vec::new();
                        index.for_each_before(end, |d| got.push(d));
                        got.sort_unstable_by_key(|d| d.key());
                        let want: Vec<Departure> =
                            model.iter().filter(|d| d.at < end).copied().collect();
                        assert_eq!(got, want, "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn departures_pop_in_time_then_id_order() {
        let times = [5.0, f64::INFINITY, 1.0, 5.0, 3.0, f64::NAN, 1.0];
        let mut index = DepartureIndex::from_times(&times);
        index.push(9, 2.0);
        index.push(8, f64::INFINITY);
        let mut window = Vec::new();
        index.for_each_before(3.0, |d| window.push(d.id));
        window.sort_unstable();
        assert_eq!(window, vec![2, 6, 9]);
        let mut order = Vec::new();
        while let Some(d) = index.pop_due(f64::MAX) {
            order.push((d.at, d.id));
        }
        assert_eq!(order, vec![(1.0, 2), (1.0, 6), (2.0, 9), (3.0, 4), (5.0, 0), (5.0, 3)]);
    }
}

//! Run-wide statistics: latency accounting, load measurement utilities
//! (sliding window + EWMA, as used by AFC's contention monitor), and the
//! aggregate [`NetworkStats`] snapshot.

use crate::flit::Cycle;
use crate::snapshot::record_codec;

/// Streaming summary of a latency (or any nonnegative) distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl LatencyStats {
    /// Creates an empty summary.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Empties the summary in place.
    pub fn clear(&mut self) {
        *self = LatencyStats::default();
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

record_codec!(LatencyStats {
    count,
    sum,
    min,
    max
});

/// A fixed-bucket latency histogram with percentile queries.
///
/// Buckets are linear with the given width; samples beyond the last bucket
/// land in an overflow bucket (counted, and reported as the overflow
/// boundary by percentile queries).
///
/// # Examples
///
/// ```
/// use afc_netsim::stats::Histogram;
/// let mut h = Histogram::new(10, 10); // 10 buckets of width 10
/// for v in [5, 15, 15, 95, 1000] { h.record(v); }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(0.5), Some(10)); // bucket lower bound
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` linear buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(buckets: usize, bucket_width: u64) -> Histogram {
        assert!(
            buckets > 0 && bucket_width > 0,
            "histogram must be nonempty"
        );
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower bound of the bucket containing the `p`-quantile
    /// (`0.0 <= p <= 1.0`), or `None` if empty. Overflowing quantiles
    /// report the overflow boundary.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(i as u64 * self.bucket_width);
            }
        }
        Some(self.buckets.len() as u64 * self.bucket_width)
    }

    /// Iterates `(bucket_lower_bound, count)` for nonempty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i as u64 * self.bucket_width, *c))
    }

    /// Zeroes all counts in place, keeping the geometry and the bucket
    /// allocation (the parallel engine resets per-shard deltas every
    /// cycle; reallocating here would be per-cycle churn).
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.overflow = 0;
        self.count = 0;
    }

    /// Bytes of heap owned by this histogram (the bucket array).
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }

    /// Merges another histogram (must have identical geometry).
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

record_codec!(Histogram { bucket_width, buckets, overflow, count }
    valid "histogram geometry": |h: &Histogram| h.bucket_width > 0 && !h.buckets.is_empty());

impl Default for Histogram {
    /// 256 buckets of width 8 cycles — covers latencies up to 2048 cycles
    /// before overflowing, which suits on-chip networks.
    fn default() -> Self {
        Histogram::new(256, 8)
    }
}

/// Exponentially weighted moving average:
/// `m_new = weight * m_old + (1 - weight) * sample`.
///
/// The paper smooths AFC's 4-cycle traffic-intensity window with weight 0.99
/// (Section IV).
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    weight: f64,
    value: f64,
}

impl Ewma {
    /// Creates an EWMA with the given weight on the *old* value.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not in `[0, 1)`.
    pub fn new(weight: f64) -> Ewma {
        assert!(
            (0.0..1.0).contains(&weight),
            "ewma weight must be in [0, 1)"
        );
        Ewma { weight, value: 0.0 }
    }

    /// Feeds one sample and returns the updated average.
    pub fn update(&mut self, sample: f64) -> f64 {
        self.value = self.weight * self.value + (1.0 - self.weight) * sample;
        self.value
    }

    /// Current average.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Applies `count` zero-sample updates, bit-identical to calling
    /// `update(0.0)` `count` times: since the value is never negative,
    /// `weight * value + (1 - weight) * 0.0 == weight * value` at the bit
    /// level, and `0.0` is a fixed point (allowing early exit once the
    /// decay underflows). The loop is a bare multiply per skipped cycle —
    /// far cheaper than a full pipeline step, and bounded by the ~75k
    /// multiplies it takes any double to underflow to zero.
    pub fn decay_zero(&mut self, count: u64) {
        debug_assert!(self.value >= 0.0, "ewma fed negative samples");
        for _ in 0..count {
            if self.value == 0.0 {
                break;
            }
            self.value *= self.weight;
        }
    }
}

// Bit-exact: `f64`s travel as their IEEE-754 patterns.
record_codec!(Ewma { weight, value }
    valid "ewma state": |e: &Ewma| (0.0..1.0).contains(&e.weight) && e.value.is_finite());

/// Fixed-length sliding window over integer samples, reporting their mean.
///
/// AFC measures local traffic intensity as the flit count averaged over the
/// previous 4 cycles (Section III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindow {
    buf: Vec<u32>,
    next: usize,
    sum: u64,
    filled: usize,
}

impl SlidingWindow {
    /// Creates a window of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> SlidingWindow {
        assert!(len > 0, "window length must be positive");
        SlidingWindow {
            buf: vec![0; len],
            next: 0,
            sum: 0,
            filled: 0,
        }
    }

    /// Pushes a sample, evicting the oldest once full.
    pub fn push(&mut self, sample: u32) {
        self.sum -= self.buf[self.next] as u64;
        self.buf[self.next] = sample;
        self.sum += sample as u64;
        self.next = (self.next + 1) % self.buf.len();
        if self.filled < self.buf.len() {
            self.filled += 1;
        }
    }

    /// Mean over the window (over samples seen so far if not yet full;
    /// zero when empty).
    pub fn mean(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            self.sum as f64 / self.filled as f64
        }
    }

    /// Whether every slot holds zero (`sum == 0` implies all-zero
    /// contents, since samples are unsigned).
    pub fn is_all_zero(&self) -> bool {
        self.sum == 0
    }

    /// Advances the window by `count` zero samples in O(1).
    ///
    /// Exactly equivalent to `count` calls of `push(0)` **provided the
    /// window is already all-zero** ([`SlidingWindow::is_all_zero`]):
    /// each such push evicts a zero, writes a zero, and only moves the
    /// cursor and the fill level.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the window still holds nonzero samples.
    pub fn skip_zero(&mut self, count: u64) {
        debug_assert!(self.is_all_zero(), "skip_zero on a nonzero window");
        let len = self.buf.len();
        self.next = (self.next + (count % len as u64) as usize) % len;
        self.filled = self
            .filled
            .saturating_add(count.min(len as u64) as usize)
            .min(len);
    }
}

record_codec!(SlidingWindow { buf, next, sum, filled }
valid "sliding window invariants": |s: &SlidingWindow| {
    let len = s.buf.len();
    s.next < len && s.filled <= len && s.sum == s.buf.iter().map(|&x| x as u64).sum::<u64>()
});

/// Declares a struct of mergeable measurements from one table. Each field
/// names its fold — `sum` (a `u64` count, added), `max` (a `usize`
/// high-water mark) or `dist` (a nested distribution with its own
/// `clear`/`merge`) — and the struct, `clear`, `merge` and its [`Codec`]
/// (crate::snapshot::Codec) are generated from that one list, in
/// declaration order (which is the snapshot layout), as straight-line
/// per-field code. Adding a field is one line here and cannot forget a fold.
macro_rules! field_table {
    (@clear dist $f:expr) => { $f.clear() };
    (@clear $fold:ident $f:expr) => { $f = 0 };
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge dist $a:expr, $b:expr) => { $a.merge(&$b) };
    (@sample dist $f:expr, $n:expr) => { { $f.record($n); $f.record($n + 100) } };
    (@sample $fold:ident $f:expr, $n:expr) => { $f = $n as _ };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty = $fold:ident, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Creates a zeroed table.
            pub fn new() -> $name {
                $name::default()
            }

            /// Zeroes every field in place, keeping any allocation a
            /// nested distribution owns.
            pub fn clear(&mut self) {
                $( $crate::stats::field_table!(@clear $fold self.$field); )*
            }

            /// Folds `other` into `self`, each field by its declared fold.
            pub fn merge(&mut self, other: &$name) {
                $( $crate::stats::field_table!(@merge $fold self.$field, other.$field); )*
            }

            /// Every field set to a distinct non-zero value (a distribution
            /// gets two samples): the input of the field wall.
            #[cfg(test)]
            pub(crate) fn wall_sample() -> $name {
                let mut sample = $name::default();
                let mut n = 0u64;
                $( n += 1; $crate::stats::field_table!(@sample $fold sample.$field, n); )*
                sample
            }
        }

        $crate::snapshot::record_codec!($name { $($field),* });
    };
}
pub(crate) use field_table;

field_table! {
    /// Aggregate statistics for one simulation run.
    ///
    /// Every field is a sum-mergeable counter, a mergeable distribution or
    /// a monotone high-water mark. Addition is commutative and associative,
    /// and so are the distribution merges, so the parallel engine's
    /// per-shard deltas fold to the exact bytes the serial engine would
    /// have produced regardless of shard count — as long as deltas are
    /// merged in a fixed order (they are: shard index). `cycles` is
    /// advanced by the engine epilogue, never by shards, so a worker delta
    /// always carries `cycles == 0`. `clear` keeps the histogram's bucket
    /// allocation (the per-shard deltas are cleared every sharded cycle).
    #[derive(Debug, Clone, Default)]
    pub struct NetworkStats {
        /// Packets enqueued at network interfaces.
        pub packets_offered: u64 = sum,
        /// Packets whose first flit entered the network.
        pub packets_injected: u64 = sum,
        /// Packets fully reassembled at their destination.
        pub packets_delivered: u64 = sum,
        /// Flits injected into the network.
        pub flits_injected: u64 = sum,
        /// Flits delivered (ejected and reassembled).
        pub flits_delivered: u64 = sum,
        /// Flits re-injected after being dropped (drop-based routers only).
        pub flits_retransmitted: u64 = sum,
        /// Flits that arrived at their destination NI corrupted by a link
        /// fault and were NACKed to the source.
        pub flits_corrupted: u64 = sum,
        /// Flits silently lost to injected link faults (transient drop or a
        /// permanent kill).
        pub flits_lost_to_faults: u64 = sum,
        /// Credits lost to injected credit-channel faults.
        pub credits_lost: u64 = sum,
        /// NI retransmit timeouts that fired (each re-sends one whole packet).
        pub retransmit_timeouts: u64 = sum,
        /// Flits re-materialized by NI retransmit timeouts.
        pub flits_retransmit_copies: u64 = sum,
        /// Packets delivered only after at least one end-to-end retransmission.
        pub recovered_packets: u64 = sum,
        /// Redundant flit copies discarded at reassembly (a retransmitted copy
        /// raced an original that eventually arrived).
        pub duplicate_flits_discarded: u64 = sum,
        /// NACKed flits retired at their source in favor of a full-packet
        /// timeout retransmission (end-to-end recovery mode only).
        pub nacks_absorbed: u64 = sum,
        /// Total fault events injected by the fault plane.
        pub faults_injected: u64 = sum,
        /// Packets the NI gave up on after `max_attempts` retransmissions: the
        /// structured `Unreachable` outcome of DESIGN.md §13 (the per-packet
        /// records live in
        /// [`Network::unreachable_packets`](crate::network::Network::unreachable_packets)).
        pub packets_unreachable: u64 = sum,
        /// Retransmit-queue flit copies discarded (never injected) when their
        /// packet was declared unreachable — the balancing term that keeps the
        /// flit-conservation audit exact under bounded retransmission.
        pub flits_abandoned: u64 = sum,
        /// Partial reassembly buffers discarded after going quiet for the
        /// recovery TTL — the destination-side cleanup for packets whose
        /// source gave up (or whose remaining flits a kill made undeliverable);
        /// without it a half-received packet would hold its NI non-idle
        /// forever.
        pub reassemblies_expired: u64 = sum,
        /// Directed links whose death the engine's deterministic fault
        /// detection has reported to the upstream router.
        pub links_failed: u64 = sum,
        /// Directed links whose revival the engine's deterministic repair
        /// detection has reported to both endpoints (DESIGN.md §15).
        pub links_revived: u64 = sum,
        /// [`UnreachablePacket`](crate::ni::UnreachablePacket) records evicted
        /// from the bounded unreachable log (oldest first) once it exceeded
        /// [`Network::UNREACHABLE_LOG_CAP`](crate::network::Network::UNREACHABLE_LOG_CAP).
        pub unreachable_records_dropped: u64 = sum,
        /// Cycles from each link kill to its local detection (the fault plan's
        /// configured detection delay; a distribution once plans mix delays).
        pub fault_detection_latency: LatencyStats = dist,
        /// Network latency of delivered packets: first-flit injection to
        /// last-flit delivery.
        pub network_latency: LatencyStats = dist,
        /// Histogram of network latencies (for percentile reporting).
        pub network_latency_hist: Histogram = dist,
        /// Total latency of delivered packets: enqueue (packet creation) to
        /// last-flit delivery — includes source queueing delay.
        pub total_latency: LatencyStats = dist,
        /// Hops taken by delivered flits.
        pub flit_hops: LatencyStats = dist,
        /// Deflections suffered by delivered flits.
        pub flit_deflections: LatencyStats = dist,
        /// Router-cycles spent in backpressured mode.
        pub cycles_backpressured: u64 = sum,
        /// Router-cycles spent in backpressureless mode.
        pub cycles_backpressureless: u64 = sum,
        /// Router-cycles spent transitioning between modes.
        pub cycles_transitioning: u64 = sum,
        /// High-water mark of simultaneously open reassembly buffers, across all
        /// network interfaces.
        pub reassembly_high_water: usize = max,
        /// Cycles simulated.
        pub cycles: Cycle = sum,
    }
}

impl NetworkStats {
    /// Bytes of heap owned by the statistics (histogram buckets).
    pub fn heap_bytes(&self) -> usize {
        self.network_latency_hist.heap_bytes()
    }

    /// Delivered throughput in flits per node per cycle.
    pub fn throughput(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_delivered as f64 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Offered injection rate in flits per node per cycle.
    pub fn injection_rate(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_injected as f64 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Fraction of router-cycles spent in backpressured mode (including
    /// transitions, which run backpressureless hardware but are attributed
    /// separately).
    pub fn backpressured_fraction(&self) -> f64 {
        let total =
            self.cycles_backpressured + self.cycles_backpressureless + self.cycles_transitioning;
        if total == 0 {
            0.0
        } else {
            self.cycles_backpressured as f64 / total as f64
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

    /// The wall every `field_table!` struct stands behind: `sample` (all
    /// fields distinct and non-zero) survives `put → load → put` byte for
    /// byte, `merge` into `default()` reproduces it, a second `merge` moves
    /// it (the fold is not an overwrite), and `clear` returns `default()`.
    pub(crate) fn assert_field_wall<T: Codec + Default + Clone>(
        sample: T,
        merge: fn(&mut T, &T),
        clear: fn(&mut T),
    ) {
        let bytes = |value: &T| {
            let mut w = SnapshotWriter::new();
            value.put(&mut w);
            w.into_bytes()
        };
        let saved = bytes(&sample);
        let mut r = SnapshotReader::new(&saved);
        let loaded = T::get(&mut r).expect("a saved table loads");
        r.finish("field table")
            .expect("load consumes what save wrote");
        assert_eq!(bytes(&loaded), saved, "save -> load -> save");
        let mut merged = T::default();
        merge(&mut merged, &sample);
        assert_eq!(bytes(&merged), saved, "merge into default()");
        merge(&mut merged, &sample);
        assert_ne!(bytes(&merged), saved, "a second merge accumulates");
        let mut cleared = sample;
        clear(&mut cleared);
        assert_eq!(bytes(&cleared), bytes(&T::default()), "clear == default()");
    }

    #[test]
    fn every_stats_field_survives_the_field_wall() {
        let sample = NetworkStats::wall_sample();
        // The sample really is set field by field: two counters differ and
        // are non-zero, a nested distribution holds its two samples.
        assert!(sample.packets_offered != 0 && sample.cycles != 0);
        assert_ne!(sample.packets_offered, sample.cycles);
        assert_eq!(sample.network_latency_hist.count(), 2);
        assert_field_wall(sample.clone(), NetworkStats::merge, NetworkStats::clear);
        // The one non-additive fold: a high-water mark merges by max.
        let mut twice = sample.clone();
        twice.merge(&sample);
        assert_eq!(twice.reassembly_high_water, sample.reassembly_high_water);
        assert_eq!(twice.cycles_transitioning, 2 * sample.cycles_transitioning);
        assert_eq!(twice.flit_hops.count(), 4);
    }

    #[test]
    fn latency_stats_basic() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), None);
        s.record(4);
        s.record(8);
        s.record(6);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(6.0));
        assert_eq!(s.min(), Some(4));
        assert_eq!(s.max(), Some(8));
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::new();
        a.record(1);
        let mut b = LatencyStats::new();
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(9));
        let empty = LatencyStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn histogram_records_and_queries_percentiles() {
        let mut h = Histogram::new(10, 5);
        for v in [0, 4, 7, 12, 49] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(5)); // third sample: bucket [5,10)
        assert_eq!(h.percentile(1.0), Some(45));
        assert_eq!(h.iter().count(), 4);
    }

    #[test]
    fn histogram_overflow_and_merge() {
        let mut a = Histogram::new(4, 10);
        a.record(100); // overflow
        a.record(5);
        let mut b = Histogram::new(4, 10);
        b.record(15);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.percentile(1.0), Some(40)); // overflow boundary
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn histogram_merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(4, 10);
        let b = Histogram::new(4, 20);
        a.merge(&b);
    }

    #[test]
    fn histogram_empty_percentile_is_none() {
        assert_eq!(Histogram::new(4, 10).percentile(0.5), None);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.99);
        for _ in 0..2000 {
            e.update(2.0);
        }
        assert!((e.value() - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "ewma weight")]
    fn ewma_rejects_bad_weight() {
        let _ = Ewma::new(1.0);
    }

    #[test]
    fn sliding_window_mean() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        w.push(4);
        assert_eq!(w.mean(), 4.0);
        w.push(0);
        w.push(0);
        w.push(4);
        assert_eq!(w.mean(), 2.0);
        // Evicts the first 4.
        w.push(0);
        assert_eq!(w.mean(), 1.0);
    }

    #[test]
    fn stats_snapshot_round_trip_is_exact() {
        let mut s = NetworkStats::new();
        s.packets_offered = 10;
        s.flits_injected = 37;
        s.network_latency.record(12);
        s.network_latency_hist.record(12);
        s.flit_hops.record(3);
        s.cycles_backpressured = 5;
        s.reassembly_high_water = 7;
        s.cycles = 400;
        let mut hw = SnapshotWriter::new();
        s.put(&mut hw);
        let bytes = hw.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let restored = NetworkStats::get(&mut r).unwrap();
        r.finish("stats").unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.put(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(restored.packets_offered, 10);
        assert_eq!(restored.network_latency.mean(), Some(12.0));
    }

    #[test]
    fn measurement_state_round_trips() {
        let mut e = Ewma::new(0.99);
        e.update(1.5);
        e.update(0.25);
        let mut win = SlidingWindow::new(4);
        win.push(3);
        win.push(0);
        let mut lw = SnapshotWriter::new();
        e.put(&mut lw);
        win.put(&mut lw);
        let bytes = lw.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut e2 = Ewma::new(0.5);
        e2.load(&mut r).unwrap();
        let mut w2 = SlidingWindow::new(1);
        w2.load(&mut r).unwrap();
        r.finish("measurement").unwrap();
        assert_eq!(e2, e);
        assert_eq!(w2, win);
    }

    /// A decoded length never sizes an allocation: a bucket or sample
    /// count far past the payload is `Truncated`, not an abort.
    #[test]
    fn huge_decoded_lengths_are_truncated_not_allocated() {
        for count in [1u64 << 40, 1 << 61, u64::MAX] {
            let mut w = SnapshotWriter::new();
            w.put_u64(8); // bucket width
            w.put_u64(count);
            w.put_u64(0);
            let bytes = w.into_bytes();
            let err = Histogram::default()
                .load(&mut SnapshotReader::new(&bytes))
                .unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{count}: {err}"
            );
            let err = SlidingWindow::new(4)
                .load(&mut SnapshotReader::new(&bytes[8..]))
                .unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{count}: {err}"
            );
        }
    }

    #[test]
    fn throughput_math() {
        let stats = NetworkStats {
            flits_delivered: 900,
            flits_injected: 1000,
            cycles: 100,
            ..NetworkStats::new()
        };
        assert!((stats.throughput(9) - 1.0).abs() < 1e-12);
        assert!((stats.injection_rate(10) - 1.0).abs() < 1e-12);
        assert_eq!(NetworkStats::new().throughput(9), 0.0);
    }

    #[test]
    fn mode_fraction() {
        let stats = NetworkStats {
            cycles_backpressured: 75,
            cycles_backpressureless: 25,
            ..NetworkStats::new()
        };
        assert!((stats.backpressured_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(NetworkStats::new().backpressured_fraction(), 0.0);
    }
}

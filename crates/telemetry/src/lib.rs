//! In-tree, dependency-free metrics core for the checker stack.
//!
//! The exploration layers (`robots::explore`, the work-stealing pool, the
//! sweep driver) decide tens of thousands of symmetry classes per cell; this
//! crate gives them a way to explain *where the time and state growth went*
//! without ever perturbing the byte-pinned verdict digests. Everything here
//! is strictly out-of-band:
//!
//! * **Primitives are lock-free.** [`Counter`], [`Gauge`] and [`Histogram`]
//!   are relaxed atomics — safe to bump from every worker of the
//!   work-stealing pool without serializing them. Hot loops are expected to
//!   tally into plain `u64` locals and [`Counter::add`] once per batch
//!   (per-worker sharding), so the instrumented path costs one uncontended
//!   atomic add per worker per phase, not per event.
//! * **Timers are gated.** [`Stopwatch`] consults the process-wide
//!   [`enabled`] flag before touching the clock, so with telemetry disabled
//!   a phase timer is a single relaxed load and two untaken branches.
//! * **Snapshots are data.** [`Snapshot`] is a name-sorted list of counter
//!   and histogram readings with associative, commutative [`Snapshot::merge`]
//!   — shard snapshots merge into cell snapshots in any order with the same
//!   result — and it serializes through the vendored serde shim so sweeps
//!   can persist a `metrics` block next to (never inside) the digest stream.
//!
//! Nothing in this crate feeds back into control flow: readings are only
//! ever written, merged, and reported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b >= 1`
/// holds values in `[2^(b-1), 2^b)`, up to bucket 64 for `u64::MAX`.
const BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable the *timing* side of telemetry.
///
/// Counters and histograms always record (an uncontended relaxed add is
/// cheaper than a well-predicted branch would make it worth guarding);
/// the flag exists so clock reads — the only measurably costly part —
/// can be skipped wholesale. Disabling telemetry can never change any
/// checker verdict or digest: readings are write-only from the checkers'
/// point of view.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phase timers currently read the clock. See [`set_enabled`].
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` — the per-worker flush point for locally tallied batches.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current reading.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge: `record` keeps the maximum ever seen.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Fold `v` into the running maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current maximum.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples (relaxed atomics throughout).
///
/// Bucket 0 counts exact zeros; bucket `b >= 1` counts samples in
/// `[2^(b-1), 2^b)`. Alongside the buckets it tracks the sample count,
/// the exact sum (for means), and the maximum (for peaks such as the
/// widest BFS frontier).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample: 0 for 0, else `floor(log2 v) + 1`.
    #[inline]
    fn index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Read the histogram out as snapshot data (nonzero buckets only).
    pub fn read(&self, name: &str) -> HistogramEntry {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(log2, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some(BucketEntry { log2: log2 as u64, count })
            })
            .collect();
        HistogramEntry {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A phase timer that only touches the clock while telemetry is
/// [`enabled`]; finish it with [`Stopwatch::flush`] to bank the elapsed
/// nanoseconds into a [`Counter`].
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Start timing now (a no-op recorder when telemetry is disabled).
    #[inline]
    pub fn started() -> Self {
        Stopwatch { start: enabled().then(Instant::now) }
    }

    /// Nanoseconds elapsed so far (0 when started disabled), saturating
    /// at `u64::MAX` far beyond any realistic phase duration.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Bank the elapsed nanoseconds into `into` and consume the watch.
    #[inline]
    pub fn flush(self, into: &Counter) {
        if self.start.is_some() {
            into.add(self.elapsed_ns());
        }
    }
}

/// One named counter reading inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted metric name, e.g. `explore.phase_a_ns` or `memo.info.hit`.
    pub name: String,
    /// The reading.
    pub value: u64,
}

/// One nonzero log2 bucket of a [`HistogramEntry`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketEntry {
    /// Bucket index: 0 holds exact zeros, `b >= 1` holds `[2^(b-1), 2^b)`.
    pub log2: u64,
    /// Samples that fell in this bucket.
    pub count: u64,
}

/// One named histogram reading inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Dotted metric name, e.g. `explore.frontier_width`.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Nonzero buckets, ascending by `log2`.
    pub buckets: Vec<BucketEntry>,
}

impl HistogramEntry {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn merge_from(&mut self, other: &HistogramEntry) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for b in &other.buckets {
            match self.buckets.binary_search_by_key(&b.log2, |e| e.log2) {
                Ok(i) => self.buckets[i].count += b.count,
                Err(i) => self.buckets.insert(i, b.clone()),
            }
        }
    }
}

/// A point-in-time, name-sorted reading of a set of counters and
/// histograms. Snapshots are plain data: they clone, compare, merge
/// associatively/commutatively, and round-trip through the serde shim.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter readings, ascending by name.
    pub counters: Vec<CounterEntry>,
    /// Histogram readings, ascending by name.
    pub histograms: Vec<HistogramEntry>,
    /// High-water-mark gauge readings, ascending by name. Defaulted on
    /// deserialization so metrics blocks written before gauges existed
    /// still parse.
    #[serde(default)]
    pub gauges: Vec<CounterEntry>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Add `value` to the counter `name` (creating it if absent).
    /// Zero-valued adds still create the entry, so a snapshot always
    /// names every metric its producer tracks.
    pub fn add_counter(&mut self, name: &str, value: u64) {
        match self.counters.binary_search_by(|e| e.name.as_str().cmp(name)) {
            Ok(i) => self.counters[i].value += value,
            Err(i) => self.counters.insert(i, CounterEntry { name: name.to_string(), value }),
        }
    }

    /// Fold a histogram reading in (merging with any same-named entry).
    pub fn add_histogram(&mut self, entry: HistogramEntry) {
        match self.histograms.binary_search_by(|e| e.name.cmp(&entry.name)) {
            Ok(i) => self.histograms[i].merge_from(&entry),
            Err(i) => self.histograms.insert(i, entry),
        }
    }

    /// Fold `value` into the gauge `name` as a running maximum
    /// (creating it if absent). Zero-valued records still create the
    /// entry, mirroring [`Snapshot::add_counter`].
    pub fn add_gauge(&mut self, name: &str, value: u64) {
        match self.gauges.binary_search_by(|e| e.name.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].value = self.gauges[i].value.max(value),
            Err(i) => self.gauges.insert(i, CounterEntry { name: name.to_string(), value }),
        }
    }

    /// Reading of gauge `name`, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .map(|i| self.gauges[i].value)
            .unwrap_or(0)
    }

    /// Reading of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .map(|i| self.counters[i].value)
            .unwrap_or(0)
    }

    /// Histogram entry `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.histograms
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// Hit rate `hits / (hits + misses)` over two counters (0.0 when
    /// neither fired) — the standard memo-efficiency readout.
    pub fn rate(&self, hits: &str, misses: &str) -> f64 {
        let h = self.counter(hits);
        let m = self.counter(misses);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Merge another snapshot in: counters add, histograms merge
    /// bucket-wise, gauges take the maximum. Associative and
    /// commutative, so shard snapshots can be folded into a cell
    /// snapshot in any order.
    pub fn merge(&mut self, other: &Snapshot) {
        for c in &other.counters {
            self.add_counter(&c.name, c.value);
        }
        for h in &other.histograms {
            self.add_histogram(h.clone());
        }
        for g in &other.gauges {
            self.add_gauge(&g.name, g.value);
        }
    }

    /// What was tallied between an `earlier` reading of the same
    /// source and this one: counters and histogram counts, sums and
    /// buckets subtract, so merging the deltas of consecutive intervals
    /// gives back the whole. Gauges and histogram maxima are high-water
    /// marks and cannot be split, so they keep this reading's value.
    #[must_use]
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut delta = self.clone();
        for c in &mut delta.counters {
            c.value -= earlier.counter(&c.name).min(c.value);
        }
        for h in &mut delta.histograms {
            let Some(before) = earlier.histogram(&h.name) else { continue };
            h.count -= before.count.min(h.count);
            h.sum -= before.sum.min(h.sum);
            for b in &mut h.buckets {
                if let Some(e) = before.buckets.iter().find(|e| e.log2 == b.log2) {
                    b.count -= e.count.min(b.count);
                }
            }
            h.buckets.retain(|b| b.count > 0);
        }
        delta
    }

    /// True when no entry has a nonzero reading.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.value == 0)
            && self.histograms.iter().all(|h| h.count == 0)
            && self.gauges.iter().all(|g| g.value == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values_by_log2() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let e = h.read("t");
        assert_eq!(e.count, 7);
        assert_eq!(e.sum, 2057);
        assert_eq!(e.max, 1024);
        let bucket = |log2| e.buckets.iter().find(|b| b.log2 == log2).map(|b| b.count);
        assert_eq!(bucket(0), Some(1)); // 0
        assert_eq!(bucket(1), Some(1)); // 1
        assert_eq!(bucket(2), Some(2)); // 2, 3
        assert_eq!(bucket(3), Some(1)); // 4
        assert_eq!(bucket(10), Some(1)); // 1023
        assert_eq!(bucket(11), Some(1)); // 1024
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let mut a = Snapshot::new();
        a.add_counter("x", 2);
        let h = Histogram::new();
        h.record(5);
        a.add_histogram(h.read("w"));

        let mut b = Snapshot::new();
        b.add_counter("x", 3);
        b.add_counter("y", 1);
        let h2 = Histogram::new();
        h2.record(5);
        h2.record(9);
        b.add_histogram(h2.read("w"));

        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        let w = a.histogram("w").unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.sum, 19);
        assert_eq!(w.max, 9);
    }

    #[test]
    fn interval_deltas_merge_back_to_the_whole() {
        let (c, h, g) = (Counter::new(), Histogram::new(), Gauge::new());
        let read = || {
            let mut s = Snapshot::new();
            s.add_counter("c", c.get());
            s.add_histogram(h.read("h"));
            s.add_gauge("g", g.get());
            s
        };
        let start = read();
        c.add(3);
        h.record(5);
        g.record(7);
        let mid = read();
        c.add(4);
        h.record(5);
        h.record(900);
        g.record(2);
        let end = read();

        let (first, second) = (mid.delta_since(&start), end.delta_since(&mid));
        assert_eq!((first.counter("c"), second.counter("c")), (3, 4));
        let later = second.histogram("h").unwrap();
        assert_eq!((later.count, later.sum), (2, 905));
        assert_eq!(second.gauge("g"), 7, "gauges keep the high-water mark");
        let mut whole = first;
        whole.merge(&second);
        assert_eq!(whole.counter("c"), end.counter("c"));
        assert_eq!(whole.histogram("h"), end.histogram("h"));
    }

    #[test]
    fn disabled_stopwatch_reads_zero() {
        set_enabled(false);
        let w = Stopwatch::started();
        let c = Counter::new();
        w.flush(&c);
        assert_eq!(c.get(), 0);
        set_enabled(true);
        let w = Stopwatch::started();
        let c2 = Counter::new();
        w.flush(&c2);
        // Enabled watches bank a real (possibly zero-rounded) reading by
        // taking the flush path; just assert the flag round-trips.
        assert!(enabled());
        let _ = c2.get();
    }

    #[test]
    fn snapshot_gauges_merge_by_maximum() {
        let mut a = Snapshot::new();
        a.add_gauge("peak", 100);
        a.add_gauge("peak", 40);
        assert_eq!(a.gauge("peak"), 100, "same-snapshot records keep the max");
        let mut b = Snapshot::new();
        b.add_gauge("peak", 250);
        b.add_gauge("other", 7);
        a.merge(&b);
        assert_eq!(a.gauge("peak"), 250, "merge takes the max, not the sum");
        assert_eq!(a.gauge("other"), 7);
        assert_eq!(a.gauge("absent"), 0);
        // Old metrics blocks have no gauges field: they must still parse.
        let legacy: Snapshot =
            serde_json::from_str(r#"{"counters":[],"histograms":[]}"#).expect("legacy parses");
        assert!(legacy.gauges.is_empty());
    }

    #[test]
    fn zero_adds_still_name_the_metric() {
        let mut s = Snapshot::new();
        s.add_counter("never_fired", 0);
        assert_eq!(s.counter("never_fired"), 0);
        assert!(s.counters.iter().any(|c| c.name == "never_fired"));
        assert!(s.is_empty());
    }
}

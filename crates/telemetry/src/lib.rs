//! `fusion-telemetry`: hand-rolled instrumentation for the routing stack.
//!
//! Three primitives, two strictly separated planes:
//!
//! * **Counters** ([`Counter`]) — monotonic `u64` event counts. Purely a
//!   function of the work performed, so for a fixed input they are
//!   byte-deterministic across runs, thread counts (within one
//!   deterministic computation), and process restarts.
//! * **Histograms** ([`Histogram`]) — power-of-two-bucket value
//!   distributions (footprint sizes, set cardinalities). Same
//!   deterministic plane as counters.
//! * **Spans** ([`SpanGuard`]) — nested RAII wall-time measurements.
//!   Wall time is *never* deterministic, so spans live in a separate
//!   timing plane: they are excluded from [`Registry::snapshot`] and can
//!   therefore never leak into a byte-stable digest. Export them with
//!   [`Registry::timing_json`] when profiling.
//!
//! A [`Registry`] is global-free: handles are created from an explicit
//! registry value and threaded through the code that does the counting.
//! [`Registry::disabled`] (the default) hands out no-op handles — one
//! `Option` check on a `None` that never changes, which the branch
//! predictor eats — so instrumented hot paths cost nothing measurable
//! when telemetry is off.
//!
//! The deterministic plane exports as a *versioned flat JSON* snapshot
//! ([`MetricsSnapshot`]), the same discipline as `BENCH_BASELINE.json`:
//! one flat map of sorted keys to integers, trivially diffable and
//! parseable without a JSON library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of power-of-two histogram buckets: bucket 0 counts value 0,
/// bucket `k` (1-based) counts values with `floor(log2(v)) == k - 1`,
/// i.e. `v` in `[2^(k-1), 2^k)`. Bucket 64 catches `u64::MAX` class.
const HISTOGRAM_BUCKETS: usize = 65;

/// Snapshot format version, bumped on any change to the JSON layout.
pub const SNAPSHOT_VERSION: u64 = 1;

/// The key the version is stored under in the flat snapshot map. Leading
/// underscores sort it ahead of every metric name.
pub const VERSION_KEY: &str = "__telemetry_version__";

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Debug, Default)]
struct SpanStat {
    count: u64,
    total_ns: u128,
}

/// Shared state behind an enabled registry.
#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

/// A global-free metric registry. Cloning is cheap (an `Arc` bump) and
/// clones share the same metric store, so a registry can be handed to
/// every layer of a pipeline and read back once at the top.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// A live registry: handles created from it record for real.
    #[must_use]
    pub fn enabled() -> Self {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A disabled registry: every handle it creates is a no-op. This is
    /// `Default` so un-instrumented construction paths stay zero-cost.
    #[must_use]
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether handles from this registry record anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the counter named `name`, creating it at zero on first
    /// use. Asking twice returns handles to the same underlying cell.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned (a recorder panicked).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .expect("telemetry mutex poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Returns the power-of-two-bucket histogram named `name`, creating
    /// it empty on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned (a recorder panicked).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("telemetry mutex poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Opens a top-level wall-time span. The measurement is recorded
    /// under `path` when the guard drops. Nest with [`SpanGuard::child`].
    #[must_use]
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard {
            inner: self.inner.clone(),
            path: self.inner.as_ref().map(|_| path.to_string()),
            start: Instant::now(),
        }
    }

    /// Captures the deterministic plane — counters and histograms, never
    /// spans — as a versioned flat snapshot.
    ///
    /// A disabled registry snapshots to just the version header.
    ///
    /// # Panics
    ///
    /// Panics if a registry mutex was poisoned (a recorder panicked).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values: BTreeMap<String, u64> = BTreeMap::new();
        if let Some(inner) = &self.inner {
            for (name, cell) in inner
                .counters
                .lock()
                .expect("telemetry mutex poisoned")
                .iter()
            {
                values.insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, hist) in inner
                .histograms
                .lock()
                .expect("telemetry mutex poisoned")
                .iter()
            {
                let mut total = 0u64;
                for (k, bucket) in hist.buckets.iter().enumerate() {
                    let count = bucket.load(Ordering::Relaxed);
                    total += count;
                    if count > 0 {
                        values.insert(format!("{name}/p2_{k:02}"), count);
                    }
                }
                values.insert(format!("{name}/count"), total);
            }
        }
        MetricsSnapshot { values }
    }

    /// Exports the timing plane (spans) as flat JSON:
    /// `"<path>/count"` and `"<path>/total_ns"` per span path. Kept
    /// deliberately separate from [`Registry::snapshot`] — wall time must
    /// never enter a byte-stable digest.
    ///
    /// # Panics
    ///
    /// Panics if the span mutex was poisoned (a recorder panicked).
    #[must_use]
    pub fn timing_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        if let Some(inner) = &self.inner {
            for (path, stat) in inner.spans.lock().expect("telemetry mutex poisoned").iter() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let total = u64::try_from(stat.total_ns).unwrap_or(u64::MAX);
                out.push_str(&format!(
                    "  \"{path}/count\": {},\n  \"{path}/total_ns\": {total}",
                    stat.count
                ));
            }
        }
        if !first {
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// A monotonic event counter. Disabled handles are a `None` and cost one
/// always-predicted branch per call.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A standalone no-op counter (what a disabled registry hands out).
    #[must_use]
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Whether increments are recorded anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A power-of-two-bucket histogram of `u64` values.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// A standalone no-op histogram.
    #[must_use]
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation of `value` into its power-of-two bucket.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(inner) = &self.0 {
            let bucket = match value {
                0 => 0,
                // `u64::MAX` has zero leading zeros, giving index 64 — the
                // last of the `HISTOGRAM_BUCKETS` slots. The clamp keeps
                // the indexing in-bounds by construction rather than by
                // arithmetic coincidence, so a future bucket-count change
                // saturates instead of panicking.
                v => (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1),
            };
            inner.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether observations are recorded anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// RAII wall-time span. Records `(count, total_ns)` under its path when
/// dropped. Spans belong to the timing plane only — see the module docs.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    /// `Some` exactly when `inner` is; kept separate so a disabled guard
    /// allocates nothing.
    path: Option<String>,
    start: Instant,
}

impl SpanGuard {
    /// Opens a nested span `"<parent>/<name>"` under this one. Nesting
    /// is purely lexical (slash-joined paths), so it needs no global
    /// stack and works across threads.
    #[must_use]
    pub fn child(&self, name: &str) -> SpanGuard {
        SpanGuard {
            inner: self.inner.clone(),
            path: self.path.as_ref().map(|p| format!("{p}/{name}")),
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(inner), Some(path)) = (&self.inner, &self.path) {
            let elapsed = self.start.elapsed().as_nanos();
            let mut spans = inner.spans.lock().expect("telemetry mutex poisoned");
            let stat = spans.entry(path.clone()).or_default();
            stat.count += 1;
            stat.total_ns += elapsed;
        }
    }
}

/// A point-in-time capture of the deterministic plane: a sorted flat map
/// of metric names to integer values. Histogram buckets appear as
/// `"<name>/p2_<k>"` entries (non-empty buckets only) plus a
/// `"<name>/count"` total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// An empty snapshot (what a disabled registry produces).
    #[must_use]
    pub fn empty() -> Self {
        MetricsSnapshot {
            values: BTreeMap::new(),
        }
    }

    /// The value recorded under `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// The value recorded under `name`, defaulting to zero.
    #[must_use]
    pub fn value(&self, name: &str) -> u64 {
        self.get(name).unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of entries (version header excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot carries no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Serializes as versioned flat JSON — the version header first,
    /// then one `"name": value` line per metric in sorted order. The
    /// output is byte-deterministic for equal snapshots.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"{VERSION_KEY}\": {SNAPSHOT_VERSION}"));
        for (name, value) in &self.values {
            out.push_str(&format!(",\n  \"{name}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses the format written by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, an unsupported
    /// version, or a missing version header.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("expected a JSON object")?;
        let mut values = BTreeMap::new();
        let mut version: Option<u64> = None;
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let name = name
                .trim()
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted key in {entry:?}"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("non-integer value in {entry:?}"))?;
            if name == VERSION_KEY {
                version = Some(value);
            } else {
                values.insert(name.to_string(), value);
            }
        }
        match version {
            Some(SNAPSHOT_VERSION) => Ok(MetricsSnapshot { values }),
            Some(v) => Err(format!("unsupported snapshot version {v}")),
            None => Err("missing version header".to_string()),
        }
    }

    /// FNV-1a fingerprint of the serialized snapshot. Because spans never
    /// enter a snapshot, this digest is a pure function of the counted
    /// work — safe to compare across runs, machines, and thread counts.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json().as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let registry = Registry::enabled();
        let a = registry.counter("alg.pops");
        let b = registry.counter("alg.pops");
        a.inc();
        b.add(4);
        assert_eq!(a.value(), 5, "same name must share one cell");
        assert_eq!(registry.snapshot().value("alg.pops"), 5);
    }

    #[test]
    fn disabled_registry_is_a_noop() {
        let registry = Registry::disabled();
        assert!(!registry.is_enabled());
        let c = registry.counter("x");
        c.inc();
        assert!(!c.is_enabled());
        assert_eq!(c.value(), 0);
        let h = registry.histogram("y");
        h.record(9);
        assert!(!h.is_enabled());
        let snap = registry.snapshot();
        assert!(snap.is_empty());
        // Still a valid versioned document.
        assert_eq!(MetricsSnapshot::parse_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let registry = Registry::enabled();
        let h = registry.histogram("footprint");
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.value("footprint/count"), 8);
        assert_eq!(snap.value("footprint/p2_00"), 1, "value 0");
        assert_eq!(snap.value("footprint/p2_01"), 1, "value 1");
        assert_eq!(snap.value("footprint/p2_02"), 2, "values 2..4");
        assert_eq!(snap.value("footprint/p2_03"), 2, "values 4..8");
        assert_eq!(snap.value("footprint/p2_04"), 1, "value 8");
        assert_eq!(snap.value("footprint/p2_11"), 1, "value 1024");
    }

    /// The top of the `u64` range lands in the last bucket (index 64)
    /// without indexing past `HISTOGRAM_BUCKETS`. Pins the exact bucket
    /// for the `2^63` boundary on both sides and for `u64::MAX`.
    #[test]
    fn histogram_top_buckets_stay_in_bounds() {
        let registry = Registry::enabled();
        let h = registry.histogram("top");
        h.record((1u64 << 63) - 1); // largest 63-bit value
        h.record(1u64 << 63); // smallest 64-bit value
        h.record(u64::MAX);
        let snap = registry.snapshot();
        assert_eq!(snap.value("top/count"), 3);
        assert_eq!(snap.value("top/p2_63"), 1, "2^63 - 1");
        assert_eq!(
            snap.value("top/p2_64"),
            2,
            "2^63 and u64::MAX share the last bucket"
        );
    }

    #[test]
    fn snapshot_round_trips_and_digest_is_stable() {
        let registry = Registry::enabled();
        registry.counter("b").add(2);
        registry.counter("a").add(1);
        registry.histogram("h").record(3);
        let snap = registry.snapshot();
        let parsed = MetricsSnapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.digest(), snap.digest());
        // Keys serialize sorted regardless of creation order.
        let json = snap.to_json();
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        assert!(a < b, "snapshot keys must be sorted");
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(MetricsSnapshot::parse_json("not json").is_err());
        assert!(
            MetricsSnapshot::parse_json("{\n  \"a\": 1\n}\n").is_err(),
            "missing version header must be rejected"
        );
        assert!(
            MetricsSnapshot::parse_json(&format!("{{\"{VERSION_KEY}\": 999, \"a\": 1}}")).is_err(),
            "unknown version must be rejected"
        );
        assert!(MetricsSnapshot::parse_json(&format!(
            "{{\"{VERSION_KEY}\": {SNAPSHOT_VERSION}, \"a\": -3}}"
        ))
        .is_err());
    }

    #[test]
    fn spans_stay_out_of_the_deterministic_plane() {
        let registry = Registry::enabled();
        {
            let outer = registry.span("replay");
            let _inner = outer.child("admit");
            registry.counter("events").inc();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 1, "only the counter may appear: {snap:?}");
        assert_eq!(snap.value("events"), 1);
        let timing = registry.timing_json();
        assert!(timing.contains("replay/count"));
        assert!(timing.contains("replay/admit/total_ns"));
    }

    #[test]
    fn snapshots_compare_independent_of_wall_time() {
        // Two registries doing identical counted work but very different
        // span activity must snapshot byte-identically.
        let run = |spans: usize| {
            let registry = Registry::enabled();
            for _ in 0..spans {
                let _g = registry.span("noise");
            }
            registry.counter("work").add(7);
            registry.histogram("sizes").record(5);
            registry.snapshot()
        };
        let a = run(0);
        let b = run(100);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.digest(), b.digest());
    }
}

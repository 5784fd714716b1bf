//! Mergeable metric snapshots — the cluster-telemetry building block.
//!
//! A [`MetricsSnapshot`] is a plain-data copy of counter totals and
//! histogram bucket counts. Because every histogram shares the
//! [`super::DEFAULT_US_BOUNDS`] shape, merging two snapshots (or folding
//! one into the absorbed store with [`absorb`]) is per-name, per-bucket
//! **addition** — no interpolation, no reshaping, no allocation beyond
//! the name strings. Cluster nodes ship per-request delta snapshots over
//! the wire; the frontend [`absorb`]s them under `node{N}.`-prefixed
//! names into one plain-data snapshot beside the metric table, so
//! [`snapshot`], [`super::flush`] and [`super::counter_total`] see the
//! whole cluster's state.

use super::{bucket_of, DEFAULT_US_BOUNDS, TABLE};
use crate::sync::Mutex;

/// Node telemetry absorbed from the wire: names the table cannot know.
/// Bounded per node by the wire's telemetry caps (names per snapshot and
/// bytes per name).
pub(super) static ABSORBED: Mutex<MetricsSnapshot> = Mutex::new(MetricsSnapshot {
    counters: Vec::new(),
    hists: Vec::new(),
});

/// Fixed bucket count of every histogram:
/// `DEFAULT_US_BOUNDS.len()` bounded buckets plus the overflow bucket.
pub const HIST_BUCKETS: usize = DEFAULT_US_BOUNDS.len() + 1;

/// A point-in-time, plain-data copy of metrics state: counter totals and
/// histogram bucket counts, both name-sorted. Same-bounds snapshots form
/// a commutative monoid under [`merge`](MetricsSnapshot::merge) (the
/// empty snapshot is the identity), which is what makes per-node
/// telemetry safe to combine in any gather order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, name-sorted. A missing name means 0.
    pub counters: Vec<(String, u64)>,
    /// `(name, bucket counts)` pairs, name-sorted; counts are
    /// [`HIST_BUCKETS`] long ([`super::DEFAULT_US_BOUNDS`] + overflow).
    pub hists: Vec<(String, Vec<u64>)>,
}

impl MetricsSnapshot {
    /// `true` when the snapshot carries no counters and no histograms.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1,
            Err(_) => 0,
        }
    }

    /// The named histogram's bucket counts, if present.
    pub fn hist(&self, name: &str) -> Option<&[u64]> {
        match self.hists.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => Some(&self.hists[i].1),
            Err(_) => None,
        }
    }

    /// Adds `delta` to the named counter (inserting it at 0 first).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 += delta,
            Err(i) => self.counters.insert(i, (name.to_string(), delta)),
        }
    }

    /// Buckets one microsecond observation into the named histogram,
    /// creating it with [`HIST_BUCKETS`] zeroed buckets on first use —
    /// the same bucketing rule as [`super::Histogram::observe_us`].
    pub fn observe_us(&mut self, name: &str, us: f64) {
        let bucket = bucket_of(us);
        match self.hists.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.hists[i].1[bucket] += 1,
            Err(i) => {
                let mut counts = vec![0u64; HIST_BUCKETS];
                counts[bucket] = 1;
                self.hists.insert(i, (name.to_string(), counts));
            }
        }
    }

    /// The change since `earlier`: per-name saturating subtraction, with
    /// zero counters and all-zero histograms dropped. `self` must be the
    /// *later* snapshot of the same metrics — counters only grow, so a
    /// name that shrank is clamped to 0 rather than wrapping.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, total)| {
                let d = total.saturating_sub(earlier.counter(name));
                (d > 0).then(|| (name.clone(), d))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|(name, counts)| {
                let d: Vec<u64> = match earlier.hist(name) {
                    Some(prev) if prev.len() == counts.len() => counts
                        .iter()
                        .zip(prev)
                        .map(|(c, p)| c.saturating_sub(*p))
                        .collect(),
                    _ => counts.clone(),
                };
                d.iter().any(|&c| c > 0).then(|| (name.clone(), d))
            })
            .collect();
        MetricsSnapshot { counters, hists }
    }

    /// Folds `other` into `self`: counters add per name; histograms add
    /// per bucket **when the bucket counts have the same length** (same
    /// bounds — true of every histogram here). A histogram with a
    /// mismatched shape is skipped rather than misinterpreted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, delta) in &other.counters {
            self.add_counter(name, *delta);
        }
        for (name, counts) in &other.hists {
            match self
                .hists
                .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()))
            {
                Ok(i) => {
                    let mine = &mut self.hists[i].1;
                    if mine.len() == counts.len() {
                        for (m, c) in mine.iter_mut().zip(counts) {
                            *m += c;
                        }
                    }
                }
                Err(i) => self.hists.insert(i, (name.clone(), counts.clone())),
            }
        }
    }
}

/// Snapshots the metric table and the absorbed node telemetry: every
/// counter with a non-zero total and every histogram with a non-zero
/// bucket, name-sorted. Pair with [`MetricsSnapshot::delta_since`] to
/// scope a measurement.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    // TABLE is name-sorted, so pushing keeps both lists sorted.
    for m in TABLE {
        match m.hist() {
            Some(h) => {
                let counts = h.counts();
                if counts.iter().any(|&c| c > 0) {
                    snap.hists.push((m.name().to_string(), counts.to_vec()));
                }
            }
            None if m.total() > 0 => snap.counters.push((m.name().to_string(), m.total())),
            None => {}
        }
    }
    snap.merge(&ABSORBED.lock());
    snap
}

/// Folds a delta snapshot into the absorbed store under
/// `{prefix}{name}` — the frontend's merge step: node telemetry arrives
/// as a [`MetricsSnapshot`] and lands as `node{N}.requests`,
/// `node{N}.busy_us`, … next to the frontend's own metrics. Histogram
/// deltas add per bucket (same-bounds merge); a histogram whose bucket
/// count is not [`HIST_BUCKETS`] is skipped. No-op when tracing is off,
/// like every metric write.
pub fn absorb(prefix: &str, delta: &MetricsSnapshot) {
    if !super::enabled() {
        return;
    }
    // A shared prefix keeps the names sorted.
    let prefixed = MetricsSnapshot {
        counters: delta
            .counters
            .iter()
            .map(|(n, d)| (format!("{prefix}{n}"), *d))
            .collect(),
        hists: delta
            .hists
            .iter()
            .filter(|(_, counts)| counts.len() == HIST_BUCKETS)
            .map(|(n, counts)| (format!("{prefix}{n}"), counts.clone()))
            .collect(),
    };
    ABSORBED.lock().merge(&prefixed);
}

#[cfg(test)]
mod tests {
    use super::super::tests::lock;
    use super::super::{
        counter_total, histogram_counts, install, reset, TraceConfig, BENCH_OBS_COUNTER,
        EXEC_FAILOVER, EXEC_RECONSTRUCT_US,
    };
    use super::*;

    #[test]
    fn snapshot_delta_scopes_a_measurement() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        BENCH_OBS_COUNTER.add(3);
        EXEC_RECONSTRUCT_US.observe_us(5.0);
        let before = snapshot();
        BENCH_OBS_COUNTER.add(2);
        EXEC_FAILOVER.add(7);
        EXEC_RECONSTRUCT_US.observe_us(5.0);
        EXEC_RECONSTRUCT_US.observe_us(1e9);
        let delta = snapshot().delta_since(&before);
        install(TraceConfig::Off).unwrap();
        reset();

        assert_eq!(delta.counter("bench.obs.counter"), 2);
        assert_eq!(delta.counter("exec.failover"), 7);
        assert_eq!(delta.counter("exec.retries"), 0);
        let lat = delta
            .hist("exec.reconstruct_us")
            .expect("hist delta present");
        assert_eq!(lat.len(), HIST_BUCKETS);
        assert_eq!(lat[0], 1, "only the new ≤10µs observation");
        assert_eq!(lat[HIST_BUCKETS - 1], 1, "the overflow observation");
        assert_eq!(lat[1..HIST_BUCKETS - 1], [0, 0, 0, 0, 0]);
    }

    #[test]
    fn merge_is_per_name_per_bucket_addition() {
        let mut a = MetricsSnapshot::default();
        a.add_counter("requests", 2);
        a.observe_us("busy_us", 5.0);
        let mut b = MetricsSnapshot::default();
        b.add_counter("requests", 3);
        b.add_counter("queries", 8);
        b.observe_us("busy_us", 50.0);
        b.observe_us("other", 5.0);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("requests"), 5);
        assert_eq!(merged.counter("queries"), 8);
        assert_eq!(merged.hist("busy_us").unwrap()[..2], [1, 1]);
        assert_eq!(merged.hist("other").unwrap()[0], 1);

        // Commutative: b.merge(a) produces the same snapshot.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(merged, flipped);
        // Identity: merging the empty snapshot changes nothing.
        let mut id = a.clone();
        id.merge(&MetricsSnapshot::default());
        assert_eq!(id, a);
    }

    #[test]
    fn mismatched_bucket_shapes_are_skipped_not_mangled() {
        let mut a = MetricsSnapshot::default();
        a.observe_us("lat", 5.0);
        let odd = MetricsSnapshot {
            counters: vec![],
            hists: vec![("lat".to_string(), vec![9, 9])],
        };
        let mut merged = a.clone();
        merged.merge(&odd);
        assert_eq!(merged, a, "foreign-bounds hist must not merge");
    }

    #[test]
    fn absorb_lands_prefixed_names_in_the_registry() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        let mut delta = MetricsSnapshot::default();
        delta.add_counter("requests", 4);
        delta.observe_us("busy_us", 500.0);
        absorb("node2.", &delta);
        let total = counter_total("node2.requests");
        let hist = histogram_counts("node2.busy_us");
        let snap = snapshot();
        reset();
        let cleared = counter_total("node2.requests");
        install(TraceConfig::Off).unwrap();

        assert_eq!(total, 4);
        let (bounds, counts) = hist.expect("prefixed hist created");
        assert_eq!(bounds, DEFAULT_US_BOUNDS.to_vec());
        assert_eq!(counts[2], 1, "500µs lands in the ≤1ms bucket");
        assert_eq!(snap.counter("node2.requests"), 4, "snapshot sees it");
        assert_eq!(cleared, 0, "reset drops absorbed telemetry");
    }

    #[test]
    fn absorb_is_inert_when_tracing_is_off() {
        let _l = lock();
        install(TraceConfig::Off).unwrap();
        reset();
        let mut delta = MetricsSnapshot::default();
        delta.add_counter("requests", 4);
        absorb("node9.", &delta);
        assert_eq!(counter_total("node9.requests"), 0);
    }
}

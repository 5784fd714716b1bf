//! Mergeable registry snapshots — the cluster-telemetry building block.
//!
//! A [`MetricsSnapshot`] is a plain-data copy of counter totals and
//! histogram bucket counts. Because every registry histogram shares the
//! [`super::DEFAULT_US_BOUNDS`] shape, merging two snapshots (or folding
//! one into the live registry with [`absorb`]) is per-name, per-bucket
//! **addition** — no interpolation, no reshaping, no allocation beyond
//! the name strings. Cluster nodes ship per-request delta snapshots over
//! the wire; the frontend [`absorb`]s them under `node{N}.`-prefixed
//! names so one registry holds the whole cluster's state.

use super::{registry, DEFAULT_US_BOUNDS};
use std::sync::atomic::Ordering;

/// Fixed bucket count of every registry histogram:
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
    /// the same bucketing rule as [`super::observe_us`].
    pub fn observe_us(&mut self, name: &str, us: f64) {
        let bucket = DEFAULT_US_BOUNDS
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(DEFAULT_US_BOUNDS.len());
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
    /// *later* snapshot of the same registry — counters only grow, so a
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
    /// bounds — the registry invariant). A histogram with a mismatched
    /// shape is skipped rather than misinterpreted.
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

/// Snapshots the live registry: every counter with a non-zero total and
/// every histogram's bucket counts, name-sorted. Pair with
/// [`MetricsSnapshot::delta_since`] to scope a measurement.
pub fn snapshot() -> MetricsSnapshot {
    let counters = super::counters_snapshot();
    let mut hists: Vec<(String, Vec<u64>)> = registry()
        .hists
        .read()
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            )
        })
        .collect();
    hists.sort();
    MetricsSnapshot { counters, hists }
}

/// Folds a delta snapshot into the **live registry** under
/// `{prefix}{name}` — the frontend's merge step: node telemetry arrives
/// as a [`MetricsSnapshot`] and lands as `node{N}.requests`,
/// `node{N}.busy_us`, … next to the frontend's own metrics. Histogram
/// deltas add per bucket (same-bounds merge); a delta whose bucket count
/// does not match the registry shape is skipped. No-op when tracing is
/// off, like every registry write.
pub fn absorb(prefix: &str, delta: &MetricsSnapshot) {
    if !super::enabled() {
        return;
    }
    let mut name = String::with_capacity(prefix.len() + 16);
    for (n, d) in &delta.counters {
        name.clear();
        name.push_str(prefix);
        name.push_str(n);
        super::counter_add(&name, *d);
    }
    for (n, counts) in &delta.hists {
        if counts.len() != HIST_BUCKETS {
            continue;
        }
        name.clear();
        name.push_str(prefix);
        name.push_str(n);
        let hist = registry().hist(&name);
        for (slot, c) in hist.counts.iter().zip(counts) {
            slot.fetch_add(*c, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        counter_add, counter_total, histogram_counts, install, observe_us, reset, TraceConfig,
    };
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: crate::sync::Mutex<()> = crate::sync::Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn snapshot_delta_scopes_a_measurement() {
        let _l = lock();
        install(TraceConfig::Memory).unwrap();
        reset();
        counter_add("snap.before", 3);
        observe_us("snap.lat", 5.0);
        let before = snapshot();
        counter_add("snap.before", 2);
        counter_add("snap.fresh", 7);
        observe_us("snap.lat", 5.0);
        observe_us("snap.lat", 1e9);
        let delta = snapshot().delta_since(&before);
        install(TraceConfig::Off).unwrap();
        reset();

        assert_eq!(delta.counter("snap.before"), 2);
        assert_eq!(delta.counter("snap.fresh"), 7);
        assert_eq!(delta.counter("snap.absent"), 0);
        let lat = delta.hist("snap.lat").expect("hist delta present");
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
        install(TraceConfig::Off).unwrap();
        reset();

        assert_eq!(total, 4);
        let (bounds, counts) = hist.expect("prefixed hist created");
        assert_eq!(bounds, DEFAULT_US_BOUNDS.to_vec());
        assert_eq!(counts[2], 1, "500µs lands in the ≤1ms bucket");
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

//! The unified metrics registry, interval sampler and time series.

use std::collections::BTreeMap;

use crate::hash::Fnv1a;
use crate::hist::Histogram;
use crate::json::push_json_string;

/// A flat registry of named `u64` counters/gauges behind hierarchical
/// dot-separated keys (`core.0.retired`, `ckpt.records`, `mem.l1d.hits`,
/// `energy.dram.pj`). Values are integers only — cycles, events, words,
/// bytes, picojoules — so snapshots compare bit-exactly and exports are
/// byte-deterministic.
///
/// Reserved top-level namespaces, by producer: `core.*`/`mem.*`
/// (machine), `ckpt.*` (BER engine, incl. `ckpt.invariant.*`),
/// `campaign.*` (fault-injection reports), `energy.*` (energy model),
/// `host.*` (wall-clock observability — never part of a sim digest),
/// `soak.*` (soak-driver chunk/outcome counters, incl. per-combo
/// `soak.combo.<key>.cases`), and `shrink.*` (shrinker search
/// counters: original/minimal/dropped faults, rounds, evaluations,
/// narrowed fields).
///
/// Keys iterate in lexicographic order (`BTreeMap`), which fixes the
/// export order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    map: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `key` to `value` (gauge semantics; creates the key on first
    /// use).
    pub fn set(&mut self, key: &str, value: u64) {
        if let Some(slot) = self.map.get_mut(key) {
            *slot = value;
        } else {
            self.map.insert(key.to_owned(), value);
        }
    }

    /// Adds `delta` to `key` (counter semantics; creates the key at
    /// `delta` on first use).
    pub fn add(&mut self, key: &str, delta: u64) {
        if let Some(slot) = self.map.get_mut(key) {
            *slot += delta;
        } else {
            self.map.insert(key.to_owned(), delta);
        }
    }

    /// Current value of `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.map.get(key).copied()
    }

    /// Key/value pairs in lexicographic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no key has been registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The histogram registered under `key`, created empty on first use.
    /// Histogram keys live in the same dot-separated namespace as counters
    /// (e.g. `profile.retire.cycles`) but in a separate map, because a
    /// histogram is a distribution, not a scalar.
    pub fn hist_mut(&mut self, key: &str) -> &mut Histogram {
        self.hists.entry(key.to_owned()).or_default()
    }

    /// Records `value` into the histogram under `key` (created on first
    /// use).
    pub fn record_hist(&mut self, key: &str, value: u64) {
        self.hist_mut(key).record(value);
    }

    /// The histogram under `key`, if one has been registered.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Key/histogram pairs in lexicographic key order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Folds `other` into `self` loss-freely: counters add key-by-key and
    /// histograms merge bucket-by-bucket ([`Histogram::merge`]), so
    /// per-shard registries built by parallel workers combine into exactly
    /// the registry one sequential worker would have built. Merging is
    /// associative and commutative, which makes the combined registry
    /// independent of worker count and scheduling — the property the
    /// cross-jobs equivalence tests pin.
    ///
    /// Counter merge uses *add* semantics for every key; gauge-style keys
    /// (set once per run) belong in per-run registries, not in shard
    /// accumulators that get merged.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
        for (k, h) in other.hists() {
            self.hist_mut(k).merge(h);
        }
    }

    /// An FNV-1a digest of the whole registry: every counter key/value in
    /// lexicographic order, then every histogram key with its count,
    /// p50/p90/p99 and max. Two registries digest equal iff they would
    /// export equal — the compact fingerprint run manifests carry so
    /// `acr_cli diff` can compare full metric state without embedding it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (k, v) in self.iter() {
            h.write(k.as_bytes());
            h.write_byte(b'=');
            h.write_u64(v);
        }
        for (k, hist) in self.hists() {
            h.write(k.as_bytes());
            h.write_byte(b'#');
            h.write_u64(hist.count());
            let (p50, p90, p99) = hist.digest();
            h.write_u64(p50);
            h.write_u64(p90);
            h.write_u64(p99);
            h.write_u64(hist.max());
        }
        h.finish()
    }

    /// Projects every registered histogram into scalar counters —
    /// `<key>.count`, `<key>.p50`, `<key>.p90`, `<key>.p99`, `<key>.max` —
    /// so digests ride along in [`Sample`] snapshots and JSONL/Chrome
    /// counter exports. Idempotent between recordings; call before
    /// sampling or exporting.
    pub fn publish_hist_digests(&mut self) {
        let digests: Vec<(String, u64, u64, u64, u64, u64)> = self
            .hists
            .iter()
            .map(|(k, h)| {
                let (p50, p90, p99) = h.digest();
                (k.clone(), h.count(), p50, p90, p99, h.max())
            })
            .collect();
        for (k, count, p50, p90, p99, max) in digests {
            self.set(&format!("{k}.count"), count);
            self.set(&format!("{k}.p50"), p50);
            self.set(&format!("{k}.p90"), p90);
            self.set(&format!("{k}.p99"), p99);
            self.set(&format!("{k}.max"), max);
        }
    }
}

/// One snapshot of the registry at a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Simulated cycle the snapshot was taken at.
    pub cycle: u64,
    /// Key/value pairs, in lexicographic key order.
    pub values: Vec<(String, u64)>,
}

/// An in-memory time series of registry snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample (callers keep cycles non-decreasing).
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// The samples in capture order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been captured.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Line-oriented JSONL export: one object per sample,
    /// `{"cycle":N,"metrics":{"key":value,…}}`, keys in lexicographic
    /// order. Extra top-level tags (e.g. `"workload":"cg"`) can be
    /// supplied; they render before `cycle`, in the order given.
    pub fn to_jsonl(&self, tags: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push('{');
            for (k, v) in tags {
                push_json_string(&mut out, k);
                out.push(':');
                push_json_string(&mut out, v);
                out.push(',');
            }
            out.push_str("\"cycle\":");
            out.push_str(&s.cycle.to_string());
            out.push_str(",\"metrics\":{");
            for (i, (k, v)) in s.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, k);
                out.push(':');
                out.push_str(&v.to_string());
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Snapshots a [`MetricsRegistry`] into a [`TimeSeries`] every `every`
/// simulated cycles. The driver polls [`Sampler::due`] at its scheduling
/// granularity and calls [`Sampler::record`] when due, so sample cycles
/// land at the first observation point at-or-after each K-cycle boundary —
/// deterministic, because the observation points themselves are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sampler {
    every: u64,
    next: u64,
    series: TimeSeries,
}

impl Sampler {
    /// A sampler firing every `every` cycles (clamped to ≥ 1).
    pub fn new(every: u64) -> Self {
        let every = every.max(1);
        Sampler {
            every,
            next: every,
            series: TimeSeries::new(),
        }
    }

    /// The sampling interval in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// True when a sample is due at `cycle`.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next
    }

    /// Snapshots `reg` at `cycle` and advances the next due point to the
    /// following interval boundary.
    pub fn record(&mut self, cycle: u64, reg: &MetricsRegistry) {
        self.series.push(Sample {
            cycle,
            values: reg.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        });
        self.next = (cycle / self.every + 1) * self.every;
    }

    /// The captured series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Takes the captured series, leaving the sampler empty (interval and
    /// phase preserved).
    pub fn take_series(&mut self) -> TimeSeries {
        std::mem::take(&mut self.series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_set_add_get() {
        let mut r = MetricsRegistry::new();
        r.set("b.gauge", 7);
        r.add("a.count", 2);
        r.add("a.count", 3);
        r.set("b.gauge", 9);
        assert_eq!(r.get("a.count"), Some(5));
        assert_eq!(r.get("b.gauge"), Some(9));
        assert_eq!(r.get("missing"), None);
        let keys: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a.count", "b.gauge"], "lexicographic order");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn merge_is_loss_free_and_commutative() {
        let mut a = MetricsRegistry::new();
        a.add("c.x", 3);
        a.record_hist("h", 5);
        a.record_hist("h", 500);
        let mut b = MetricsRegistry::new();
        b.add("c.x", 4);
        b.add("c.y", 1);
        b.record_hist("h", 7);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.get("c.x"), Some(7));
        assert_eq!(ab.get("c.y"), Some(1));
        assert_eq!(ab.hist("h").expect("hist").count(), 3);

        // Shard-merge equals recording everything into one registry.
        let mut one = MetricsRegistry::new();
        one.add("c.x", 7);
        one.add("c.y", 1);
        for v in [5u64, 500, 7] {
            one.record_hist("h", v);
        }
        assert_eq!(ab, one, "merge must be loss-free");
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut full = MetricsRegistry::new();
        full.add("c.x", 3);
        full.record_hist("h", 9);
        let before = full.clone();

        // Empty into full: no change.
        full.merge(&MetricsRegistry::new());
        assert_eq!(full, before);

        // Full into empty: exact copy.
        let mut empty = MetricsRegistry::new();
        empty.merge(&before);
        assert_eq!(empty, before);

        // Empty into empty: still empty.
        let mut e = MetricsRegistry::new();
        e.merge(&MetricsRegistry::new());
        assert!(e.is_empty());
        assert_eq!(e.hists().count(), 0);
    }

    #[test]
    fn merge_of_disjoint_key_sets_is_a_union() {
        let mut a = MetricsRegistry::new();
        a.add("a.only", 1);
        a.record_hist("hist.a", 10);
        let mut b = MetricsRegistry::new();
        b.add("b.only", 2);
        b.record_hist("hist.b", 20);

        a.merge(&b);
        assert_eq!(a.get("a.only"), Some(1));
        assert_eq!(a.get("b.only"), Some(2));
        assert_eq!(a.len(), 2);
        assert_eq!(a.hist("hist.a").expect("kept").count(), 1);
        assert_eq!(a.hist("hist.b").expect("imported").count(), 1);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a.only", "b.only"], "union stays sorted");
    }

    #[test]
    fn merge_of_histogram_only_registries() {
        let mut a = MetricsRegistry::new();
        a.record_hist("lat", 5);
        let mut b = MetricsRegistry::new();
        b.record_hist("lat", 50);
        b.record_hist("lat", 500);

        a.merge(&b);
        assert!(a.is_empty(), "no scalar keys may appear from a hist merge");
        let h = a.hist("lat").expect("merged");
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 500);
    }

    #[test]
    fn digest_tracks_full_registry_state() {
        let mut a = MetricsRegistry::new();
        a.add("c.x", 3);
        a.record_hist("h", 9);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());

        // A counter change moves the digest.
        b.add("c.x", 1);
        assert_ne!(a.digest(), b.digest());

        // A histogram-only change moves the digest too.
        let mut c = a.clone();
        c.record_hist("h", 9);
        assert_ne!(a.digest(), c.digest());

        // Empty registries digest equal (and stable).
        assert_eq!(
            MetricsRegistry::new().digest(),
            MetricsRegistry::new().digest()
        );
    }

    #[test]
    fn sampler_fires_on_interval_boundaries() {
        let mut reg = MetricsRegistry::new();
        reg.set("x", 1);
        let mut s = Sampler::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.record(130, &reg); // first observation after the boundary
        assert!(!s.due(199));
        assert!(s.due(200));
        reg.set("x", 2);
        s.record(200, &reg);
        assert_eq!(s.series().len(), 2);
        assert_eq!(s.series().samples()[0].cycle, 130);
        assert_eq!(s.series().samples()[1].values[0], ("x".to_owned(), 2));
    }

    #[test]
    fn jsonl_is_one_object_per_sample_with_tags() {
        let mut reg = MetricsRegistry::new();
        reg.set("m.a", 1);
        reg.set("m.b", 2);
        let mut s = Sampler::new(10);
        s.record(10, &reg);
        s.record(20, &reg);
        let text = s.series().to_jsonl(&[("workload", "cg")]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"workload\":\"cg\",\"cycle\":10,\"metrics\":{\"m.a\":1,\"m.b\":2}}"
        );
    }

    #[test]
    fn series_equality_is_exact() {
        let mut reg = MetricsRegistry::new();
        reg.set("k", 42);
        let mut a = Sampler::new(5);
        let mut b = Sampler::new(5);
        a.record(5, &reg);
        b.record(5, &reg);
        assert_eq!(a.series(), b.series());
    }
}

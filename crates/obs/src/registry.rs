//! The metrics registry: named counter/gauge/histogram families with
//! Prometheus text exposition.
//!
//! The registry is a plain container — it does not sample anything by
//! itself. Backends keep their counters in the structs the test suites
//! already pin (`NodeStats`, `DriverMetrics`, ...) and *route* them
//! through a registry at scrape time via their `fill_registry` methods,
//! so the rendered page always byte-agrees with the in-process structs.
//! `add_*` accumulates (several hosts or handlers summing into one
//! family); `set_*` overwrites.
//!
//! Rendering follows the Prometheus text exposition format (version
//! 0.0.4): `# HELP` / `# TYPE` headers, one sample per line, histograms
//! as cumulative `_bucket{le="..."}` samples plus `_sum` and `_count`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sub-buckets per power of two. One fixed layout for every histogram, so
/// per-shard and per-node histograms merge exactly, bucket by bucket.
const SUB_BUCKETS: u64 = 8;
/// Total bucket count covering the full `u64` range.
const NUM_BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize; // exact for the first octave
    }
    let octave = 63 - v.leading_zeros() as u64;
    let offset = (v >> (octave.saturating_sub(3))) & (SUB_BUCKETS - 1);
    (octave * SUB_BUCKETS + offset) as usize
}

/// Largest value that lands in `bucket` (the Prometheus `le` bound).
fn bucket_upper(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_BUCKETS {
        return bucket;
    }
    let octave = bucket / SUB_BUCKETS;
    let offset = bucket % SUB_BUCKETS;
    let base = 1u64 << octave;
    let step = (base / SUB_BUCKETS).max(1);
    // Written to peak at exactly u64::MAX in the top octave, no overflow.
    base + offset * step + (step - 1)
}

fn bucket_midpoint(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_BUCKETS {
        return bucket;
    }
    let octave = bucket / SUB_BUCKETS;
    let offset = bucket % SUB_BUCKETS;
    let base = 1u64 << octave;
    let step = (base / SUB_BUCKETS).max(1);
    base + offset * step + step / 2
}

/// Fixed-footprint log-scale histogram (≤ ~9% relative quantile error,
/// 512 slots, full `u64` range). The simulator's delivery-latency tally
/// (`gossip_runtime::AsyncMetrics::latency`) is one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Inlined: the simulator records one latency per
    /// delivery through this.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v).min(NUM_BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Minimum recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile by cumulative bucket walk.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_midpoint(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (bucket-wise).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper bound, count)`, in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One sample value of a family.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Hist(Histogram),
}

impl Value {
    fn type_str(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Hist(_) => "histogram",
        }
    }
}

/// A metric family: one help string, one type, samples keyed by label set.
#[derive(Clone, Debug, PartialEq)]
struct Family {
    help: String,
    samples: BTreeMap<String, Value>,
}

/// The registry: metric families keyed by name. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

/// Render a label set as the `{k="v",...}` block (empty for no labels).
/// Labels are sorted by key so the same set always renders identically.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Label-value escaping per the 0.0.4 text format: backslash
        // first (so the other escapes don't double), then quote and
        // newline — a raw newline would split the sample line in two.
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// Insert one rendered `k="v"` pair into a rendered label block, keeping
/// the block sorted by label key. The split is escape-aware: commas
/// inside quoted (possibly escaped) label values never count as pair
/// separators, so hostile label values survive the round trip.
fn insert_label_pair(block: &str, pair: &str) -> String {
    if block.is_empty() {
        return format!("{{{pair}}}");
    }
    let inner = &block[1..block.len() - 1];
    let mut pairs: Vec<&str> = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in inner.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pairs.push(&inner[start..]);
    // `k="v"` chunks order by key first (keys are never escaped), which
    // is the order label_key produces.
    let at = pairs.partition_point(|existing| *existing < pair);
    pairs.insert(at, pair);
    format!("{{{}}}", pairs.join(","))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// True when no family has been touched.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn upsert(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        fresh: Value,
        combine: impl FnOnce(&mut Value, Value),
    ) {
        let family = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                samples: BTreeMap::new(),
            });
        match family.samples.entry(label_key(labels)) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(fresh);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                assert_eq!(
                    slot.get().type_str(),
                    fresh.type_str(),
                    "metric {name} used with two different types"
                );
                combine(slot.get_mut(), fresh);
            }
        }
    }

    /// Add `v` to a monotonic counter (creating it at `v`).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(name, help, labels, Value::Counter(v), |cur, add| {
            if let (Value::Counter(c), Value::Counter(a)) = (cur, add) {
                *c += a;
            }
        });
    }

    /// Add `v` to a gauge (creating it at `v`).
    pub fn add_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.upsert(name, help, labels, Value::Gauge(v), |cur, add| {
            if let (Value::Gauge(g), Value::Gauge(a)) = (cur, add) {
                *g += a;
            }
        });
    }

    /// Overwrite a gauge with `v`.
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.upsert(name, help, labels, Value::Gauge(v), |cur, new| *cur = new);
    }

    /// Record one sample into a histogram family (creating it empty).
    pub fn observe(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        let mut h = Histogram::new();
        h.record(v);
        self.merge_histogram(name, help, labels, &h);
    }

    /// Merge a pre-built histogram into a histogram family.
    pub fn merge_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
    ) {
        self.upsert(name, help, labels, Value::Hist(h.clone()), |cur, new| {
            if let (Value::Hist(c), Value::Hist(n)) = (cur, new) {
                c.merge(&n);
            }
        });
    }

    /// Merge another registry: counters and gauges add, histograms merge.
    /// This is the per-shard / per-host aggregation path.
    pub fn merge(&mut self, other: &Registry) {
        for (name, family) in &other.families {
            let dst = self.families.entry(name.clone()).or_insert_with(|| Family {
                help: family.help.clone(),
                samples: BTreeMap::new(),
            });
            for (labels, value) in &family.samples {
                match dst.samples.entry(labels.clone()) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        match (slot.get_mut(), value) {
                            (Value::Counter(c), Value::Counter(a)) => *c += a,
                            (Value::Gauge(g), Value::Gauge(a)) => *g += a,
                            (Value::Hist(h), Value::Hist(o)) => h.merge(o),
                            _ => panic!("metric {name} used with two different types"),
                        }
                    }
                }
            }
        }
    }

    /// Merge another registry with one extra label attached to every
    /// incoming sample — the per-node aggregation path of a multi-node
    /// host: each member fills its own registry label-free, and the
    /// cluster page folds them together as `...{node="3"}` so per-node
    /// series stay distinguishable. Same combine semantics as
    /// [`merge`](Registry::merge) (counters and gauges add, histograms
    /// merge), so calling it twice with the same label value accumulates.
    ///
    /// The label is *added* to whatever labels a sample already carries,
    /// inserted in sorted position; `label.0` should not collide with an
    /// existing label key on the same sample (the rendered block would
    /// carry the key twice).
    pub fn merge_labelled(&mut self, other: &Registry, label: (&str, &str)) {
        // Render the extra pair once, exactly as label_key would.
        let rendered = label_key(&[label]);
        let pair = &rendered[1..rendered.len() - 1]; // `k="v"` without braces
        for (name, family) in &other.families {
            let dst = self.families.entry(name.clone()).or_insert_with(|| Family {
                help: family.help.clone(),
                samples: BTreeMap::new(),
            });
            for (labels, value) in &family.samples {
                match dst.samples.entry(insert_label_pair(labels, pair)) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        match (slot.get_mut(), value) {
                            (Value::Counter(c), Value::Counter(a)) => *c += a,
                            (Value::Gauge(g), Value::Gauge(a)) => *g += a,
                            (Value::Hist(h), Value::Hist(o)) => h.merge(o),
                            _ => panic!("metric {name} used with two different types"),
                        }
                    }
                }
            }
        }
    }

    /// Read back a counter (tests and the status page use this).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.samples.get(&label_key(labels))? {
            Value::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Read back a gauge.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name)?.samples.get(&label_key(labels))? {
            Value::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Every counter sample as `(family, rendered label block, value)`,
    /// in name order. What a drift checker wants: "every monotonic
    /// counter" without naming each family up front.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.families.iter().flat_map(|(name, family)| {
            family
                .samples
                .iter()
                .filter_map(|(labels, value)| match value {
                    Value::Counter(c) => Some((name.as_str(), labels.as_str(), *c)),
                    _ => None,
                })
        })
    }

    /// Every gauge sample, shaped like [`iter_counters`](Self::iter_counters).
    pub fn iter_gauges(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.families.iter().flat_map(|(name, family)| {
            family
                .samples
                .iter()
                .filter_map(|(labels, value)| match value {
                    Value::Gauge(g) => Some((name.as_str(), labels.as_str(), *g)),
                    _ => None,
                })
        })
    }

    /// Read back a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.families.get(name)?.samples.get(&label_key(labels))? {
            Value::Hist(h) => Some(h),
            _ => None,
        }
    }

    /// Render the whole registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let kind = family
                .samples
                .values()
                .next()
                .map(Value::type_str)
                .unwrap_or("untyped");
            let help = family.help.replace('\\', "\\\\").replace('\n', "\\n");
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in &family.samples {
                match value {
                    Value::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {c}");
                    }
                    Value::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {g}");
                    }
                    Value::Hist(h) => {
                        // Cumulative buckets; label blocks compose with le.
                        let inner = labels.trim_start_matches('{').trim_end_matches('}');
                        let prefix = if inner.is_empty() {
                            String::new()
                        } else {
                            format!("{inner},")
                        };
                        let mut cum = 0u64;
                        for (upper, count) in h.buckets() {
                            cum += count;
                            let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{upper}\"}} {cum}");
                        }
                        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_render() {
        let mut r = Registry::new();
        r.add_counter("a_total", "as", &[], 2);
        r.add_counter("a_total", "as", &[], 3);
        r.add_counter("b_total", "bs", &[("phase", "rumor")], 7);
        assert_eq!(r.counter_value("a_total", &[]), Some(5));
        assert_eq!(r.counter_value("b_total", &[("phase", "rumor")]), Some(7));
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 5"));
        assert!(text.contains("b_total{phase=\"rumor\"} 7"));
    }

    #[test]
    fn gauges_and_label_ordering() {
        let mut r = Registry::new();
        r.set_gauge("g", "a gauge", &[("b", "2"), ("a", "1")], 1.5);
        // Same set in the other order hits the same sample.
        r.add_gauge("g", "a gauge", &[("a", "1"), ("b", "2")], 0.5);
        assert_eq!(r.gauge_value("g", &[("b", "2"), ("a", "1")]), Some(2.0));
        assert!(r.render().contains("g{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn histogram_records_and_renders_cumulative_buckets() {
        let mut r = Registry::new();
        for v in [1u64, 1, 100, 10_000] {
            r.observe("lat_us", "latency", &[], v);
        }
        let h = r.histogram("lat_us", &[]).expect("histogram exists");
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10_102);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        let text = r.render();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_us_sum 10102"));
        assert!(text.contains("lat_us_count 4"));
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((900..=1000).contains(&p99), "p99 = {p99}");
        // Empty: every reading is zero, min included.
        let empty = Histogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.min(), 0);
    }

    #[test]
    fn bucket_upper_bounds_are_monotone_and_consistent() {
        // Buckets 8..23 are unreachable (values < 8 map to buckets 0..7
        // directly; values >= 8 start at octave 3 = bucket 24), so the
        // monotonicity contract covers the reachable buckets only.
        let mut last = None;
        for b in (0..SUB_BUCKETS as usize).chain(3 * SUB_BUCKETS as usize..NUM_BUCKETS) {
            let upper = bucket_upper(b);
            if let Some(prev) = last {
                assert!(upper > prev, "bucket {b} upper {upper} <= {prev}");
            }
            last = Some(upper);
            // The upper bound itself must land in its own bucket.
            assert_eq!(bucket_of(upper), b, "upper {upper} not in bucket {b}");
        }
        // And every value maps to a bucket whose bound covers it.
        for v in [0u64, 1, 7, 8, 9, 100, 1000, 65_000, 1 << 33, u64::MAX - 1] {
            assert!(bucket_upper(bucket_of(v)) >= v, "bound misses {v}");
        }
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = Registry::new();
        a.add_counter("c_total", "c", &[], 1);
        a.observe("h", "h", &[], 10);
        let mut b = Registry::new();
        b.add_counter("c_total", "c", &[], 2);
        b.add_gauge("g", "g", &[], 4.0);
        b.observe("h", "h", &[], 20);
        a.merge(&b);
        assert_eq!(a.counter_value("c_total", &[]), Some(3));
        assert_eq!(a.gauge_value("g", &[]), Some(4.0));
        assert_eq!(a.histogram("h", &[]).map(Histogram::count), Some(2));
        // Merging combines counts and keeps both extremes.
        let mut lo = Histogram::new();
        let mut hi = Histogram::new();
        lo.record(10);
        hi.record(1000);
        hi.record(2000);
        lo.merge(&hi);
        assert_eq!((lo.count(), lo.min(), lo.max()), (3, 10, 2000));
        // An empty histogram merges as a no-op.
        let before = lo.clone();
        lo.merge(&Histogram::new());
        assert_eq!(lo, before);
    }

    /// Undo 0.0.4 label-value escaping (the inverse of `label_key`), for
    /// the round-trip tests below.
    fn unescape(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        // Every 0.0.4 escape class at once, in orders designed to trip a
        // naive escaper: a backslash before an n, a quote inside text,
        // a raw newline, and a literal `\n` sequence.
        let hostile = [
            "back\\slash",
            "quo\"te",
            "new\nline",
            "literal\\nnot-a-newline",
            "\\\"\n",
            "plain",
        ];
        for value in hostile {
            let mut r = Registry::new();
            r.add_counter("m_total", "m", &[("v", value)], 1);
            let text = r.render();
            // The sample renders on exactly one line after its headers —
            // a raw newline in a label would break this.
            let sample = text
                .lines()
                .find(|l| l.starts_with("m_total{"))
                .expect("sample line rendered");
            assert!(sample.ends_with(" 1"), "sample intact: {sample:?}");
            // Round trip: un-escaping the rendered label value recovers
            // the original exactly.
            let rendered = sample
                .strip_prefix("m_total{v=\"")
                .and_then(|s| s.strip_suffix("\"} 1"))
                .expect("label block well-formed");
            assert_eq!(unescape(rendered), value, "round trip of {value:?}");
            // And the registry still finds the sample under the raw value.
            assert_eq!(r.counter_value("m_total", &[("v", value)]), Some(1));
        }
    }

    #[test]
    fn escaping_is_injective_across_confusable_values() {
        // `"a\nb"` (raw newline) and `"a\\nb"` (backslash + n) must render
        // differently, or scrapes would merge distinct series.
        let mut r = Registry::new();
        r.add_counter("m_total", "m", &[("v", "a\nb")], 1);
        r.add_counter("m_total", "m", &[("v", "a\\nb")], 2);
        assert_eq!(r.counter_value("m_total", &[("v", "a\nb")]), Some(1));
        assert_eq!(r.counter_value("m_total", &[("v", "a\\nb")]), Some(2));
        let text = r.render();
        assert!(text.contains("m_total{v=\"a\\nb\"} 1"));
        assert!(text.contains("m_total{v=\"a\\\\nb\"} 2"));
    }

    #[test]
    fn merge_labelled_splits_series_per_node() {
        let mut node0 = Registry::new();
        node0.add_counter("sent_total", "sends", &[], 5);
        node0.set_gauge("up", "upness", &[], 1.0);
        node0.observe("lat_us", "latency", &[], 10);
        let mut node1 = Registry::new();
        node1.add_counter("sent_total", "sends", &[], 7);

        let mut cluster = Registry::new();
        cluster.merge_labelled(&node0, ("node", "0"));
        cluster.merge_labelled(&node1, ("node", "1"));
        assert_eq!(
            cluster.counter_value("sent_total", &[("node", "0")]),
            Some(5)
        );
        assert_eq!(
            cluster.counter_value("sent_total", &[("node", "1")]),
            Some(7)
        );
        assert_eq!(cluster.gauge_value("up", &[("node", "0")]), Some(1.0));
        assert_eq!(
            cluster
                .histogram("lat_us", &[("node", "0")])
                .map(Histogram::count),
            Some(1)
        );
        // Re-merging the same node accumulates into the same series.
        cluster.merge_labelled(&node0, ("node", "0"));
        assert_eq!(
            cluster.counter_value("sent_total", &[("node", "0")]),
            Some(10)
        );
        let text = cluster.render();
        assert!(text.contains("sent_total{node=\"0\"} 10"));
        assert!(text.contains("sent_total{node=\"1\"} 7"));
    }

    #[test]
    fn merge_labelled_composes_with_existing_labels() {
        let mut per_node = Registry::new();
        per_node.add_counter("m_total", "m", &[("phase", "rumor")], 3);
        // A hostile value containing every separator the splitter must
        // not trip on: commas, quotes, backslashes, a newline.
        per_node.add_counter("m_total", "m", &[("v", "a,b\",c\\n,\nd")], 9);
        per_node.add_counter("m_total", "m", &[("zz", "9"), ("aa", "1")], 4);

        let mut cluster = Registry::new();
        cluster.merge_labelled(&per_node, ("node", "12"));
        assert_eq!(
            cluster.counter_value("m_total", &[("phase", "rumor"), ("node", "12")]),
            Some(3)
        );
        assert_eq!(
            cluster.counter_value("m_total", &[("v", "a,b\",c\\n,\nd"), ("node", "12")]),
            Some(9)
        );
        assert_eq!(
            cluster.counter_value("m_total", &[("zz", "9"), ("aa", "1"), ("node", "12")]),
            Some(4)
        );
        // The rendered block keeps keys sorted with `node` interleaved.
        assert!(cluster
            .render()
            .contains("m_total{aa=\"1\",node=\"12\",zz=\"9\"} 4"));
    }

    #[test]
    #[should_panic(expected = "two different types")]
    fn mixing_types_panics() {
        let mut r = Registry::new();
        r.add_counter("x", "x", &[], 1);
        r.set_gauge("x", "x", &[], 1.0);
    }
}

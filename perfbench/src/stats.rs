//! Order statistics, digests and process probes shared by every workload.

use serde::Serialize;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A nearest-rank percentile together with how many samples lie above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile asked for.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `pct` of `v`.
pub fn percentile(v: &[f64], pct: f64) -> Tail {
    let s = sorted(v);
    if s.is_empty() {
        return Tail {
            pct,
            value: 0.0,
            beyond: 0,
        };
    }
    let rank = ((pct / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(s.len());
    Tail {
        pct,
        value: s[rank - 1],
        beyond: s.len() - rank,
    }
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it (the median when even that has fewer).
pub fn tail_rule(v: &[f64]) -> Tail {
    for pct in [99.9, 99.0, 95.0, 90.0, 80.0] {
        let t = percentile(v, pct);
        if t.beyond >= 10 {
            return t;
        }
    }
    percentile(v, 50.0)
}

/// The largest median among groups of samples: `v[i]` belongs to group
/// `g[i]`. Returns that median, its group and the group's sample count.
pub fn slowest_group(v: &[f64], g: &[u64]) -> (f64, u64, usize) {
    let mut groups: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&x, &k) in v.iter().zip(g) {
        groups.entry(k).or_default().push(x);
    }
    groups
        .into_iter()
        .map(|(k, xs)| (median(&xs), k, xs.len()))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((0.0, 0, 0))
}

/// FNV-1a over the compact JSON rendering of `x` — the same hash
/// `evo_core::record::state_digest` applies to final states, here applied
/// to record streams.
pub fn fnv_json<T: Serialize + ?Sized>(x: &T) -> u64 {
    let json = serde_json::to_string(x).expect("records serialise");
    fnv(json.as_bytes())
}

/// FNV-1a over raw bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in KiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Nanoseconds as `f64` for statistics.
pub fn ns(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = percentile(&v, 90.0);
        assert_eq!((t.value, t.beyond), (90.0, 10));
        assert_eq!(tail_rule(&v).pct, 90.0);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_rule(&big).pct, 99.0);
        assert_eq!(tail_rule(&[1.0, 2.0]).pct, 50.0);
        let (v, k, n) = slowest_group(&[5.0, 1.0, 9.0, 2.0, 4.0], &[0, 1, 0, 1, 0]);
        assert_eq!((v, k, n), (5.0, 0, 3));
    }
}

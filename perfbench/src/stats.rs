//! Quantiles: exact ones over the benchmark's own samples, and
//! server-side ones over the difference of two `/metrics` scrapes.

use atpm_obs::Scrape;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Cumulative `(le, count)` bucket lines of histogram `name` whose other
/// labels equal `labels`, sorted by bound.
fn buckets(scrape: &Scrape, name: &str, labels: &[(&str, &str)]) -> Vec<(f64, f64)> {
    let bucket_name = format!("{name}_bucket");
    let mut out: Vec<(f64, f64)> = scrape
        .samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter_map(|s| {
            let mut le = None;
            let mut rest = 0;
            for (k, v) in &s.labels {
                if k == "le" {
                    le = Some(if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse().ok()?
                    });
                } else if labels.iter().any(|(lk, lv)| lk == k && lv == v) {
                    rest += 1;
                } else {
                    return None;
                }
            }
            (rest == labels.len()).then_some((le?, s.value))
        })
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Observations histogram `name{labels}` gained between two scrapes.
pub fn delta_count(before: &Scrape, after: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
    let count = |s: &Scrape| buckets(s, name, labels).last().map_or(0.0, |&(_, c)| c);
    count(after) - count(before)
}

/// The `q`-quantile, in seconds, of the observations histogram
/// `name{labels}` gained between two scrapes of one server. Histogram
/// buckets are cumulative counters, so the per-bucket difference is the
/// exact histogram of the interval. Within the bucket holding the rank the
/// value is interpolated linearly, as Prometheus' `histogram_quantile`
/// does. 0 when the interval saw no observations.
pub fn delta_quantile(
    before: &Scrape,
    after: &Scrape,
    name: &str,
    labels: &[(&str, &str)],
    q: f64,
) -> f64 {
    let old = buckets(before, name, labels);
    let new = buckets(after, name, labels);
    let delta: Vec<(f64, f64)> = new
        .iter()
        .map(|&(le, c)| {
            let prev = old
                .iter()
                .find(|&&(ole, _)| ole == le)
                .map_or(0.0, |&(_, oc)| oc);
            (le, c - prev)
        })
        .collect();
    let total = delta.last().map_or(0.0, |&(_, c)| c);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total;
    let mut lower = (0.0, 0.0);
    for &(le, cum) in &delta {
        if cum >= rank && cum > lower.1 {
            if !le.is_finite() {
                return lower.0;
            }
            let frac = (rank - lower.1) / (cum - lower.1);
            return lower.0 + (le - lower.0) * frac;
        }
        lower = (le, cum);
    }
    lower.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used, all threads (living and exited), in
/// seconds: `CLOCK_PROCESS_CPUTIME_ID`. Time the hypervisor steals from
/// the machine is not counted, unlike wall time.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn delta_quantile_sees_only_the_interval() {
        let before = Scrape::parse(
            "h_bucket{le=\"1\"} 100\nh_bucket{le=\"2\"} 100\nh_bucket{le=\"+Inf\"} 100\n",
        )
        .unwrap();
        let after = Scrape::parse(
            "h_bucket{le=\"1\"} 100\nh_bucket{le=\"2\"} 110\nh_bucket{le=\"+Inf\"} 110\n",
        )
        .unwrap();
        // All 10 new observations sit in (1, 2]; the since-boot median
        // would read from the first bucket instead.
        assert_eq!(delta_quantile(&before, &after, "h", &[], 0.5), 1.5);
        assert_eq!(delta_count(&before, &after, "h", &[]), 10.0);
    }
}

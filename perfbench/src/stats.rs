//! Small numeric and host helpers: quantiles, the result line, the host
//! fingerprint and peak resident memory.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `NaN` when there are no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median wall time of `reps` calls to `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }

    /// The one-line JSON result the benchmark ends with.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives (JSON has no NaN or infinity: those become `null`).
fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// What the results depend on besides the code: core count, SIMD tier,
/// the thread-count override, and this host's memory bandwidth measured
/// in the same run.
pub struct Host {
    pub nproc: usize,
    pub simd: &'static str,
    pub rayon_threads: String,
    pub memcpy_gb_s: f64,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: swift::tensor::simd::active_tier().name(),
            rayon_threads: std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
            memcpy_gb_s: memcpy_gb_s(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# host nproc={} simd={} RAYON_NUM_THREADS={} memcpy_gb_s={:.2}",
            self.nproc, self.simd, self.rayon_threads, self.memcpy_gb_s
        )
    }

    /// Achieved bandwidth of moving `bytes` in `ms`, as a share of memcpy.
    pub fn memcpy_share(&self, bytes: usize, ms: f64) -> f64 {
        bytes as f64 / (ms * 1e-3) / 1e9 / self.memcpy_gb_s
    }
}

/// Median bandwidth of copying a 32 MiB buffer, in GB/s.
fn memcpy_gb_s() -> f64 {
    const LEN: usize = 32 << 20;
    let src = vec![1u8; LEN];
    let mut dst = vec![0u8; LEN];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let ms = median_ms(9, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    LEN as f64 / (ms * 1e-3) / 1e9
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.234_567_891_2, "ms");
        m.push("n", 3.0, "count");
        assert_eq!(
            m.result_line(true, 2, 0),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.2345678912, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}

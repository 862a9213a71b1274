//! Sample summaries and the process CPU clock.

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so spreads computed here match the ones
/// the driver computes. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// One timing metric as the choosing-metrics guide wants it reported:
/// median, quartiles, sample count, and the highest percentile that still
/// has at least ten samples beyond it (none below twenty samples).
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(percentile, value)`.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        let n = values.len();
        let tail = (n >= 20).then(|| {
            let mut v = values.to_vec();
            v.sort_by(f64::total_cmp);
            let below = n - 10;
            ((100 * below / n) as u32, v[below - 1])
        });
        Summary { n, q1, median, q3, tail }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.3} q1 {:.3} q3 {:.3} n {}", self.median, self.q1, self.q3, self.n)?;
        if let Some((p, v)) = self.tail {
            write!(f, " p{p} {v:.3}")?;
        }
        Ok(())
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) this process has consumed, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target this benchmark builds for) and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail, Some((60, 15.0)));
        assert_eq!(Summary::of(&v[..19]).tail, None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
    }
}

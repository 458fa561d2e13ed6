//! Offline API-subset shim of `criterion` 0.5 (see `shims/README.md`).
//!
//! Implements the harness surface the workspace's benches use —
//! `criterion_group!`/`criterion_main!` (both forms), benchmark groups,
//! `iter`/`iter_batched`, throughput annotation — with a simple but
//! honest measurement loop: warm up, calibrate an iteration count that
//! fills the configured measurement time, then report the mean.
//!
//! Extras over the real crate (used by this repo's own bench mains):
//! [`Criterion::take_results`] exposes the collected measurements so a
//! bench target can persist machine-readable summaries.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Units for reporting per-iteration throughput.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Bytes(u64),
    BytesDecimal(u64),
    Elements(u64),
}

/// Batch sizing hint for `iter_batched`; the shim times each routine call
/// individually, so the variants only affect nothing but API fit.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// One completed measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full id, `group/name` when run under a group.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations actually timed.
    pub iters: u64,
    /// Throughput annotation in effect, if any.
    pub throughput: Option<Throughput>,
}

#[derive(Clone, Copy, Debug)]
struct Config {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_size: 20,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
        }
    }
}

/// The benchmark harness handle.
#[derive(Default)]
pub struct Criterion {
    config: Config,
    filter: Option<String>,
    test_mode: bool,
    results: Vec<BenchResult>,
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up_time = d;
        self
    }

    /// Parses the CLI arguments cargo passes to a `harness = false` bench:
    /// `--bench` selects normal mode, `--test` a one-iteration smoke mode,
    /// and the first free-standing argument filters benchmark ids.
    pub fn configure_from_args(mut self) -> Self {
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--bench" => {}
                "--test" => self.test_mode = true,
                s if s.starts_with('-') => {}
                s => {
                    if self.filter.is_none() {
                        self.filter = Some(s.to_string());
                    }
                }
            }
        }
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(id, None, f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Drains the measurements collected so far (shim extension).
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }

    fn run_one<F>(&mut self, id: String, throughput: Option<Throughput>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            config: self.config,
            test_mode: self.test_mode,
            total: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let ns = if b.iters == 0 {
            0.0
        } else {
            b.total.as_nanos() as f64 / b.iters as f64
        };
        let rate = throughput.map(|t| match t {
            Throughput::Bytes(n) | Throughput::BytesDecimal(n) => {
                format!(
                    "  thrpt: {:>9.3} GiB/s",
                    n as f64 / ns * 1e9 / (1u64 << 30) as f64
                )
            }
            Throughput::Elements(n) => {
                format!("  thrpt: {:>9.0} elem/s", n as f64 / ns * 1e9)
            }
        });
        println!(
            "bench: {id:<48} time: {}{}",
            format_ns(ns),
            rate.unwrap_or_default()
        );
        self.results.push(BenchResult {
            id,
            ns_per_iter: ns,
            iters: b.iters,
            throughput,
        });
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:>9.3} s/iter ", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:>9.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:>9.3} µs/iter", ns / 1e3)
    } else {
        format!("{ns:>9.1} ns/iter")
    }
}

/// A named group sharing throughput annotations.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.config.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.config.measurement_time = d;
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.config.warm_up_time = d;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        let throughput = self.throughput;
        self.criterion.run_one(id, throughput, f);
        self
    }

    pub fn finish(self) {}
}

/// Passed to the measured closure; `iter`/`iter_batched` do the timing.
pub struct Bencher {
    config: Config,
    test_mode: bool,
    total: Duration,
    iters: u64,
}

impl Bencher {
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            self.total = Duration::from_nanos(1);
            self.iters = 1;
            return;
        }
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let est = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let target = (self.config.measurement_time.as_secs_f64() / est.max(1e-9)) as u64;
        let iters = target
            .clamp(1, 1_000_000_000)
            .max(self.config.sample_size as u64);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.total = start.elapsed();
        self.iters = iters;
    }

    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.test_mode {
            let input = setup();
            black_box(routine(input));
            self.total = Duration::from_nanos(1);
            self.iters = 1;
            return;
        }
        // Setup is excluded from timing by timing each call individually.
        let warm_start = Instant::now();
        let mut timed = Duration::ZERO;
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warm_up_time || warm_iters == 0 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            timed += t.elapsed();
            warm_iters += 1;
        }
        let est = (timed.as_secs_f64() / warm_iters as f64).max(1e-9);
        let target = (self.config.measurement_time.as_secs_f64() / est) as u64;
        let iters = target
            .clamp(1, 1_000_000_000)
            .max(self.config.sample_size as u64);
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total += t.elapsed();
        }
        self.total = total;
        self.iters = iters;
    }
}

/// Builds a group-runner function from bench target functions. Supports
/// both the positional and the `name/config/targets` forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        c.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let r = c.take_results();
        assert_eq!(r.len(), 1);
        assert!(r[0].ns_per_iter > 0.0);
        assert!(r[0].iters >= 1);
    }

    #[test]
    fn groups_prefix_ids_and_filter_applies() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        c.filter = Some("keep".into());
        {
            let mut g = c.benchmark_group("grp");
            g.throughput(Throughput::Elements(10));
            g.bench_function("keep_me", |b| b.iter(|| 1 + 1));
            g.bench_function("skip_me", |b| b.iter(|| 1 + 1));
            g.finish();
        }
        let r = c.take_results();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, "grp/keep_me");
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        assert_eq!(c.take_results().len(), 1);
    }
}

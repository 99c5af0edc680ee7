//! The repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- regen-refs
//! ```
//!
//! Runs one workload (`reproduce-all` or `sampled-paper`, see
//! `README.md`) from the repository root for
//! about `--seconds` seconds after its set-up, checks every result against
//! the committed oracle references, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the result's stamp (commit, source
//! digest, host, seed, environment). Both, plus the trace's spans, are
//! also written to `<target-dir>/perfbench-out/`.

mod layers;
mod metrics;
mod paper;
mod refs;
mod reproduce;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use isf_obs::Json;

use crate::layers::Pass;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["reproduce-all", "sampled-paper"];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget after set-up.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_owned()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".to_owned()),
            },
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// splitmix64: the seed → input stream of every workload.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Cargo's target directory: `CARGO_TARGET_DIR`, else the workspace's.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Where results, traces and harness outputs go.
pub fn out_dir() -> PathBuf {
    target_dir().join("perfbench-out")
}

/// Builds the `isf-harness` binary from the repository's workspace and
/// returns its path. Cheap when it is up to date.
pub fn build_harness() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "isf-harness", "--bin", "isf-harness"])
        .env("CARGO_TARGET_DIR", target_dir())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building isf-harness failed ({status})"));
    }
    Ok(target_dir().join("release").join("isf-harness"))
}

/// The measurement budget: passes keep starting while another one of the
/// last one's length still fits.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// Starts the clock on `seconds`.
    pub fn start(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
        }
    }

    /// Whether a pass lasting `pass_s` seconds still fits.
    pub fn fits(&self, pass_s: f64) -> bool {
        self.start.elapsed() + Duration::from_secs_f64(pass_s) <= self.limit
    }
}

/// A workload: a set-up round before every timed pass. Errors are
/// failures to run at all (a child process that cannot start); wrong
/// results are counted in the pass instead.
pub trait Workload {
    /// One set-up round, replacing the inputs the passes run on; returns
    /// its wall seconds.
    fn setup(&mut self, tracer: &mut Tracer) -> Result<f64, String>;

    /// One timed pass; `profiled` runs the engine through its dispatch
    /// profiler.
    fn pass(&mut self, tracer: &mut Tracer, profiled: bool) -> Result<Pass, String>;
}

/// The pass quantile the end-to-end timings are read at. The host's speed
/// drifts by up to ~50% for seconds to minutes at a time and noise only
/// ever adds time, so the fastest tenth of a run's passes agrees between
/// runs far better than the median does (see `README.md`, "Steadiness").
pub const CALM: f64 = 0.1;

/// The passes of one run.
#[derive(Default)]
pub struct Runs {
    /// Wall seconds of each untraced set-up round.
    pub setup_s: Vec<f64>,
    /// Passes with tracing off (end-to-end metrics).
    pub untraced: Vec<Pass>,
    /// The traced pass (`--trace 1`).
    pub traced: Option<Pass>,
    /// The profiled pass (`--trace 1`).
    pub profiled: Option<Pass>,
}

impl Runs {
    fn all(&self) -> impl Iterator<Item = &Pass> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .chain(&self.profiled)
    }

    /// Operations attempted over every pass.
    pub fn attempted(&self) -> u64 {
        self.all().map(|p| p.attempted).sum()
    }

    /// Operations failed over every pass.
    pub fn failed(&self) -> u64 {
        self.all().map(|p| p.failed).sum()
    }

    /// Median over untraced passes of `f`.
    pub fn median(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        stats::median(&self.untraced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// The time `f` of a calm pass: its [`CALM`] quantile over the
    /// untraced passes.
    pub fn calm_time(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        stats::quantile(&self.untraced.iter().map(f).collect::<Vec<_>>(), CALM).unwrap_or(0.0)
    }

    /// The rate `f` of a calm pass: its `1 − CALM` quantile.
    pub fn calm_rate(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        stats::quantile(&self.untraced.iter().map(f).collect::<Vec<_>>(), 1.0 - CALM).unwrap_or(0.0)
    }

    /// The 90th percentile over a pass's operations of each operation's
    /// calm time. Operations are matched by position, over the passes
    /// that ran all of them.
    fn op_p90_s(&self) -> f64 {
        let ops = self
            .untraced
            .iter()
            .map(|p| p.op_s.len())
            .max()
            .unwrap_or(0);
        let calm: Vec<f64> = (0..ops)
            .filter_map(|i| {
                let times: Vec<f64> = self
                    .untraced
                    .iter()
                    .filter(|p| p.op_s.len() == ops)
                    .map(|p| p.op_s[i])
                    .collect();
                stats::quantile(&times, CALM)
            })
            .collect();
        stats::p90(&calm).unwrap_or(0.0)
    }

    /// The end-to-end metrics every workload derives the same way: pass
    /// figures of a calm pass, the operations' 90th percentile, and the
    /// median set-up round.
    pub fn end_to_end(&self, peak_rss_mib: f64) -> Values {
        Values::from([
            ("wall_s", self.calm_time(|p| p.wall)),
            ("cpu_s", self.calm_time(|p| p.cpu)),
            (
                "sim_mips",
                self.calm_rate(|p| p.instructions as f64 / p.exec_s) / 1e6,
            ),
            (
                "modules_per_s",
                self.calm_rate(|p| p.modules as f64 / p.pipeline_s),
            ),
            ("op_p90_ms", self.op_p90_s() * 1e3),
            ("setup_s", stats::median(&self.setup_s).unwrap_or(0.0)),
            ("peak_rss_mib", peak_rss_mib),
        ])
    }

    /// The run's outcome: failure counts over every pass, `values`, and
    /// the raw figures of the untraced rounds.
    pub fn into_measured(self, values: Values) -> Measured {
        let passes = self
            .untraced
            .iter()
            .zip(&self.setup_s)
            .map(|(p, &setup_s)| {
                Json::obj([
                    ("setup_s", setup_s.into()),
                    ("wall_s", p.wall.into()),
                    ("cpu_s", p.cpu.into()),
                    ("exec_s", p.exec_s.into()),
                    ("pipeline_s", p.pipeline_s.into()),
                    ("instructions", p.instructions.into()),
                    (
                        "op_s",
                        Json::Arr(p.op_s.iter().map(|&s| s.into()).collect()),
                    ),
                ])
            })
            .collect();
        Measured {
            attempted: self.attempted(),
            failed: self.failed(),
            values,
            passes: Json::Arr(passes),
        }
    }

    /// The benchmark's own layer: tracing cost and the failure share.
    pub fn bench_values(&self, values: &mut Values) {
        if let Some(traced) = &self.traced {
            values.insert(
                "bench.tracing_overhead_s",
                traced.wall - self.median(|p| p.wall),
            );
        }
        values.insert(
            "failed_frac",
            self.failed() as f64 / self.attempted().max(1) as f64,
        );
    }
}

/// Runs `w`'s rounds of set-up + timed pass while the budget lasts. Set-up
/// is cheap next to a pass; repeating it spreads its samples over the
/// whole run. With tracing on, the first round is followed by a traced
/// set-up, a traced pass and a profiled pass.
pub fn drive(w: &mut impl Workload, seconds: f64, tracer: &mut Tracer) -> Result<Runs, String> {
    let budget = Budget::start(seconds);
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let mut runs = Runs::default();
    let mut pass_no = 1;
    while runs.untraced.last().is_none_or(|p| budget.fits(p.wall)) {
        tracer.set_pass(pass_no);
        runs.setup_s.push(w.setup(tracer)?);
        runs.untraced.push(w.pass(tracer, false)?);
        pass_no += 1;
        if traced && runs.traced.is_none() {
            tracer.set_enabled(true);
            tracer.set_pass(0);
            let span = tracer.begin("setup");
            w.setup(tracer)?;
            tracer.end(span);
            tracer.set_pass(pass_no);
            runs.traced = Some(w.pass(tracer, false)?);
            tracer.set_enabled(false);
            runs.profiled = Some(w.pass(tracer, true)?);
            pass_no += 2;
        }
    }
    Ok(runs)
}

/// One workload's outcome.
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// Every metric of the mode that ran.
    pub values: Values,
    /// The untraced rounds' raw figures, for the result file.
    pub passes: Json,
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Result<Measured, String> {
    match args.workload.as_str() {
        "reproduce-all" => reproduce::run(args, tracer),
        "sampled-paper" => paper::run(args, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn regen_refs() -> Result<(), String> {
    paper::regen_refs()?;
    reproduce::regen_refs()
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let cleared = sys::pin_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("regen-refs") {
        return match regen_refs() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        return fail(&format!("{}: {e}", out_dir().display()));
    }
    let mut tracer = Tracer::new(args.trace);
    let measured = match run_workload(&args, &mut tracer) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        debug_assert!(metrics::valid_name(name));
        let Some(&value) = measured.values.get(name) else {
            return fail(&format!(
                "workload {} did not measure `{name}`",
                args.workload
            ));
        };
        metrics.push((
            (*name).to_owned(),
            Json::obj([("value", value.into()), ("unit", (*unit).into())]),
        ));
    }
    let result = Json::obj([
        ("correct", (measured.failed == 0).into()),
        ("attempted", measured.attempted.into()),
        ("failed", measured.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    let stamp = sys::stamp(&args.workload, args.seed, args.trace, &cleared);
    let record = Json::obj([
        ("stamp", stamp.clone()),
        ("result", result.clone()),
        ("passes", measured.passes),
        ("spans", tracer.spans_json()),
    ]);
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, format!("{record}\n")) {
        return fail(&format!("{}: {e}", file.display()));
    }
    println!("{}", Json::obj([("stamp", stamp)]));
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload sampled-paper --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sampled-paper", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload sampled-paper --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn end_to_end_figures_come_from_calm_passes() {
        let pass = |wall: f64, op_s: Vec<f64>| Pass {
            wall,
            cpu: wall,
            instructions: 1_000_000,
            exec_s: wall,
            modules: 2,
            pipeline_s: wall,
            op_s,
            ..Pass::default()
        };
        let mut runs = Runs::default();
        for i in 0..11 {
            let slow = f64::from(i);
            runs.untraced
                .push(pass(1.0 + slow, vec![0.1 + slow, 0.2 + slow]));
        }
        // A failed pass that ran fewer operations is left out of op_p90.
        runs.untraced.push(pass(50.0, vec![0.0]));
        runs.setup_s = vec![3.0, 1.0, 2.0];
        let v = runs.end_to_end(0.0);
        assert!((v["modules_per_s"] - 2.0 / 2.1).abs() < 0.1);
        assert!((v["wall_s"] - 2.1).abs() < 1e-9, "{}", v["wall_s"]);
        assert!(
            (v["sim_mips"] - 1.0 / 2.1).abs() < 0.05,
            "{}",
            v["sim_mips"]
        );
        assert!((v["op_p90_ms"] - 1190.0).abs() < 1e-6, "{}", v["op_p90_ms"]);
        assert_eq!(v["setup_s"], 2.0);
    }

    #[test]
    fn seeded_shuffles_repeat() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}

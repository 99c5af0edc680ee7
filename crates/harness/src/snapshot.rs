//! The `bench-snapshot` subcommand: a dated, machine-readable performance
//! snapshot (`BENCH_<date>.json`) for tracking the harness's throughput
//! over time.
//!
//! One sample per benchmark of the suite: the uninstrumented baseline,
//! a Full-Duplication run with both example instrumentations at a fixed
//! counter interval, and the wall-clock throughput of that run. Simulated
//! quantities are deterministic; wall-clock fields respect the emitter's
//! redaction mode so tests can pin the deterministic remainder.
//!
//! The `profile` section tracks the self-profiling subsystem itself:
//! per-benchmark fusion coverage (deterministic) and the wall time of the
//! profiled fused engine on the dispatch benchmarks, so a regression in
//! the [`OpProfile`] sink's overhead shows up in the dated baselines.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use isf_core::{Options, Strategy};
use isf_exec::{
    run_naive, run_prepared, run_prepared_profiled, FuseMode, OpProfile, PreparedModule, Trigger,
    VmConfig,
};
use isf_obs::{emit, Json};

use crate::runner::{
    cell, fusion_coverage, instrument, par_cells, prepare_suite, run_module, FusionCoverage,
    Harness, Kinds,
};
use crate::Scale;

/// The sample interval every snapshot run uses, so snapshots taken on
/// different days measure the same work.
pub const SNAPSHOT_INTERVAL: u64 = 499;

/// One benchmark's snapshot sample.
#[derive(Clone, Debug)]
pub struct BenchSample {
    /// Benchmark name.
    pub name: &'static str,
    /// Simulated cycles of the uninstrumented baseline.
    pub baseline_cycles: u64,
    /// Simulated cycles of the instrumented, sampled run.
    pub instrumented_cycles: u64,
    /// Overhead of that run over the baseline, percent.
    pub overhead_pct: f64,
    /// Samples taken by the run.
    pub samples: u64,
    /// Instructions interpreted by the run.
    pub instructions: u64,
    /// Wall time of the instrumented run, nanoseconds.
    pub wall_ns: u64,
    /// Interpreted instructions per wall-clock microsecond.
    pub mips: f64,
}

/// Measures the whole suite at the harness's scale, one cell per
/// benchmark.
///
/// # Panics
///
/// Panics if any benchmark fails to prepare or run — a snapshot of a
/// partially failed suite would silently skew the recorded baselines.
pub fn collect(h: &Harness) -> Vec<BenchSample> {
    let suite = prepare_suite(h);
    if let Some(e) = suite.errors.first() {
        panic!("bench-snapshot: cell {e}");
    }
    par_cells(
        h,
        suite
            .benches
            .iter()
            .map(|b| {
                cell(format!("snapshot/{}", b.name), move || {
                    let (module, _, _) = instrument(
                        &b.module,
                        Kinds::Both,
                        &Options::new(Strategy::FullDuplication),
                    );
                    let start = Instant::now();
                    let o = run_module(
                        h,
                        &module,
                        Trigger::Counter {
                            interval: SNAPSHOT_INTERVAL,
                        },
                    );
                    let wall = start.elapsed();
                    let secs = wall.as_secs_f64();
                    BenchSample {
                        name: b.name,
                        baseline_cycles: b.baseline.cycles,
                        instrumented_cycles: o.cycles,
                        overhead_pct: o.overhead_vs(&b.baseline),
                        samples: o.samples_taken,
                        instructions: o.instructions,
                        wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                        mips: if secs > 0.0 {
                            o.instructions as f64 / 1e6 / secs
                        } else {
                            0.0
                        },
                    }
                })
            })
            .collect(),
    )
}

/// The benchmarks the engine-ablation samples compare; `compress` is the
/// paper's headline workload, `mtrt` the call-dense counterweight.
pub const DISPATCH_BENCHES: [&str; 2] = ["compress", "mtrt"];

/// One benchmark's engine-ablation sample: the same uninstrumented run
/// under the fused prepared engine, the unfused prepared engine, and the
/// naive tree-walking reference.
#[derive(Clone, Debug)]
pub struct DispatchSample {
    /// Benchmark name.
    pub name: &'static str,
    /// Wall time of the superinstruction-fused prepared run, nanoseconds.
    pub fused_ns: u64,
    /// Wall time of the unfused prepared run, nanoseconds.
    pub unfused_ns: u64,
    /// Wall time of the naive reference run, nanoseconds.
    pub naive_ns: u64,
}

/// Measures the engine ablation on [`DISPATCH_BENCHES`] at the harness's
/// scale: one timed run per engine per benchmark. All three engines
/// produce the identical outcome; only the wall clock differs.
///
/// # Panics
///
/// Panics if a benchmark is missing from the suite or a run traps — the
/// dispatch baselines would otherwise silently vanish from the snapshot.
pub fn dispatch_samples(h: &Harness) -> Vec<DispatchSample> {
    let suite = prepare_suite(h);
    let cfg = VmConfig::default();
    DISPATCH_BENCHES
        .iter()
        .map(|&name| {
            let b = suite
                .benches
                .iter()
                .find(|b| b.name == name)
                .unwrap_or_else(|| panic!("bench-snapshot: `{name}` missing from the suite"));
            let fused = PreparedModule::prepare_with(&b.module, &cfg.cost, FuseMode::Fuse);
            let unfused = PreparedModule::prepare_with(&b.module, &cfg.cost, FuseMode::Off);
            let clock = |r: &mut dyn FnMut()| {
                let start = Instant::now();
                r();
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            };
            DispatchSample {
                name: b.name,
                fused_ns: clock(&mut || {
                    run_prepared(&fused, &cfg).expect("benchmarks do not trap");
                }),
                unfused_ns: clock(&mut || {
                    run_prepared(&unfused, &cfg).expect("benchmarks do not trap");
                }),
                naive_ns: clock(&mut || {
                    run_naive(&b.module, &cfg).expect("benchmarks do not trap");
                }),
            }
        })
        .collect()
}

/// One benchmark's self-profiling sample: the wall time of the same
/// fused run under the profiled engine (so the dated snapshots track the
/// [`OpProfile`] sink's dispatch overhead alongside the engines it
/// instruments) and the fusion coverage the profile observed.
#[derive(Clone, Debug)]
pub struct ProfileSample {
    /// Benchmark name.
    pub name: &'static str,
    /// Wall time of the profiled fused run, nanoseconds.
    pub profiled_ns: u64,
    /// Percentage of dynamic instructions executed inside a fused
    /// superinstruction.
    pub coverage_pct: f64,
}

/// Times the profiled fused engine on [`DISPATCH_BENCHES`] —
/// the self-profiling counterpart of [`dispatch_samples`], sharing its
/// workload so `profiled_ns / fused_ns` is the sink's overhead.
///
/// # Panics
///
/// Panics if a benchmark is missing from the suite or a run traps, for
/// the same reason [`dispatch_samples`] does.
pub fn profile_samples(h: &Harness) -> Vec<ProfileSample> {
    let suite = prepare_suite(h);
    let cfg = VmConfig::default();
    DISPATCH_BENCHES
        .iter()
        .map(|&name| {
            let b = suite
                .benches
                .iter()
                .find(|b| b.name == name)
                .unwrap_or_else(|| panic!("bench-snapshot: `{name}` missing from the suite"));
            let fused = PreparedModule::prepare_with(&b.module, &cfg.cost, FuseMode::Fuse);
            let mut profile = OpProfile::new();
            let start = Instant::now();
            run_prepared_profiled(&fused, &cfg, &mut profile).expect("benchmarks do not trap");
            ProfileSample {
                name: b.name,
                profiled_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                coverage_pct: profile.fusion_coverage_pct(),
            }
        })
        .collect()
}

/// Renders a snapshot as its JSON document.
pub fn to_json(
    scale: Scale,
    date: &str,
    samples: &[BenchSample],
    dispatch: &[DispatchSample],
    coverage: &[FusionCoverage],
    profiled: &[ProfileSample],
) -> Json {
    Json::obj([
        ("schema", "isf-bench-snapshot/1".into()),
        ("date", date.into()),
        ("scale", scale_name(scale).into()),
        ("interval", SNAPSHOT_INTERVAL.into()),
        (
            "benches",
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", s.name.into()),
                            ("baseline_cycles", s.baseline_cycles.into()),
                            ("instrumented_cycles", s.instrumented_cycles.into()),
                            ("overhead_pct", s.overhead_pct.into()),
                            ("samples", s.samples.into()),
                            ("instructions", s.instructions.into()),
                            ("wall_ns", emit::wall_ns(s.wall_ns)),
                            ("mips", emit::wall_rate(s.mips)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "dispatch",
            Json::Arr(
                dispatch
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", s.name.into()),
                            ("fused_wall_ns", emit::wall_ns(s.fused_ns)),
                            ("unfused_wall_ns", emit::wall_ns(s.unfused_ns)),
                            ("naive_wall_ns", emit::wall_ns(s.naive_ns)),
                            (
                                "fused_speedup",
                                emit::wall_rate(if s.fused_ns > 0 {
                                    s.unfused_ns as f64 / s.fused_ns as f64
                                } else {
                                    0.0
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "profile",
            Json::obj([
                (
                    "coverage",
                    Json::Arr(
                        coverage
                            .iter()
                            .map(|c| {
                                Json::obj([
                                    ("name", c.name.into()),
                                    ("fused_instructions", c.fused_instructions.into()),
                                    ("total_instructions", c.total_instructions.into()),
                                    ("coverage_pct", c.coverage_pct.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "dispatch",
                    Json::Arr(
                        profiled
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("name", s.name.into()),
                                    ("profiled_wall_ns", emit::wall_ns(s.profiled_ns)),
                                    ("coverage_pct", s.coverage_pct.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// The CLI name of a scale (`smoke` / `default` / `paper`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Default => "default",
        Scale::Paper => "paper",
    }
}

/// Proleptic-Gregorian date for a day count since 1970-01-01
/// (days-from-civil inverted; Howard Hinnant's `civil_from_days`).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + i64::from(m <= 2), m, d)
}

/// Today's UTC date as `YYYY-MM-DD`.
pub fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Runs the snapshot at the harness's scale and writes
/// `BENCH_<date>.json` into `dir`, returning the path written. The write
/// is atomic (temp file + rename), so an interrupted snapshot never leaves
/// a partial or corrupt dated baseline — the file either has yesterday's
/// content or today's, never a torn mix.
///
/// # Errors
///
/// Propagates filesystem errors from writing the file.
pub fn write(h: &Harness, dir: &Path) -> io::Result<PathBuf> {
    let date = today();
    let samples = collect(h);
    let dispatch = dispatch_samples(h);
    let coverage = fusion_coverage(h);
    let profiled = profile_samples(h);
    let doc = to_json(
        h.config().scale,
        &date,
        &samples,
        &dispatch,
        &coverage,
        &profiled,
    );
    let path = dir.join(format!("BENCH_{date}.json"));
    let tmp = dir.join(format!("BENCH_{date}.json.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        use std::io::Write;
        f.write_all(format!("{doc}\n").as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // Leap day.
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn today_is_iso_formatted() {
        let t = today();
        assert_eq!(t.len(), 10);
        assert_eq!(t.as_bytes()[4], b'-');
        assert_eq!(t.as_bytes()[7], b'-');
    }

    #[test]
    fn snapshot_json_shape() {
        let samples = vec![BenchSample {
            name: "db",
            baseline_cycles: 100,
            instrumented_cycles: 110,
            overhead_pct: 10.0,
            samples: 3,
            instructions: 50,
            wall_ns: 1234,
            mips: 2.5,
        }];
        let dispatch = vec![DispatchSample {
            name: "compress",
            fused_ns: 800,
            unfused_ns: 1000,
            naive_ns: 2000,
        }];
        let coverage = vec![FusionCoverage {
            name: "compress",
            fused_instructions: 75,
            total_instructions: 100,
            coverage_pct: 75.0,
        }];
        let profiled = vec![ProfileSample {
            name: "compress",
            profiled_ns: 820,
            coverage_pct: 75.0,
        }];
        let doc = to_json(
            Scale::Smoke,
            "2026-08-06",
            &samples,
            &dispatch,
            &coverage,
            &profiled,
        );
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("isf-bench-snapshot/1")
        );
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("smoke"));
        let text = doc.to_string();
        isf_obs::json::parse(&text).expect("snapshot JSON parses");
        assert!(text.contains("\"name\":\"db\""));
        assert!(text.contains("\"fused_wall_ns\""));
        assert!(text.contains("\"fused_speedup\""));
        let profile = doc.get("profile").expect("profile section present");
        assert!(text.contains("\"fused_instructions\":75"));
        assert!(text.contains("\"profiled_wall_ns\""));
        assert_eq!(
            profile
                .get("coverage")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert!(
            doc.get("profile_guided").is_none(),
            "the profile-guided section went with profile-guided fusion"
        );
    }

    #[test]
    fn profile_samples_share_the_dispatch_workload() {
        let samples = profile_samples(&crate::runner::smoke_harness());
        assert_eq!(samples.len(), DISPATCH_BENCHES.len());
        for s in &samples {
            assert!(DISPATCH_BENCHES.contains(&s.name));
            assert!(s.profiled_ns > 0, "{}: profiled run not timed", s.name);
            assert!(
                s.coverage_pct > 0.0 && s.coverage_pct <= 100.0,
                "{}: implausible fusion coverage {}",
                s.name,
                s.coverage_pct
            );
        }
    }

    #[test]
    fn dispatch_samples_cover_both_engines() {
        let samples = dispatch_samples(&crate::runner::smoke_harness());
        assert_eq!(samples.len(), DISPATCH_BENCHES.len());
        for s in &samples {
            assert!(DISPATCH_BENCHES.contains(&s.name));
            assert!(s.fused_ns > 0, "{}: fused run not timed", s.name);
            assert!(s.unfused_ns > 0, "{}: unfused run not timed", s.name);
            assert!(s.naive_ns > 0, "{}: naive run not timed", s.name);
        }
    }

    #[test]
    fn snapshot_collects_and_writes() {
        let h = crate::runner::smoke_harness();
        let samples = collect(&h);
        assert_eq!(samples.len(), 10);
        for s in &samples {
            assert!(s.instrumented_cycles > s.baseline_cycles, "{}", s.name);
            assert!(s.overhead_pct > 0.0);
            assert!(s.samples > 0, "{}: no samples at snapshot interval", s.name);
        }
        let dir = std::env::temp_dir().join("isf-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write(&h, &dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        isf_obs::json::parse(text.trim()).expect("written snapshot parses");
        std::fs::remove_file(&path).ok();
    }
}

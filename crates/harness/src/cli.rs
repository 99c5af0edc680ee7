//! Command-line parsing for `isf-harness`, as a pure function from
//! argument list to [`Command`] so every flag's validation is unit-testable
//! without spawning the binary.
//!
//! Error policy: a *structurally* wrong invocation (no experiments, a
//! misshapen subcommand) gets the full usage text; an unknown flag gets a
//! one-line diagnostic naming it plus the usage text, and exits 2; a flag
//! with a *bad value* (`--jobs 0`, an overflowing `--retries`, a garbage
//! `--fault-inject` spec) gets a one-line diagnostic naming the flag, the
//! offending value, and what would be accepted — never a panic, never a
//! silent fallback.

use std::path::PathBuf;

use crate::explore::{self, ExploreSpec};
use crate::runner::{self, HarnessConfig};
use crate::Scale;

/// The canonical experiment list `all` expands to, in run order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "fig7", "fig8",
];

/// Every name accepted as an experiment argument.
const KNOWN_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "fig7", "fig8", "fig8a", "fig8b", "extras",
    "spin", "all",
];

/// The flags an `--explore` invocation accepts; every other flag only
/// means something for an experiment run.
const SHARED_FLAGS: &[&str] = &[
    "--scale",
    "--jobs",
    "--emit",
    "--emit-path",
    "--explore",
    "--help",
    "-h",
];

/// The full usage text (structural errors and `--help`).
pub const USAGE: &str = "usage: isf-harness [--scale smoke|default|paper] [--jobs N]\n\
     \x20                  [--emit json|off] [--emit-path FILE]\n\
     \x20                  [--retries N] [--cell-budget CYCLES]\n\
     \x20                  [--cell-deadline MS] [--run-deadline MS]\n\
     \x20                  [--cancel-after-cycles CYCLES]\n\
     \x20                  [--fault-inject p=<prob>[,seed=<s>]]\n\
     \x20                  [--journal FILE] [--resume] [--no-fuse]\n\
     \x20                  [--profile] [--trace-out FILE] <experiment>...\n\
     \x20      isf-harness --explore schedules=N[,seed=S] [--scale smoke|default|paper]\n\
     \x20                  [--jobs N] [--emit json|off] [--emit-path FILE] <benchmark>...|all\n\
     \x20      isf-harness bench-snapshot [--scale smoke|default|paper] [--jobs N] [--out DIR]\n\
     \x20      isf-harness validate-jsonl <FILE>\n\
     experiments: table1 table2 table3 table4 table5 fig7 fig8 extras all\n\
     --jobs defaults to the machine's available parallelism; --retries to 0;\n\
     --cell-budget to 0 (uncapped); --cell-deadline cancels any cell attempt running\n\
     longer than MS wall-clock milliseconds (0 = off) — the cell is annotated and the\n\
     run exits 75; --run-deadline stops claiming new cells after MS milliseconds and\n\
     drains (journaled runs resume with --resume); --cancel-after-cycles cancels every\n\
     cell run at a fixed simulated cycle — the deterministic stand-in for\n\
     --cell-deadline in tests;\n\
     --journal writes a crash-safe cell journal; --resume replays its finished cells;\n\
     --no-fuse disables superinstruction fusion (on by default unless $ISF_FUSE=0) —\n\
     results are identical;\n\
     --profile enables VM self-profiling: per-opcode dispatch profiles, fusion\n\
     coverage, and `metrics`/`span-summary` JSONL records;\n\
     --trace-out writes a Chrome trace-event JSON file (open in Perfetto);\n\
     --explore records N seeded-random thread schedules per benchmark (plus PCT\n\
     priority schedules and a bounded exhaustive DFS for shallow schedule trees) and\n\
     verifies each replays byte-identically on all four engine configurations with\n\
     schedule-independent observables intact — a failure prints the seed that\n\
     reproduces the schedule deterministically";

/// A fully parsed experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Scale, jobs, budgets, deadlines, fault injection and fusion.
    pub harness: HarnessConfig,
    /// `--emit json` (`Some(true)`) / `--emit off` (`Some(false)`).
    pub emit_json: Option<bool>,
    /// `--emit-path`: write the JSONL stream here, tables stay on stdout.
    pub emit_path: Option<PathBuf>,
    /// `--run-deadline`: whole-run wall-clock deadline in milliseconds
    /// (`0` = off). When it elapses, the harness stops claiming new
    /// cells, drains in-flight ones, and exits 75 — journaled runs pick
    /// up where they left off with `--resume`.
    pub run_deadline: Option<u64>,
    /// `--journal`: the crash-safe cell journal path.
    pub journal: Option<PathBuf>,
    /// `--resume`: replay the journal's finished cells.
    pub resume: bool,
    /// `--profile`: enable VM self-profiling (the metrics registry,
    /// per-opcode dispatch profiles, fusion coverage, and the
    /// `metrics`/`span-summary` JSONL records). Cycle counts and traps are
    /// identical either way; tables and the profiling-independent JSONL
    /// records stay byte-identical.
    pub profile: bool,
    /// `--trace-out`: write the run's hierarchical span trace here as
    /// Chrome trace-event JSON (loadable in Perfetto). Implies span
    /// recording but not the metrics registry.
    pub trace_out: Option<PathBuf>,
    /// Validated, `all`-expanded experiment list, in run order.
    pub experiments: Vec<String>,
}

/// A parsed `--explore` invocation: schedule exploration over benchmarks
/// instead of an experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreConfig {
    /// Scale and jobs; exploration rejects every other harness flag.
    pub harness: HarnessConfig,
    /// `--emit json` / `--emit off`.
    pub emit_json: Option<bool>,
    /// `--emit-path`: write the JSONL stream here, the report stays on
    /// stdout.
    pub emit_path: Option<PathBuf>,
    /// The `schedules=N[,seed=S]` spec.
    pub spec: ExploreSpec,
    /// Validated, `all`-expanded benchmark list, in suite order.
    pub benches: Vec<String>,
}

/// A parsed `bench-snapshot` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotConfig {
    /// Scale (default `smoke`) and jobs.
    pub harness: HarnessConfig,
    /// Output directory.
    pub out: PathBuf,
}

/// What the command line asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run experiments.
    Run(RunConfig),
    /// Explore thread schedules over benchmarks (`--explore`).
    Explore(ExploreConfig),
    /// Write a dated performance snapshot.
    BenchSnapshot(SnapshotConfig),
    /// Validate a JSONL stream against the record contract.
    ValidateJsonl {
        /// The stream file to validate.
        path: String,
    },
    /// `--help` / `-h`.
    Help,
}

/// Why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag got a bad value: a one-line diagnostic, nonzero exit.
    Bad(String),
    /// The invocation is structurally wrong: show the full usage text.
    Usage,
    /// A flag this command does not know (a typo, or a removed flag such
    /// as `--pgo`): named on one line, then the usage text; exit code
    /// [`UNKNOWN_FLAG_EXIT`].
    UnknownFlag(String),
}

/// Exit code for an unknown flag, the conventional code for a command-line
/// usage error.
pub const UNKNOWN_FLAG_EXIT: u8 = 2;

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Bad(m) => write!(f, "{m}"),
            CliError::Usage => write!(f, "{USAGE}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
        }
    }
}

fn bad(msg: impl Into<String>) -> CliError {
    CliError::Bad(msg.into())
}

fn parse_scale(v: &str) -> Result<Scale, CliError> {
    match v {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "paper" => Ok(Scale::Paper),
        _ => Err(bad(format!(
            "--scale must be `smoke`, `default`, or `paper`, got `{v}`"
        ))),
    }
}

fn parse_jobs(v: &str) -> Result<usize, CliError> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| bad(format!("--jobs must be a positive integer, got `{v}`")))
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| bad(format!("{flag} needs a value")))
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// [`CliError::Bad`] for a flag with an invalid value (one-line
/// diagnostic); [`CliError::Usage`] for a structurally wrong invocation.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    match args.first().map(String::as_str) {
        Some("bench-snapshot") => return parse_snapshot(&args[1..]),
        Some("validate-jsonl") => {
            let [path] = &args[1..] else {
                return Err(CliError::Usage);
            };
            return Ok(Command::ValidateJsonl { path: path.clone() });
        }
        _ => {}
    }

    let mut cfg = RunConfig {
        harness: HarnessConfig::default(),
        emit_json: None,
        emit_path: None,
        run_deadline: None,
        journal: None,
        resume: false,
        profile: false,
        trace_out: None,
        experiments: Vec::new(),
    };
    // Run-only flags in the order given, so `--explore` can reject the
    // first one by name.
    let mut run_only: Vec<&str> = Vec::new();
    let mut explore_spec: Option<ExploreSpec> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if flag.starts_with('-') && !SHARED_FLAGS.contains(&flag) {
            run_only.push(flag);
        }
        match flag {
            "--scale" => cfg.harness.scale = parse_scale(next_value(&mut it, flag)?)?,
            "--jobs" => cfg.harness.jobs = parse_jobs(next_value(&mut it, flag)?)?,
            "--emit" => {
                cfg.emit_json = Some(match next_value(&mut it, flag)? {
                    "json" => true,
                    "off" => false,
                    v => return Err(bad(format!("--emit must be `json` or `off`, got `{v}`"))),
                });
            }
            "--emit-path" => cfg.emit_path = Some(PathBuf::from(next_value(&mut it, flag)?)),
            "--retries" => {
                cfg.harness.retries = parse_count(&mut it, flag, "a non-negative integer")?;
            }
            "--cell-budget" => {
                cfg.harness.cell_budget = parse_count(&mut it, flag, "a non-negative cycle count")?;
            }
            "--cell-deadline" => {
                cfg.harness.cell_deadline =
                    parse_count(&mut it, flag, "a non-negative millisecond count")?;
            }
            "--run-deadline" => {
                cfg.run_deadline = Some(parse_count(
                    &mut it,
                    flag,
                    "a non-negative millisecond count",
                )?);
            }
            "--cancel-after-cycles" => {
                cfg.harness.cancel_after =
                    parse_count(&mut it, flag, "a non-negative cycle count")?;
            }
            "--fault-inject" => {
                let v = next_value(&mut it, flag)?;
                cfg.harness.fault = Some(
                    runner::parse_fault_spec(v).map_err(|e| bad(format!("--fault-inject: {e}")))?,
                );
            }
            "--journal" => cfg.journal = Some(PathBuf::from(next_value(&mut it, flag)?)),
            "--resume" => cfg.resume = true,
            "--no-fuse" => cfg.harness.fuse = false,
            "--profile" => cfg.profile = true,
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(next_value(&mut it, flag)?)),
            "--explore" => {
                let v = next_value(&mut it, flag)?;
                explore_spec =
                    Some(explore::parse_spec(v).map_err(|e| bad(format!("--explore: {e}")))?);
            }
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with('-') => return Err(CliError::UnknownFlag(other.to_owned())),
            other => positionals.push(other.to_owned()),
        }
    }
    if positionals.is_empty() {
        return Err(CliError::Usage);
    }

    if let Some(spec) = explore_spec {
        if let Some(flag) = run_only.first() {
            return Err(bad(format!(
                "--explore cannot be combined with {flag} (exploration runs all four engine configurations itself)"
            )));
        }
        return finish_explore(cfg, spec, positionals);
    }

    for name in &positionals {
        if !KNOWN_EXPERIMENTS.contains(&name.as_str()) {
            return Err(bad(format!(
                "unknown experiment `{name}` (expected one of: {})",
                KNOWN_EXPERIMENTS.join(" ")
            )));
        }
    }
    cfg.experiments = positionals;
    if cfg.experiments.iter().any(|e| e == "all") {
        cfg.experiments = ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
    }
    Ok(Command::Run(cfg))
}

/// Parses the value of a counter flag (`--retries`, `--cell-budget`, ...)
/// as a non-negative integer of type `T`.
fn parse_count<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, CliError> {
    let v = next_value(it, flag)?;
    v.parse::<T>().map_err(|_| {
        bad(format!(
            "{flag} must be {what} (fitting {}), got `{v}`",
            std::any::type_name::<T>()
        ))
    })
}

/// Validates an `--explore` invocation's positional arguments: they must
/// be benchmark names (`all` expands to the whole suite).
fn finish_explore(
    cfg: RunConfig,
    spec: ExploreSpec,
    positionals: Vec<String>,
) -> Result<Command, CliError> {
    let names = isf_workloads::names();
    for name in &positionals {
        if name != "all" && !names.contains(&name.as_str()) {
            return Err(bad(format!(
                "unknown benchmark `{name}` (expected one of: {} all)",
                names.join(" ")
            )));
        }
    }
    let benches = if positionals.iter().any(|n| n == "all") {
        names.iter().map(|s| (*s).to_owned()).collect()
    } else {
        positionals
    };
    Ok(Command::Explore(ExploreConfig {
        harness: cfg.harness,
        emit_json: cfg.emit_json,
        emit_path: cfg.emit_path,
        spec,
        benches,
    }))
}

fn parse_snapshot(args: &[String]) -> Result<Command, CliError> {
    let mut cfg = SnapshotConfig {
        harness: HarnessConfig {
            scale: Scale::Smoke,
            ..HarnessConfig::default()
        },
        out: PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => cfg.harness.scale = parse_scale(next_value(&mut it, "--scale")?)?,
            "--jobs" => cfg.harness.jobs = parse_jobs(next_value(&mut it, "--jobs")?)?,
            "--out" => cfg.out = PathBuf::from(next_value(&mut it, "--out")?),
            other if other.starts_with('-') => return Err(CliError::UnknownFlag(other.to_owned())),
            _ => return Err(CliError::Usage),
        }
    }
    Ok(Command::BenchSnapshot(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    fn run_cfg(args: &[&str]) -> RunConfig {
        match parse(&argv(args)) {
            Ok(Command::Run(cfg)) => cfg,
            other => panic!("expected a run, got {other:?}"),
        }
    }

    fn err(args: &[&str]) -> CliError {
        parse(&argv(args)).expect_err("parse should fail")
    }

    #[test]
    fn parses_a_full_run_invocation() {
        let cfg = run_cfg(&[
            "--scale",
            "smoke",
            "--jobs",
            "4",
            "--emit",
            "json",
            "--emit-path",
            "out.jsonl",
            "--retries",
            "2",
            "--cell-budget",
            "1000",
            "--cell-deadline",
            "250",
            "--run-deadline",
            "60000",
            "--cancel-after-cycles",
            "5000",
            "--fault-inject",
            "p=0.25,seed=7",
            "--journal",
            "j.jsonl",
            "--resume",
            "--no-fuse",
            "--profile",
            "--trace-out",
            "trace.json",
            "table4",
            "table1",
        ]);
        assert_eq!(
            cfg.harness,
            HarnessConfig {
                scale: Scale::Smoke,
                jobs: 4,
                retries: 2,
                cell_budget: 1000,
                cell_deadline: 250,
                cancel_after: 5000,
                fault: Some((0.25, 7)),
                fuse: false,
            }
        );
        assert_eq!(cfg.emit_json, Some(true));
        assert_eq!(cfg.emit_path, Some(PathBuf::from("out.jsonl")));
        assert_eq!(cfg.run_deadline, Some(60000));
        assert_eq!(cfg.journal, Some(PathBuf::from("j.jsonl")));
        assert!(cfg.resume);
        assert!(cfg.profile);
        assert_eq!(cfg.trace_out, Some(PathBuf::from("trace.json")));
        assert_eq!(cfg.experiments, vec!["table4", "table1"]);
    }

    #[test]
    fn all_expands_to_the_canonical_list() {
        let cfg = run_cfg(&["all"]);
        assert_eq!(cfg.experiments, ALL_EXPERIMENTS);
        assert!(
            !ALL_EXPERIMENTS.contains(&"spin"),
            "the spin diagnostic must stay out of `all`"
        );
        assert_eq!(
            run_cfg(&["spin"]).experiments,
            vec!["spin"],
            "spin is runnable by name"
        );
        assert_eq!(
            cfg.harness,
            HarnessConfig::default(),
            "no flag: every harness setting at its default"
        );
        assert_eq!(cfg.harness.scale, Scale::Default);
        assert!(!cfg.resume);
        assert!(!cfg.profile, "self-profiling is off by default");
        assert_eq!(cfg.trace_out, None);
    }

    #[test]
    fn jobs_zero_is_a_one_line_value_error() {
        let CliError::Bad(msg) = err(&["--jobs", "0", "table1"]) else {
            panic!("expected a one-line error, got full usage");
        };
        assert!(msg.contains("--jobs"), "{msg}");
        assert!(msg.contains("`0`"), "{msg}");
        assert!(!msg.contains('\n'), "must be one line: {msg}");
    }

    #[test]
    fn garbage_and_overflowing_counters_are_one_line_value_errors() {
        for (args, flag, value) in [
            (vec!["--retries", "many", "table1"], "--retries", "`many`"),
            (
                vec!["--retries", "99999999999999999999999999", "table1"],
                "--retries",
                "`99999999999999999999999999`",
            ),
            (
                vec!["--cell-budget", "-3", "table1"],
                "--cell-budget",
                "`-3`",
            ),
            (
                vec!["--cell-budget", "18446744073709551616", "table1"],
                "--cell-budget",
                "`18446744073709551616`",
            ),
            (
                vec!["--cell-deadline", "soon", "table1"],
                "--cell-deadline",
                "`soon`",
            ),
            (
                vec!["--run-deadline", "-1", "table1"],
                "--run-deadline",
                "`-1`",
            ),
            (
                vec!["--cancel-after-cycles", "1e9", "table1"],
                "--cancel-after-cycles",
                "`1e9`",
            ),
            (vec!["--jobs", "4x", "table1"], "--jobs", "`4x`"),
        ] {
            let CliError::Bad(msg) = err(&args) else {
                panic!("{args:?}: expected a one-line error");
            };
            assert!(msg.contains(flag), "{args:?}: {msg}");
            assert!(msg.contains(value), "{args:?}: {msg}");
            assert!(!msg.contains('\n'), "{args:?}: must be one line: {msg}");
        }
    }

    #[test]
    fn malformed_fault_inject_specs_are_one_line_value_errors() {
        for spec in ["p=2", "p=x", "seed=1", "bogus", ""] {
            let CliError::Bad(msg) = err(&["--fault-inject", spec, "table1"]) else {
                panic!("spec `{spec}`: expected a one-line error");
            };
            assert!(msg.starts_with("--fault-inject:"), "{msg}");
            assert!(!msg.contains('\n'), "must be one line: {msg}");
        }
    }

    #[test]
    fn missing_values_and_unknown_names_fail_cleanly() {
        assert!(matches!(err(&["--jobs"]), CliError::Bad(_)));
        assert!(matches!(err(&["table1", "--trace-out"]), CliError::Bad(_)));
        assert!(matches!(
            err(&["--scale", "huge", "table1"]),
            CliError::Bad(_)
        ));
        assert!(matches!(
            err(&["--emit", "xml", "table1"]),
            CliError::Bad(_)
        ));
        let CliError::Bad(msg) = err(&["table9"]) else {
            panic!("unknown experiment should be a one-line error");
        };
        assert!(msg.contains("table9"), "{msg}");
        assert_eq!(err(&[]), CliError::Usage, "no experiments: full usage");
        assert_eq!(
            err(&["--wat", "table1"]),
            CliError::UnknownFlag("--wat".to_owned()),
            "unknown flag"
        );
    }

    #[test]
    fn explore_parses_benchmarks_and_expands_all() {
        let Ok(Command::Explore(cfg)) = parse(&argv(&[
            "--explore",
            "schedules=32,seed=7",
            "--scale",
            "smoke",
            "--jobs",
            "2",
            "--emit",
            "json",
            "--emit-path",
            "x.jsonl",
            "pbob",
            "volano",
        ])) else {
            panic!("explore invocation should parse");
        };
        assert_eq!(
            cfg.harness,
            HarnessConfig {
                scale: Scale::Smoke,
                jobs: 2,
                ..HarnessConfig::default()
            }
        );
        assert_eq!(cfg.emit_json, Some(true));
        assert_eq!(cfg.emit_path, Some(PathBuf::from("x.jsonl")));
        assert_eq!(cfg.spec.schedules, 32);
        assert_eq!(cfg.spec.seed, 7);
        assert_eq!(cfg.benches, vec!["pbob", "volano"]);

        let Ok(Command::Explore(all)) = parse(&argv(&["--explore", "schedules=1", "all"])) else {
            panic!("explore all should parse");
        };
        assert_eq!(all.benches, isf_workloads::names());
    }

    #[test]
    fn explore_rejects_bad_specs_and_unknown_benchmarks() {
        for args in [
            vec!["--explore", "schedules=0", "pbob"],
            vec!["--explore", "seed=7", "pbob"],
            vec!["--explore", "nonsense", "pbob"],
        ] {
            let CliError::Bad(msg) = err(&args) else {
                panic!("{args:?}: expected a one-line error");
            };
            assert!(msg.starts_with("--explore:"), "{args:?}: {msg}");
            assert!(!msg.contains('\n'), "{args:?}: must be one line: {msg}");
        }
        let CliError::Bad(msg) = err(&["--explore", "schedules=4", "table1"]) else {
            panic!("experiment names are not benchmarks");
        };
        assert!(msg.contains("unknown benchmark `table1`"), "{msg}");
        assert_eq!(
            err(&["--explore", "schedules=4"]),
            CliError::Usage,
            "no benchmarks: full usage"
        );
    }

    #[test]
    fn explore_rejects_run_only_flags() {
        for (args, flag) in [
            (
                vec!["--explore", "schedules=4", "--journal", "j", "pbob"],
                "--journal",
            ),
            (
                vec!["--explore", "schedules=4", "--resume", "pbob"],
                "--resume",
            ),
            (
                vec!["--explore", "schedules=4", "--no-fuse", "pbob"],
                "--no-fuse",
            ),
            (
                vec!["--explore", "schedules=4", "--retries", "2", "pbob"],
                "--retries",
            ),
            (
                vec![
                    "--explore",
                    "schedules=4",
                    "--cancel-after-cycles",
                    "9",
                    "pbob",
                ],
                "--cancel-after-cycles",
            ),
        ] {
            let CliError::Bad(msg) = err(&args) else {
                panic!("{args:?}: expected a one-line error");
            };
            assert!(msg.contains(flag), "{args:?}: {msg}");
            assert!(!msg.contains('\n'), "{args:?}: must be one line: {msg}");
        }
    }

    #[test]
    fn removed_pgo_flag_is_an_unknown_flag() {
        // Profile-guided fusion was measured slower than static fusion and
        // removed (DESIGN.md decision 19); its flag is refused by name
        // rather than silently ignored, in every command that parses flags.
        for args in [
            vec!["--pgo", "table1"],
            vec!["--scale", "smoke", "--pgo", "all"],
            vec!["--explore", "schedules=4", "--pgo", "pbob"],
            vec!["bench-snapshot", "--pgo"],
        ] {
            assert_eq!(
                err(&args),
                CliError::UnknownFlag("--pgo".to_owned()),
                "{args:?}"
            );
        }
        assert_eq!(
            CliError::UnknownFlag("--pgo".to_owned()).to_string(),
            "unknown flag `--pgo`"
        );
        assert!(!USAGE.contains("--pgo"), "usage must not offer --pgo");
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            parse(&argv(&["validate-jsonl", "s.jsonl"])),
            Ok(Command::ValidateJsonl {
                path: "s.jsonl".to_owned()
            })
        );
        assert_eq!(parse(&argv(&["validate-jsonl"])), Err(CliError::Usage));
        let Ok(Command::BenchSnapshot(cfg)) =
            parse(&argv(&["bench-snapshot", "--scale", "smoke", "--out", "d"]))
        else {
            panic!("bench-snapshot should parse");
        };
        assert_eq!(cfg.harness.scale, Scale::Smoke);
        assert_eq!(cfg.out, PathBuf::from("d"));
        assert!(matches!(
            parse(&argv(&["bench-snapshot", "--jobs", "0"])),
            Err(CliError::Bad(_))
        ));
        assert_eq!(parse(&argv(&["--help"])), Ok(Command::Help));
    }
}

//! `reproduce-all`: what users run, `isf-harness --scale smoke --jobs 1
//! all`, one fresh process per pass (the preparation cache is
//! process-global, so every invocation pays to fill it). Tables go to
//! stdout and are checked against the digest recorded at this commit; the
//! JSONL stream (`--emit-path`) gives per-cell and per-phase figures. The
//! traced pass adds the harness's own `--trace-out`, the profiled pass its
//! `--profile`.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use isf_obs::Json;

use crate::layers::Pass;
use crate::metrics::{Values, HARNESS_EXPERIMENTS, PER_LAYER};
use crate::refs;
use crate::trace::Tracer;
use crate::{build_harness, drive, out_dir, sys, Args, Measured, Workload};

/// The harness command line, before the output flags. `smoke` rather than
/// `default` scale: a default-scale pass takes 6–9 s, too few fit in one
/// run to catch the calm spells of a host whose speed drifts (see
/// `README.md`, "Steadiness").
const ARGS: &[&str] = &["--scale", "smoke", "--jobs", "1"];
const REFS_FILE: &str = "reproduce-all.json";

/// Everything one harness process left behind.
struct HarnessRun {
    pass: Pass,
    /// Peak RSS of this process, MiB.
    peak_rss_mib: f64,
    /// `phase` wall seconds and counts by phase name.
    phases: BTreeMap<String, (f64, u64)>,
    /// `cell` records: label, wall seconds, instructions, cycles.
    cells: Vec<(String, f64, u64, u64)>,
    errors: u64,
    /// Counters of the `metrics` record (`--profile` only).
    counters: BTreeMap<String, f64>,
    /// `experiment` span seconds (`--trace-out` only).
    experiments: BTreeMap<String, f64>,
}

impl HarnessRun {
    fn phase(&self, name: &str) -> (f64, u64) {
        self.phases.get(name).copied().unwrap_or_default()
    }
}

fn path(name: &str) -> PathBuf {
    out_dir().join(name)
}

fn read_lines(p: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| isf_obs::json::parse(l).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// `true` when the tables on stdout are what the reference recorded: the
/// same digest and no `!!` error annotation.
fn tables_match(stdout: &[u8], digest: &str) -> bool {
    format!("{:016x}", sys::fnv1a(sys::FNV_OFFSET, stdout)) == digest
        && !stdout.windows(2).any(|w| w == b"!!")
}

/// Runs the harness once, adding `--profile` and `--trace-out` as asked;
/// `digest` is the expected stdout digest (`None` while recording it).
fn spawn(
    harness: &Path,
    profile: bool,
    trace_out: bool,
    digest: Option<&str>,
) -> Result<(HarnessRun, Vec<u8>), String> {
    let (stdout_p, stderr_p, emit_p, trace_p) = (
        path("reproduce-stdout.txt"),
        path("reproduce-stderr.txt"),
        path("reproduce.jsonl"),
        path("reproduce-trace.json"),
    );
    let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut cmd = Command::new(harness);
    cmd.args(ARGS)
        .arg("--emit")
        .arg("json")
        .arg("--emit-path")
        .arg(&emit_p);
    if profile {
        cmd.arg("--profile");
    }
    if trace_out {
        cmd.arg("--trace-out").arg(&trace_p);
    }
    cmd.arg("all")
        .stdin(Stdio::null())
        .stdout(create(&stdout_p)?)
        .stderr(create(&stderr_p)?);
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", harness.display()))?;
    let usage = sys::wait_with_usage(child).map_err(|e| format!("waiting for the harness: {e}"))?;
    let mut run = HarnessRun {
        pass: Pass {
            wall: start.elapsed().as_secs_f64(),
            cpu: usage.cpu.as_secs_f64(),
            ..Pass::default()
        },
        peak_rss_mib: usage.peak_rss_mib,
        phases: BTreeMap::new(),
        cells: Vec::new(),
        errors: 0,
        counters: BTreeMap::new(),
        experiments: BTreeMap::new(),
    };
    let ok = usage.status.success();
    let stdout = std::fs::read(&stdout_p).map_err(|e| format!("{}: {e}", stdout_p.display()))?;
    let records = if ok { read_lines(&emit_p)? } else { Vec::new() };
    for r in &records {
        match text(r, "type") {
            "cell" => run.cells.push((
                text(r, "label").to_owned(),
                num(r, "wall_ns") * 1e-9,
                num(r, "instructions") as u64,
                num(r, "sim_cycles") as u64,
            )),
            "error" => run.errors += 1,
            "phase" => {
                let e = run.phases.entry(text(r, "name").to_owned()).or_default();
                e.0 += num(r, "wall_ns") * 1e-9;
                e.1 += num(r, "count") as u64;
            }
            "metrics" => {
                if let Some(Json::Obj(counters)) = r.get("counters") {
                    for (k, v) in counters {
                        run.counters.insert(k.clone(), v.as_f64().unwrap_or(0.0));
                    }
                }
            }
            _ => {}
        }
    }
    if trace_out && ok {
        let trace =
            std::fs::read_to_string(&trace_p).map_err(|e| format!("{}: {e}", trace_p.display()))?;
        let doc =
            isf_obs::json::parse(&trace).map_err(|e| format!("{}: {e}", trace_p.display()))?;
        for ev in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
            if text(ev, "cat") == "experiment" {
                let wall = ev.get("args").map_or(0.0, |a| num(a, "wall_ns")) * 1e-9;
                *run.experiments
                    .entry(text(ev, "name").to_owned())
                    .or_default() += wall;
            }
        }
    }
    let pass = &mut run.pass;
    pass.attempted = (run.cells.len() as u64).max(1);
    pass.failed = if ok && digest.is_none_or(|d| tables_match(&stdout, d)) {
        run.errors
    } else {
        pass.attempted
    };
    pass.instructions = run.cells.iter().map(|c| c.2).sum();
    pass.op_s = run.cells.iter().map(|c| c.1).collect();
    let phase = |n: &str| run.phases.get(n).copied().unwrap_or_default();
    pass.exec_s = phase("run").0;
    pass.modules = phase("compile").1;
    pass.pipeline_s = phase("compile").0 + phase("instrument").0 + phase("prepare").0;
    Ok((run, stdout))
}

/// The harness processes of one run.
struct Reproduce {
    harness: PathBuf,
    digest: String,
    /// Largest peak RSS of any untraced harness process, MiB.
    peak_rss_mib: f64,
    /// The `--trace-out` process.
    traced: Option<HarnessRun>,
    /// The `--profile` process.
    profiled: Option<HarnessRun>,
}

impl Workload for Reproduce {
    /// Starts the harness and lets it exit after parsing its command line
    /// (`--help`): the process start every invocation pays before its
    /// first experiment.
    fn setup(&mut self, _tracer: &mut Tracer) -> Result<f64, String> {
        let start = Instant::now();
        Command::new(&self.harness)
            .arg("--help")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", self.harness.display()))?;
        Ok(start.elapsed().as_secs_f64())
    }

    fn pass(&mut self, tracer: &mut Tracer, profiled: bool) -> Result<Pass, String> {
        let traced = tracer.enabled();
        let span = tracer.begin("harness");
        let (run, _) = spawn(&self.harness, profiled, traced, Some(&self.digest))?;
        tracer.end(span);
        let pass = run.pass.clone();
        if traced {
            self.traced = Some(run);
        } else if profiled {
            self.profiled = Some(run);
        } else {
            self.peak_rss_mib = self.peak_rss_mib.max(run.peak_rss_mib);
        }
        Ok(pass)
    }
}

/// Per-layer metrics from the harness's own outputs: phases, cells and
/// experiment spans of the traced process, profiling counters of the
/// profiled one. What the harness does not record (plan time, transform
/// statistics, source bytes, decoded-op counts, samples, thread switches,
/// profile overlap) reads 0.
fn layer_values(traced: &HarnessRun, profiled: &HarnessRun, untraced_run_s: f64) -> Values {
    let mut v: Values = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let counter = |n: &str| profiled.counters.get(n).copied().unwrap_or(0.0);
    let sum_counters = |suffix: &str| -> f64 {
        profiled
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("fusion.") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (compile_s, compiles) = traced.phase("compile");
    let dispatch_s = traced.phase("run").0;
    let instructions = traced.pass.instructions as f64;
    let events = counter("op.call-edge.count") + counter("op.field-access-prof.count");
    let prepare_cells: Vec<f64> = traced
        .cells
        .iter()
        .filter(|c| c.0.starts_with("prepare/"))
        .map(|c| c.1)
        .collect();
    let phases_s: f64 = traced.phases.values().map(|p| p.0).sum();
    for (exp, metric) in HARNESS_EXPERIMENTS {
        v.insert(metric, traced.experiments.get(*exp).copied().unwrap_or(0.0));
    }
    v.extend([
        ("frontend.compile_s", compile_s),
        ("frontend.modules", compiles as f64),
        ("core.transform_s", traced.phase("instrument").0),
        ("core.transforms", traced.phase("instrument").1 as f64),
        ("exec.prepare_s", traced.phase("prepare").0),
        ("exec.dispatch_s", dispatch_s),
        ("exec.instructions", instructions),
        ("exec.mips", ratio(instructions, dispatch_s) / 1e6),
        (
            "exec.sim_cycles",
            traced.cells.iter().map(|c| c.3 as f64).sum(),
        ),
        ("exec.checks", counter("op.check.count")),
        (
            "exec.fused_dynamic_share",
            ratio(
                sum_counters(".fused_instructions"),
                sum_counters(".total_instructions"),
            ),
        ),
        (
            "exec.profile_sink_overhead",
            ratio(profiled.phase("run").0, untraced_run_s),
        ),
        ("profile.events", events),
        (
            "profile.events_per_s",
            ratio(events, profiled.phase("run").0),
        ),
        ("harness.cells", traced.cells.len() as f64),
        ("harness.cell_errors", traced.errors as f64),
        ("harness.prepare_cells", prepare_cells.len() as f64),
        ("harness.prepare_cells_s", prepare_cells.iter().sum()),
        ("harness.phase.compile_s", compile_s),
        ("harness.phase.instrument_s", traced.phase("instrument").0),
        ("harness.phase.prepare_s", traced.phase("prepare").0),
        ("harness.phase.run_s", dispatch_s),
        ("harness.overhead_s", traced.pass.wall - phases_s),
        ("harness.prep_cache_hits", counter("prep.cache.hits")),
        ("harness.prep_cache_misses", counter("prep.cache.misses")),
    ]);
    v
}

fn load_digest() -> Result<String, String> {
    refs::load_doc(REFS_FILE)?
        .get("stdout_fnv1a")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{REFS_FILE}: no stdout_fnv1a"))
}

/// Runs `reproduce-all`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut w = Reproduce {
        harness: build_harness()?,
        digest: load_digest()?,
        peak_rss_mib: 0.0,
        traced: None,
        profiled: None,
    };
    let runs = drive(&mut w, args.seconds, tracer)?;
    let mut values = match (&w.traced, &w.profiled) {
        (Some(traced), Some(profiled)) => layer_values(traced, profiled, runs.median(|p| p.exec_s)),
        _ => runs.end_to_end(w.peak_rss_mib),
    };
    runs.bench_values(&mut values);
    Ok(runs.into_measured(values))
}

/// Records the stdout digest of one clean harness run.
pub fn regen_refs() -> Result<(), String> {
    let harness = build_harness()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let (run, stdout) = spawn(&harness, false, false, None)?;
    if run.pass.failed > 0 || stdout.windows(2).any(|w| w == b"!!") {
        return Err("the harness run failed; not recording a reference".to_owned());
    }
    let command = format!(
        "isf-harness {} --emit json --emit-path FILE all",
        ARGS.join(" ")
    );
    refs::save_doc(
        REFS_FILE,
        &Json::obj([
            ("command", command.into()),
            (
                "stdout_fnv1a",
                format!("{:016x}", sys::fnv1a(sys::FNV_OFFSET, &stdout)).into(),
            ),
            ("cells", run.cells.len().into()),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_gate_checks_digest_and_error_rows() {
        let tables = b"Table 1\ncompress 12.5%\n";
        let digest = format!("{:016x}", sys::fnv1a(sys::FNV_OFFSET, tables));
        assert!(tables_match(tables, &digest));
        assert!(!tables_match(b"Table 1\ncompress 12.6%\n", &digest));
        let annotated = b"Table 1\ncompress !! trapped\n";
        let digest = format!("{:016x}", sys::fnv1a(sys::FNV_OFFSET, annotated));
        assert!(!tables_match(annotated, &digest));
    }
}

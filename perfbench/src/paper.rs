//! `sampled-paper`: the paper's sampling configuration — Full-Duplication
//! with both instrumentation kinds, `CounterRandomized` at interval 1000 —
//! on `compress` (field-dense loop), `mtrt` (call-dense) and `pbob` (green
//! threads). Set-up instruments and prepares each program; a pass runs all
//! three on the prepared engine in a seeded order.

use std::time::Instant;

use isf_core::{Options, Strategy};
use isf_exec::{run_naive, run_prepared, run_prepared_profiled, OpProfile, Trigger, VmConfig};
use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, Instrumentation};
use isf_profile::overlap::{call_edge_overlap, field_access_overlap};
use isf_profile::ProfileData;
use isf_workloads::{by_name, Scale};

use crate::layers::{self, count_outcome, Built, Pass, PassClock};
use crate::refs::{self, Reference, Refs};
use crate::trace::Tracer;
use crate::{drive, sys, Args, Measured, Rng, Workload};

/// The programs the workload runs.
pub const PROGRAMS: [&str; 3] = ["compress", "mtrt", "pbob"];

/// `CounterRandomized` seeds with recorded references; a workload seed
/// `s` samples with trigger seed `s % TRIGGER_SEEDS`.
pub const TRIGGER_SEEDS: u64 = 8;

/// The scale the programs run at. `Default` rather than `Paper`: a
/// paper-scale pass takes 1.5–3 s, too few fit in one run to catch the
/// calm spells of a host whose speed drifts (see `README.md`, "Steadiness").
const SCALE: Scale = Scale::Default;
const INTERVAL: u64 = 1000;
const REFS_FILE: &str = "paper.json";

fn sampled_config(seed: u64) -> VmConfig {
    VmConfig {
        trigger: Trigger::CounterRandomized {
            interval: INTERVAL,
            jitter: INTERVAL / 2,
            seed: seed % TRIGGER_SEEDS,
        },
        ..VmConfig::default()
    }
}

fn ref_key(seed: u64, program: &str) -> String {
    format!("sampled-{}/{program}", seed % TRIGGER_SEEDS)
}

const KINDS: [&dyn Instrumentation; 2] = [&CallEdgeInstrumentation, &FieldAccessInstrumentation];

fn build_all(strategy: Strategy, tracer: &mut Tracer) -> Vec<(&'static str, Built)> {
    PROGRAMS
        .iter()
        .map(|&name| {
            let w = by_name(name, SCALE).expect("suite program");
            let options = Options::new(strategy);
            (name, layers::build(w.source(), &KINDS, &options, tracer))
        })
        .collect()
}

struct Paper {
    seed: u64,
    passes: u64,
    programs: Vec<(&'static str, Built)>,
    refs: Refs,
    /// Profiles of the traced pass by program index, kept for the
    /// overlap computation.
    profiles: Vec<(usize, ProfileData)>,
}

impl Workload for Paper {
    fn setup(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let start = Instant::now();
        let programs = build_all(Strategy::FullDuplication, tracer);
        let secs = start.elapsed().as_secs_f64();
        self.programs = programs;
        Ok(secs)
    }

    fn pass(&mut self, tracer: &mut Tracer, profiled: bool) -> Result<Pass, String> {
        let config = sampled_config(self.seed);
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        Rng::new(self.seed ^ self.passes.wrapping_mul(0x9e37_79b9)).shuffle(&mut order);
        self.passes += 1;
        let mut pass = Pass {
            op_s: vec![0.0; self.programs.len()],
            modules: self.programs.len() as u64,
            pipeline_s: self.programs.iter().map(|(_, b)| b.pipeline_s).sum(),
            ..Pass::default()
        };
        let span = tracer.begin("pass");
        let clock = PassClock::start();
        for i in order {
            let (name, built) = &self.programs[i];
            let start = Instant::now();
            let result = if profiled {
                let mut profile = OpProfile::new();
                let r = run_prepared_profiled(&built.prepared, &config, &mut profile);
                pass.fused_instructions += profile.fused_instructions();
                r
            } else {
                tracer.time("exec.dispatch", || run_prepared(&built.prepared, &config))
            };
            let secs = start.elapsed().as_secs_f64();
            pass.exec_s += secs;
            pass.op_s[i] = secs;
            pass.attempted += 1;
            let reference = self.refs.get(&ref_key(self.seed, name));
            if !reference.is_some_and(|r| r.matches(&result)) {
                pass.failed += 1;
            }
            if let Ok(o) = &result {
                pass.instructions += o.instructions;
                count_outcome(tracer, o);
                if tracer.enabled() {
                    self.profiles.push((i, o.profile.clone()));
                }
            }
        }
        clock.stop(&mut pass);
        tracer.end(span);
        Ok(pass)
    }
}

/// Mean call-edge and field-access overlap (percent) of each program's
/// sampled profile against its exhaustive one, timed as `profile.overlap`.
/// The exhaustive profiles come from one untraced run of each program
/// instrumented with `Strategy::Exhaustive`.
fn overlap_pct(profiles: &[(usize, ProfileData)], tracer: &mut Tracer) -> f64 {
    tracer.set_enabled(false);
    let exhaustive: Vec<Option<ProfileData>> = build_all(Strategy::Exhaustive, tracer)
        .iter()
        .map(|(_, b)| run_prepared(&b.prepared, &VmConfig::default()).ok())
        .map(|o| o.map(|o| o.profile))
        .collect();
    tracer.set_enabled(true);
    let span = tracer.begin("profile.overlap");
    let (mut sum, mut pairs) = (0.0, 0);
    for (i, sampled) in profiles {
        if let Some(perfect) = &exhaustive[*i] {
            sum += call_edge_overlap(perfect, sampled) + field_access_overlap(perfect, sampled);
            pairs += 2;
        }
    }
    tracer.end(span);
    sum / f64::from(pairs.max(1))
}

/// Runs `sampled-paper`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut w = Paper {
        seed: args.seed,
        passes: 0,
        programs: Vec::new(),
        refs: refs::load(REFS_FILE)?,
        profiles: Vec::new(),
    };
    let runs = drive(&mut w, args.seconds, tracer)?;
    let mut values = match (&runs.traced, &runs.profiled) {
        (Some(traced), Some(profiled)) => {
            let pct = overlap_pct(&w.profiles, tracer);
            let mut v = layers::layer_values(tracer, traced, profiled);
            v.insert("profile.overlap_pct", pct);
            v
        }
        _ => runs.end_to_end(sys::self_peak_rss_mib()),
    };
    runs.bench_values(&mut values);
    Ok(runs.into_measured(values))
}

/// Records the naive engine's output and cycles for every trigger seed.
pub fn regen_refs() -> Result<(), String> {
    let mut out = Refs::new();
    let programs = build_all(Strategy::FullDuplication, &mut Tracer::new(false));
    for seed in 0..TRIGGER_SEEDS {
        for (name, built) in &programs {
            let key = ref_key(seed, name);
            let outcome = run_naive(&built.module, &sampled_config(seed))
                .map_err(|e| format!("naive oracle trapped on {key}: {e}"))?;
            out.insert(key, Reference::of(&outcome));
        }
    }
    refs::save(REFS_FILE, &out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_pass(seed: u64, refs: Refs) -> crate::Runs {
        let mut w = Paper {
            seed,
            passes: 0,
            programs: Vec::new(),
            refs,
            profiles: Vec::new(),
        };
        let mut tracer = Tracer::new(false);
        let mut runs = crate::Runs::default();
        runs.setup_s.push(w.setup(&mut tracer).expect("set-up"));
        runs.untraced
            .push(w.pass(&mut tracer, false).expect("pass"));
        runs
    }

    #[test]
    fn committed_references_pass_the_gate() {
        let runs = one_pass(5, refs::load(REFS_FILE).expect("committed references"));
        assert_eq!((runs.attempted(), runs.failed()), (3, 0));
    }

    #[test]
    fn a_wrong_reference_makes_failed_frac_positive() {
        let mut refs = refs::load(REFS_FILE).expect("committed references");
        refs.get_mut(&ref_key(5, "mtrt"))
            .expect("reference for every trigger seed")
            .cycles += 1;
        let runs = one_pass(5, refs);
        let mut values = crate::metrics::Values::new();
        runs.bench_values(&mut values);
        assert_eq!(runs.failed(), 1);
        assert!(values["failed_frac"] > 0.0);
    }
}

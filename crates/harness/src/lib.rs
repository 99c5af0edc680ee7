//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4).
//!
//! One module per experiment, each with a `run(&Harness)` entry point
//! (the [`runner::Harness`] carries the scale and every other setting)
//! returning a typed result that knows how to print itself in the paper's
//! layout:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`table1`] | exhaustive instrumentation overhead |
//! | [`table2`] | Full-Duplication framework overhead + breakdown + space + compile time |
//! | [`table3`] | No-Duplication checking overhead per instrumentation |
//! | [`table4`] | sampled overhead and accuracy vs sample interval |
//! | [`table5`] | timer-based vs counter-based trigger accuracy |
//! | [`fig7`]   | the javac call-edge profile (perfect vs sampled series) |
//! | [`fig8`]   | Jalapeño-specific (yieldpoint) overheads, parts (A) and (B) |
//! | [`extras`] | beyond the paper: sampled path profiling, selective instrumentation |
//! | [`spin`]   | diagnostic: a deliberately non-terminating cell, for exercising `--cell-deadline` |
//!
//! Absolute percentages depend on the cost model; what must match the
//! paper is the *shape* — which benchmarks are expensive, which strategy
//! wins where, and where the accuracy/overhead trade-off bends. The test
//! suite asserts those shapes at smoke scale; `EXPERIMENTS.md` records a
//! full-scale paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod explore;
pub mod extras;
pub mod fig7;
pub mod fig8;
pub mod journal;
pub mod jsonl;
pub mod runner;
pub mod snapshot;
pub mod spin;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
mod watchdog;

pub use isf_workloads::Scale;

/// Formats a percentage in the paper's style (one decimal).
pub(crate) fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Arithmetic mean.
pub(crate) fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Appends one `!! label [kind]: detail` line per failed cell to a table's
/// rendering. Writes nothing when every cell succeeded, so clean runs stay
/// byte-identical to output from before cells could fail.
pub(crate) fn write_errors(
    f: &mut std::fmt::Formatter<'_>,
    errors: &[runner::CellError],
) -> std::fmt::Result {
    for e in errors {
        writeln!(f, "!! {e}")?;
    }
    Ok(())
}

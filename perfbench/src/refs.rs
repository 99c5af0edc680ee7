//! Oracle references the correctness gate compares against. Program
//! output and simulated cycles come from the naive engine — the semantic
//! reference of the prepared engine under test — recorded once by
//! `regen-refs`, never from the engine being measured.

use std::collections::BTreeMap;
use std::path::PathBuf;

use isf_exec::{Outcome, VmError};
use isf_obs::Json;

/// What one run must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Values the program printed.
    pub output: Vec<i64>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated instructions.
    pub instructions: u64,
}

impl Reference {
    /// The reference an oracle run produced.
    pub fn of(outcome: &Outcome) -> Self {
        Reference {
            output: outcome.output.clone(),
            cycles: outcome.cycles,
            instructions: outcome.instructions,
        }
    }

    /// `true` when `result` completed and reproduced this reference.
    pub fn matches(&self, result: &Result<Outcome, VmError>) -> bool {
        match result {
            Ok(o) => {
                o.output == self.output
                    && o.cycles == self.cycles
                    && o.instructions == self.instructions
            }
            Err(_) => false,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "output",
                Json::Arr(self.output.iter().map(|&v| v.into()).collect()),
            ),
            ("cycles", self.cycles.into()),
            ("instructions", self.instructions.into()),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        let output = j
            .get("output")?
            .as_arr()?
            .iter()
            .map(|v| match *v {
                Json::Int(n) => Some(n),
                Json::UInt(n) => i64::try_from(n).ok(),
                _ => None,
            })
            .collect::<Option<Vec<i64>>>()?;
        Some(Reference {
            output,
            cycles: j.get("cycles")?.as_u64()?,
            instructions: j.get("instructions")?.as_u64()?,
        })
    }
}

/// References by run key (`<config>/<program>`).
pub type Refs = BTreeMap<String, Reference>;

/// The committed reference directory.
pub fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/refs"))
}

/// Loads a reference document.
pub fn load_doc(file: &str) -> Result<Json, String> {
    let path = dir().join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run `regen-refs`)", path.display()))?;
    isf_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a reference document.
pub fn save_doc(file: &str, doc: &Json) -> Result<(), String> {
    let path = dir().join(file);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads a run-reference file.
pub fn load(file: &str) -> Result<Refs, String> {
    let doc = load_doc(file)?;
    let Json::Obj(entries) = doc else {
        return Err(format!("{file}: expected an object"));
    };
    entries
        .iter()
        .map(|(k, v)| {
            Reference::from_json(v)
                .map(|r| (k.clone(), r))
                .ok_or_else(|| format!("{file}: malformed reference `{k}`"))
        })
        .collect()
}

/// Writes a run-reference file, one entry per line.
pub fn save(file: &str, refs: &Refs) -> Result<(), String> {
    let body: Vec<String> = refs
        .iter()
        .map(|(k, r)| format!("{}: {}", Json::Str(k.clone()), r.to_json()))
        .collect();
    let path = dir().join(file);
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_through_json() {
        let r = Reference {
            output: vec![-3, 0, i64::MAX],
            cycles: 12,
            instructions: 7,
        };
        assert_eq!(Reference::from_json(&r.to_json()), Some(r));
    }
}

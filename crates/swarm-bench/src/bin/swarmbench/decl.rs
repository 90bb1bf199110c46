//! The benchmark's declaration, `BENCHMARK.json` at the repository root:
//! workload names, end-to-end metrics with their units, directions and
//! regression bounds, and the per-layer metrics. Compiled in, so the
//! program, its checks and its tests read one definition.

use serde_json::Value;

pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Declared {
    /// Default measuring time of one run, in seconds.
    pub run_seconds: u64,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

fn decls(v: &Value) -> Vec<Decl> {
    v.as_array()
        .expect("metric list")
        .iter()
        .map(|m| Decl {
            name: m["name"].as_str().expect("metric name").to_string(),
            unit: m["unit"].as_str().expect("metric unit").to_string(),
            lower_is_better: m["better"] == "lower",
            bound: m["bound"].as_f64(),
        })
        .collect()
}

pub fn declared() -> Declared {
    let v = Value::parse_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Declared {
        run_seconds: v["run_seconds"].as_u64().expect("run_seconds"),
        end_to_end: decls(&v["end_to_end"]),
        per_layer: decls(&v["per_layer"]),
    }
}

impl Declared {
    pub fn list(&self, traced: bool) -> &[Decl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn declaration_is_well_formed() {
        let d = declared();
        let v = Value::parse_str(BENCHMARK_JSON).unwrap();
        let declared_workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared_workloads, names);
        let mut seen = std::collections::BTreeSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
        }
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        for m in &d.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
    }
}

//! `oil-benchmark suite`: every workload, untraced then traced, each in a
//! process of its own, collected into one `results.json`.

use crate::host;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats;
use std::path::PathBuf;
use std::process::Command;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// How many times the whole set of runs is repeated (`compare` wants
    /// at least ten runs per workload and side).
    pub sets: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

/// The file a `run --out` leaves its detail object in.
pub fn detail_file(workload: &str, trace: bool) -> String {
    format!("run_{workload}_t{}.json", u8::from(trace))
}

/// Run the suite; `Ok(false)` when any op of any run failed.
pub fn run(config: &Config) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    std::fs::create_dir_all(&config.out).map_err(|e| format!("{}: {e}", config.out.display()))?;
    let provenance = host::provenance();

    let mut runs = Vec::new();
    let mut all_correct = true;
    for set in 0..config.sets {
        for w in WORKLOADS {
            for trace in [false, true] {
                let mut child = Command::new(&exe);
                child
                    .arg("run")
                    .args(["--workload", w.name])
                    .args(["--seed", &config.seed.to_string()])
                    .args(["--seconds", &config.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&config.out);
                if config.smoke {
                    child.arg("--smoke");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                all_correct &= status.success();
                let path = config.out.join(detail_file(w.name, trace));
                match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
                    Ok(text) => {
                        let mut detail = json::parse(&text)?;
                        if let Value::Obj(fields) = &mut detail {
                            fields.insert(0, ("set".to_string(), Value::from(set)));
                        }
                        runs.push(detail);
                    }
                    // A run that died before writing leaves nothing to
                    // collect; its exit status already failed the suite.
                    Err(e) => eprintln!("{}: {e}", path.display()),
                }
            }
        }
    }

    all_correct &= exact_counts_repeat(&runs);
    print_end_to_end(&runs);

    let results = Value::object([
        ("schema", Value::from(1u64)),
        ("provenance", provenance),
        ("seed", Value::from(config.seed)),
        ("seconds", Value::from(config.seconds)),
        ("smoke", Value::from(config.smoke)),
        ("sets", Value::from(config.sets)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = config.out.join("results.json");
    std::fs::write(&path, results.pretty(3)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// A metric's value in a run's detail object.
pub fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Is `run` the detail object of `workload`, traced or not?
pub fn is_run(run: &Value, workload: &str, trace: bool) -> bool {
    run.get("workload").and_then(Value::as_str) == Some(workload)
        && run.get("trace").and_then(Value::as_bool) == Some(trace)
}

/// With several sets: every exact count of a workload's traced run must
/// read the same in each.
fn exact_counts_repeat(runs: &[Value]) -> bool {
    let mut same = true;
    for w in WORKLOADS {
        let traced: Vec<&Value> = runs.iter().filter(|r| is_run(r, w.name, true)).collect();
        let Some((first, rest)) = traced.split_first() else {
            continue;
        };
        let exact = first.get("exact").and_then(Value::as_array).unwrap_or(&[]);
        for name in exact.iter().filter_map(Value::as_str) {
            for other in rest {
                if metric(first, name) != metric(other, name) {
                    eprintln!(
                        "FAILED: {}: exact count {name} differs between sets: {:?} vs {:?}",
                        w.name,
                        metric(first, name),
                        metric(other, name)
                    );
                    same = false;
                }
            }
        }
    }
    same
}

fn print_end_to_end(runs: &[Value]) {
    println!("\n== end-to-end (median over sets, spread = (q3-q1)/median)");
    for w in WORKLOADS {
        for d in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| is_run(r, w.name, false))
                .filter_map(|r| metric(r, d.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = stats::summarize(&values);
            let spread = match s.n {
                1 => String::new(),
                _ => format!(" spread {:.2}%", s.spread() * 100.0),
            };
            println!(
                "{:<15} {:<16} {:>16.6e} {:<4} n={}{spread}",
                w.name, d.name, s.median, d.unit, s.n
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(workload: &str, tokens: f64) -> Value {
        Value::object([
            ("workload", Value::from(workload)),
            ("trace", Value::from(true)),
            ("exact", Value::Arr(vec![Value::from("rt.static.tokens")])),
            (
                "metrics",
                Value::object([(
                    "rt.static.tokens",
                    Value::object([("value", Value::from(tokens))]),
                )]),
            ),
        ])
    }

    #[test]
    fn exact_counts_must_repeat_between_sets() {
        let same = [
            traced("pal_1w", 5.0),
            traced("pal_2w", 7.0),
            traced("pal_1w", 5.0),
        ];
        assert!(exact_counts_repeat(&same));
        let drifted = [traced("pal_1w", 5.0), traced("pal_1w", 6.0)];
        assert!(!exact_counts_repeat(&drifted));
        assert!(exact_counts_repeat(&[]));
    }
}

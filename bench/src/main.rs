//! `oil-benchmark` — the repo benchmark named by `BENCHMARK.json`.
//!
//! * `run --workload W --seed N --seconds S --trace 0|1` measures one
//!   workload in this process and prints, as its last line, the result
//!   object the builder's contract prescribes (`--trace 0`: every end-to-end
//!   metric; `--trace 1`: every per-layer metric);
//! * `suite` runs every workload, untraced then traced, each in a process
//!   of its own, and writes `results.json` plus one span file per workload;
//! * `compare parent.json change.json` judges two result files;
//! * `manifest` prints `BENCHMARK.json` from the metric tables.
//!
//! Everything is measured from outside the toolchain: public functions are
//! timed, public report fields are read. See `bench/README.md`.

mod compare;
mod corpus;
mod host;
mod json;
mod layers;
mod metrics;
mod pipeline;
mod programs;
mod runtime;
mod spans;
mod stats;
mod suite;

use json::Value;
use metrics::{Better, Measured, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The arguments of one `run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Horizons cut tenfold and the corpus to its small members: every
    /// metric name and every check, none of the steadiness.
    pub smoke: bool,
    /// Where the detail and span files go (nothing is written without it).
    pub out: Option<PathBuf>,
}

/// What one `run` measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted: one engine run or one program compile each.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub measured: Measured,
    /// Median, quartiles, minimum and count of every timing series, and the
    /// series itself (a few dozen samples) for whoever wants to look closer.
    pub summaries: Vec<(String, Summary, Vec<f64>)>,
    /// Ungated context: horizons, rates in other currencies, check time.
    pub infos: Vec<(String, f64)>,
    /// The host has fewer cores than the workload's worker count.
    pub degraded: bool,
    pub spans: Option<spans::Recorder>,
}

impl Outcome {
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED op #{}: {why}", self.attempted);
            self.failures.push(why);
        }
    }

    pub fn summary(&mut self, name: &str, values: &[f64]) -> Summary {
        let s = stats::summarize(values);
        self.summaries.push((name.to_string(), s, values.to_vec()));
        s
    }

    /// Summarize a per-repeat series and report its quartile on the *fast*
    /// side as the metric `name`. Whatever else runs on the (shared) host can
    /// only slow a repeat down, in bursts of seconds to minutes, so the
    /// series are skewed to the slow side and the median follows the bursts;
    /// `pal_2w` alone also scatters to the fast side. Over two ten-seed sets
    /// of every workload the worst spread was 15 % on the median, 11.5 % on
    /// the fast quartile and 20 % on the fast decile (see bench/README.md).
    /// The median and both quartiles stay in the summary.
    pub fn fast_quartile(&mut self, name: &str, values: &[f64], better: Better) {
        let s = self.summary(name, values);
        let fast = match better {
            Better::Higher => s.q3,
            Better::Lower => s.q1,
        };
        self.measured.set(name, fast);
    }

    /// The four end-to-end metrics from a run's per-repeat rates (items/s)
    /// and costs (CPU ns/item) and its set-up times (s).
    pub fn end_to_end(&mut self, rate: &[f64], cpu_ns: &[f64], setup_s: &[f64]) {
        self.fast_quartile("items_per_s", rate, Better::Higher);
        self.fast_quartile("cpu_ns_per_item", cpu_ns, Better::Lower);
        let setup = self.summary("setup_s", setup_s);
        self.measured.set("setup_s", setup.median);
        self.measured.set("peak_rss_mb", host::peak_rss_mib());
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.infos.push((name.to_string(), value));
    }
}

/// Set a workload up several times over and time each: at least 15 times,
/// and until 0.3 s have gone by (at most 400) so that a sub-millisecond
/// set-up still yields a steady median; 3 times when `quick`. Returns the
/// last set-up and the times in seconds.
pub fn timed_setups<T>(
    quick: bool,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let ready = set_up()?;
        seconds.push(t0.elapsed().as_secs_f64());
        let enough = match quick {
            true => seconds.len() >= 3,
            false => {
                seconds.len() >= 400
                    || (seconds.len() >= 15 && started.elapsed().as_secs_f64() > 0.3)
            }
        };
        if enough {
            return Ok((ready, seconds));
        }
    }
}

fn usage() -> String {
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: oil-benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       oil-benchmark suite [--seed N] [--seconds S] [--sets K] \
         [--smoke] [--out DIR]\n       oil-benchmark compare <parent.json> <change.json>\n       \
         oil-benchmark manifest",
        workloads.join("|")
    )
}

/// `--flag value` pairs and bare `--smoke`, after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} takes a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.take(flag)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot read `{raw}`")),
        }
    }

    fn take_switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`\n{}", usage())),
        }
    }
}

fn run_args(mut flags: Flags) -> Result<RunArgs, String> {
    let args = RunArgs {
        workload: flags
            .take("--workload")?
            .ok_or_else(|| format!("--workload is required\n{}", usage()))?,
        seed: flags.take_parsed("--seed", 1)?,
        seconds: flags.take_parsed("--seconds", RUN_SECONDS as f64)?,
        trace: match flags.take_parsed("--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        smoke: flags.take_switch("--smoke"),
        out: flags.take("--out")?.map(PathBuf::from),
    };
    flags.finish()?;
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Every metric of `table` by name with its unit, then the summaries, the
/// info fields and the op accounting.
fn print_report(args: &RunArgs, outcome: &Outcome, table: &[MetricDef]) {
    println!(
        "== {} seed={} trace={} seconds={}{}{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        if args.smoke { " smoke" } else { "" },
        if outcome.degraded { " DEGRADED" } else { "" },
    );
    for d in table {
        let value = outcome.measured.get(d.name).unwrap_or(0.0);
        let tag = if d.exact { " (exact)" } else { "" };
        println!("metric {:<44} {:>18.6} {}{tag}", d.name, value, d.unit);
    }
    for (name, s, _) in &outcome.summaries {
        println!(
            "summary {name}: median {:.6e} q1 {:.6e} q3 {:.6e} min {:.6e} n {} spread {:.2}%",
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.n,
            s.spread() * 100.0
        );
    }
    for (name, value) in &outcome.infos {
        println!("info {name} = {value}");
    }
    println!(
        "ops: attempted {} failed {} (ops_failed_share {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
}

/// The detail object of a run: its arguments, the contract's `result`
/// fields and everything else the run learned.
fn detail_json(args: &RunArgs, outcome: &Outcome, table: &[MetricDef], result: &Value) -> Value {
    let strings =
        |items: &mut dyn Iterator<Item = &str>| Value::Arr(items.map(Value::from).collect());
    let summaries = outcome.summaries.iter().map(|(name, s, samples)| {
        (
            name.as_str(),
            Value::object([
                ("median", Value::from(s.median)),
                ("q1", Value::from(s.q1)),
                ("q3", Value::from(s.q3)),
                ("min", Value::from(s.min)),
                ("n", Value::from(s.n)),
                (
                    "samples",
                    Value::Arr(samples.iter().copied().map(Value::from).collect()),
                ),
            ]),
        )
    });
    let infos = outcome
        .infos
        .iter()
        .map(|(name, value)| (name.as_str(), Value::from(*value)));
    let mut fields = vec![
        ("workload".to_string(), Value::from(args.workload.as_str())),
        ("seed".to_string(), Value::from(args.seed)),
        ("trace".to_string(), Value::from(args.trace)),
        ("seconds".to_string(), Value::from(args.seconds)),
        ("smoke".to_string(), Value::from(args.smoke)),
        ("degraded".to_string(), Value::from(outcome.degraded)),
        ("loadavg_1m".to_string(), Value::from(host::loadavg())),
    ];
    fields.extend(result.as_object().unwrap_or(&[]).iter().cloned());
    fields.extend([
        (
            "failures".to_string(),
            strings(&mut outcome.failures.iter().map(String::as_str)),
        ),
        (
            "exact".to_string(),
            strings(&mut table.iter().filter(|d| d.exact).map(|d| d.name)),
        ),
        ("summaries".to_string(), Value::object(summaries)),
        ("info".to_string(), Value::object(infos)),
    ]);
    Value::Obj(fields)
}

/// Measure one workload; print every metric by name with its unit, then the
/// contract's result object as the last line.
fn run(args: &RunArgs) -> Result<bool, String> {
    let outcome = match runtime::spec(&args.workload) {
        Some(spec) => runtime::run(&spec, args)?,
        None if args.workload == "compile_corpus" => corpus::run(args)?,
        None => return Err(format!("unknown workload `{}`\n{}", args.workload, usage())),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Value::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", outcome.measured.to_json(table)),
    ]);
    print_report(args, &outcome, table);

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let write = |name: String, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(
            suite::detail_file(&args.workload, args.trace),
            detail_json(args, &outcome, table, &result).pretty(2),
        )?;
        if let Some(rec) = &outcome.spans {
            write(
                format!("trace_{}.json", args.workload),
                rec.to_json().pretty(1),
            )?;
        }
    }

    println!("{result}");
    Ok(correct)
}

fn dispatch(mut argv: Vec<String>) -> Result<bool, String> {
    if argv.is_empty() {
        return Err(usage());
    }
    let command = argv.remove(0);
    match command.as_str() {
        "run" => run(&run_args(Flags(argv))?),
        "suite" => {
            let mut flags = Flags(argv);
            let smoke = flags.take_switch("--smoke");
            let seconds = if smoke { 1.0 } else { RUN_SECONDS as f64 };
            let config = suite::Config {
                seed: flags.take_parsed("--seed", 1)?,
                seconds: flags.take_parsed("--seconds", seconds)?,
                sets: flags.take_parsed("--sets", 1usize)?,
                smoke,
                out: flags
                    .take("--out")?
                    .map_or_else(|| PathBuf::from("bench/out"), PathBuf::from),
            };
            flags.finish()?;
            suite::run(&config)
        }
        "compare" => {
            let [parent, change] = argv.as_slice() else {
                return Err(usage());
            };
            let read = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            compare::compare(&read(parent)?, &read(change)?).map(|()| true)
        }
        "manifest" => {
            println!("{}", metrics::manifest().pretty(2));
            Ok(true)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("oil-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn the_contract_flags_parse_in_any_order() {
        let args = run_args(flags(&[
            "--trace",
            "1",
            "--seconds",
            "2.5",
            "--workload",
            "pal_1w",
            "--seed",
            "42",
            "--smoke",
        ]))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds),
            ("pal_1w", 42, 2.5)
        );
        assert!(args.trace && args.smoke && args.out.is_none());
        let args = run_args(flags(&["--workload", "x"])).unwrap();
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (1, RUN_SECONDS as f64, false)
        );
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seed", "minus-one"],
            &["--workload", "x", "--seconds", "0"],
            &["--workload", "x", "--seconds", "61"],
            &["--workload", "x", "stray"],
        ] {
            assert!(run_args(flags(bad)).is_err(), "{bad:?}");
        }
        assert!(dispatch(vec![]).is_err());
        assert!(dispatch(vec!["frobnicate".into()]).is_err());
        assert!(dispatch(vec!["compare".into(), "only-one.json".into()]).is_err());
        let unknown = RunArgs {
            workload: "no_such_workload".into(),
            ..run_args(flags(&["--workload", "x"])).unwrap()
        };
        assert!(run(&unknown).is_err());
    }

    #[test]
    fn failed_ops_are_counted_against_attempts() {
        let mut out = Outcome::default();
        out.attempt(Ok(()));
        out.attempt(Err("sink diverged".into()));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, vec!["sink diverged".to_string()]);
        let s = out.summary("x", &[1.0, 2.0, 3.0]);
        assert_eq!((s.median, out.summaries.len()), (2.0, 1));
        let series: Vec<f64> = (1..=19).map(f64::from).collect();
        out.fast_quartile("items_per_s", &series, Better::Higher);
        out.fast_quartile("cpu_ns_per_item", &series, Better::Lower);
        assert_eq!(out.measured.get("items_per_s"), Some(15.0));
        assert_eq!(out.measured.get("cpu_ns_per_item"), Some(5.0));
    }
}

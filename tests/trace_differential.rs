//! Tracing must observe, never perturb: differential verification of
//! `oil::rt::trace` against untraced runs.
//!
//! Three oracles:
//!
//! 1. **Bit-identity** — for a corpus of generated programs, both engines
//!    at every worker count produce byte-for-byte identical value
//!    streams, sink samples and firing counts with tracing on and off.
//!    Tracing enabled may *record* more; it must never *change* anything.
//! 2. **Chrome schema** — the Perfetto export is well-formed JSON (parsed
//!    by a hand-rolled reader, no serde) whose events all carry
//!    `pid`/`tid`/`ts` (and `dur` for `"X"` spans) and whose spans form a
//!    proper stack per track: two spans on one track are either disjoint
//!    or one contains the other. Perfetto renders overlapping non-nested
//!    spans misleadingly, so the exporter owes this invariant.
//! 3. **Capacity** — observed ring high-water marks stay within the
//!    CTA-proven capacities on both engines (self-timed and
//!    static-order). This is the paper's buffer-sizing theorem checked *at
//!    runtime*, per run.
//!
//! The reference interpreter (`oil::rt::execute`) is not traced: an oracle
//! is compared, not profiled.

use oil::compiler::schedule::{synthesize, ScheduleError, SynthesisConfig};
use oil::compiler::{compile, rtgraph, CompileError, CompilerOptions};
use oil::gen::ProgramScenario;
use oil::rt::{
    execute_selftimed, execute_staticsched, KernelLibrary, SelfTimedConfig, StaticConfig,
    TraceReport,
};
use oil::sim::picos;

const WORKERS: [usize; 3] = [1, 2, 4];
/// Seeds swept; the corpus tests demand at least this many compile.
const MIN_ACCEPTED: usize = 8;

fn compile_scenario(scenario: &ProgramScenario) -> Option<oil::compiler::CompiledProgram> {
    match compile(
        &scenario.source,
        &scenario.registry,
        &CompilerOptions::default(),
    ) {
        Ok(compiled) => Some(compiled),
        Err(CompileError::Temporal(_)) => None,
        Err(CompileError::Frontend(diags)) => panic!(
            "seed {}: generated program must be front-end valid, got {diags:?}\n{}",
            scenario.seed, scenario.source
        ),
    }
}

/// A saturated event buffer silently truncates the evidence every other
/// oracle relies on: the corpus runs are sized well under the per-worker
/// capacity, so a single dropped event is a bug, not a tuning issue.
fn assert_no_drops(seed: u64, what: &str, tr: Option<&TraceReport>) {
    let tr = tr.expect("tracing was enabled");
    assert_eq!(
        tr.dropped, 0,
        "seed {seed}: {what}: traced run dropped {} event(s) — the trace \
         is no longer evidence",
        tr.dropped
    );
}

/// Byte-for-byte comparison of everything the value plane observes.
fn assert_bit_identical(
    seed: u64,
    what: &str,
    base: (
        &oil::rt::ValueTrace,
        &[oil::rt::SinkStream],
        &[(String, u64)],
    ),
    traced: (
        &oil::rt::ValueTrace,
        &[oil::rt::SinkStream],
        &[(String, u64)],
    ),
) {
    if let Some(d) = base.0.first_divergence(traced.0) {
        panic!("seed {seed}: {what}: tracing changed a value stream: {d}");
    }
    assert_eq!(
        base.2, traced.2,
        "seed {seed}: {what}: tracing changed firing counts"
    );
    assert_eq!(
        base.1.len(),
        traced.1.len(),
        "seed {seed}: {what}: sink count"
    );
    for (a, b) in base.1.iter().zip(traced.1) {
        assert_eq!(
            a.consumed, b.consumed,
            "seed {seed}: {what}: sink `{}` consumed",
            a.name
        );
        assert_eq!(
            a.values, b.values,
            "seed {seed}: {what}: sink `{}` samples",
            a.name
        );
    }
}

#[test]
fn traced_runs_are_bit_identical_to_untraced_on_all_engines() {
    let mut accepted = 0usize;
    for seed in 0..24u64 {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        accepted += 1;
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        for &threads in &WORKERS {
            // Self-timed: schedule-dependent interleavings, schedule-
            // invariant values — tracing must stay on the invariant side.
            let run_selftimed = |trace: bool| {
                execute_selftimed(
                    &graph,
                    &plan,
                    &KernelLibrary::new(),
                    picos(0.05),
                    &SelfTimedConfig {
                        threads,
                        warmup_samples: 4,
                        trace,
                        ..SelfTimedConfig::default()
                    },
                )
            };
            let base = run_selftimed(false);
            let traced = run_selftimed(true);
            assert!(traced.trace_report.is_some());
            assert_no_drops(
                seed,
                &format!("selftimed@{threads}"),
                traced.trace_report.as_ref(),
            );
            assert_bit_identical(
                seed,
                &format!("selftimed@{threads}"),
                (&base.values, &base.sinks, &base.node_firings),
                (&traced.values, &traced.sinks, &traced.node_firings),
            );

            // Static-order, when the graph admits a schedule.
            let schedule = match synthesize(&graph, &plan, threads, &SynthesisConfig::from_env()) {
                Ok(s) => s,
                Err(ScheduleError::NonUniformCluster { .. }) => continue,
                Err(e) => panic!("seed {seed}: synthesis at {threads}: {e}"),
            };
            let run_static = |trace: bool| {
                execute_staticsched(
                    &graph,
                    &schedule,
                    &KernelLibrary::new(),
                    picos(0.05),
                    &StaticConfig {
                        record_values: true,
                        warmup_samples: 4,
                        trace,
                        ..StaticConfig::default()
                    },
                )
            };
            let base = run_static(false);
            let traced = run_static(true);
            assert!(traced.trace_report.is_some());
            assert_no_drops(
                seed,
                &format!("staticsched@{threads}"),
                traced.trace_report.as_ref(),
            );
            assert_bit_identical(
                seed,
                &format!("staticsched@{threads}"),
                (&base.values, &base.sinks, &base.node_firings),
                (&traced.values, &traced.sinks, &traced.node_firings),
            );
        }
    }
    assert!(
        accepted >= MIN_ACCEPTED,
        "corpus too thin: only {accepted} of 24 seeds compiled"
    );
}

#[test]
fn ring_highwater_stays_within_cta_capacity_on_the_corpus() {
    let mut accepted = 0usize;
    for seed in 0..24u64 {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        accepted += 1;
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        for &threads in &WORKERS {
            let report = execute_selftimed(
                &graph,
                &plan,
                &KernelLibrary::new(),
                picos(0.05),
                &SelfTimedConfig {
                    threads,
                    warmup_samples: 4,
                    trace: true,
                    ..SelfTimedConfig::default()
                },
            );
            assert_rings_within(seed, "selftimed", threads, report.trace_report.as_ref());

            let schedule = match synthesize(&graph, &plan, threads, &SynthesisConfig::from_env()) {
                Ok(s) => s,
                Err(ScheduleError::NonUniformCluster { .. }) => continue,
                Err(e) => panic!("seed {seed}: synthesis at {threads}: {e}"),
            };
            let report = execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.05),
                &StaticConfig {
                    record_values: false,
                    warmup_samples: 4,
                    trace: true,
                    ..StaticConfig::default()
                },
            );
            assert_rings_within(seed, "staticsched", threads, report.trace_report.as_ref());
            // The bound checked above is the size the schedule proved — for
            // crossing rings as for local ones — floored at the CTA capacity.
            let rings = &report.trace_report.as_ref().expect("traced").rings;
            for ((b, buffer), ring) in graph.buffers.iter_enumerated().zip(rings) {
                let declared = buffer.capacity.max(buffer.initial_tokens).max(1);
                assert_eq!(
                    ring.capacity,
                    declared.max(schedule.level_max[b] as usize),
                    "seed {seed}: staticsched@{threads}: ring `{}` (crossing: {})",
                    ring.name,
                    ring.crossing
                );
            }
        }
    }
    assert!(
        accepted >= MIN_ACCEPTED,
        "corpus too thin: only {accepted} of 24 seeds compiled"
    );
}

fn assert_rings_within(seed: u64, engine: &str, threads: usize, tr: Option<&TraceReport>) {
    let tr = tr.expect("tracing was enabled");
    if tr.rings_within_capacity() {
        return;
    }
    let over: Vec<String> = tr
        .rings
        .iter()
        .filter(|r| r.highwater > r.capacity)
        .map(|r| {
            format!(
                "`{}` highwater {} > capacity {}",
                r.name, r.highwater, r.capacity
            )
        })
        .collect();
    panic!(
        "seed {seed}: {engine}@{threads}: observed ring occupancy exceeds the \
         CTA-proven bound:\n  {}",
        over.join("\n  ")
    );
}

// ---------------------------------------------------------------------------
// Chrome trace-event schema: a minimal hand-rolled JSON reader (the runtime
// deliberately has no serde) and a per-track span-stack validator.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|c| *c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(c) => out.push(*c as char),
                        None => return Err("unterminated escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // The exporter only emits ASCII names; pass bytes
                    // through so a future UTF-8 name still round-trips.
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected , or }} at byte {}", self.pos)),
            }
        }
    }
}

/// Timestamps arrive as fractional microseconds with nanosecond precision
/// (`123.456`); convert back to integer nanoseconds for exact comparisons.
fn to_ns(us: f64) -> u64 {
    (us * 1000.0).round() as u64
}

fn validate_chrome_trace(label: &str, raw: &str) {
    let root = Parser::parse(raw).unwrap_or_else(|e| panic!("{label}: unparseable JSON: {e}"));
    let events = root
        .get("traceEvents")
        .and_then(|v| match v {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{label}: missing traceEvents array"));
    assert!(!events.is_empty(), "{label}: empty trace");

    // Per-tid stacks of open (start_ns, end_ns) spans. Events within a tid
    // are exported sorted by (start, -duration), so a simple stack
    // suffices: pop everything that ended before the new span starts, then
    // the new span must fit entirely inside whatever is still open.
    let mut stacks: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    let mut spans = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{label}: event without ph: {ev:?}"));
        let pid = ev.get("pid").and_then(Json::as_num);
        let tid = ev.get("tid").and_then(Json::as_num);
        assert_eq!(pid, Some(1.0), "{label}: bad pid: {ev:?}");
        let tid = tid.unwrap_or_else(|| panic!("{label}: missing tid: {ev:?}")) as u64;
        match ph {
            "M" => {
                // Thread-name metadata carries no timestamp.
                assert!(
                    ev.get("args").and_then(|a| a.get("name")).is_some(),
                    "{label}: metadata without a name: {ev:?}"
                );
            }
            "i" => {
                let ts = ev.get("ts").and_then(Json::as_num);
                assert!(
                    ts.is_some_and(|t| t >= 0.0),
                    "{label}: instant without ts: {ev:?}"
                );
            }
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_num)
                    .unwrap_or_else(|| panic!("{label}: span without ts: {ev:?}"));
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .unwrap_or_else(|| panic!("{label}: span without dur: {ev:?}"));
                assert!(ts >= 0.0 && dur >= 0.0, "{label}: negative span: {ev:?}");
                assert!(
                    ev.get("name").and_then(Json::as_str).is_some(),
                    "{label}: span without a name: {ev:?}"
                );
                let (start, end) = (to_ns(ts), to_ns(ts) + to_ns(dur));
                let stack = stacks.entry(tid).or_default();
                while stack.last().is_some_and(|&(_, open_end)| open_end <= start) {
                    stack.pop();
                }
                if let Some(&(open_start, open_end)) = stack.last() {
                    assert!(
                        start >= open_start && end <= open_end,
                        "{label}: tid {tid}: span [{start}, {end}] ns overlaps but is \
                         not nested in the open span [{open_start}, {open_end}] ns"
                    );
                }
                stack.push((start, end));
                spans += 1;
            }
            other => panic!("{label}: unexpected phase `{other}`: {ev:?}"),
        }
    }
    assert!(spans > 0, "{label}: no spans at all");
}

#[test]
fn chrome_trace_export_is_wellformed_and_properly_nested() {
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let registry = oil::pal::pal_registry();
    let graph = rtgraph::lower_with_registry(&compiled, &registry);
    let plan = rtgraph::plan(&graph);
    let duration = picos(2e-3);

    for &threads in &[1usize, 2] {
        let report = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::pal(),
            duration,
            &SelfTimedConfig {
                threads,
                record_values: false,
                trace: true,
                ..SelfTimedConfig::default()
            },
        );
        let tr = report.trace_report.expect("tracing was enabled");
        validate_chrome_trace(&format!("selftimed@{threads}"), &tr.chrome_trace_json());

        let schedule = synthesize(&graph, &plan, threads, &SynthesisConfig::from_env())
            .expect("the PAL graph is schedulable");
        let report = execute_staticsched(
            &graph,
            &schedule,
            &KernelLibrary::pal(),
            duration,
            &StaticConfig {
                record_values: false,
                warmup_samples: 256,
                trace: true,
                ..StaticConfig::default()
            },
        );
        let tr = report.trace_report.expect("tracing was enabled");
        let raw = tr.chrome_trace_json();
        validate_chrome_trace(&format!("staticsched@{threads}"), &raw);
        // The compiled engine's export also carries the compile-phase
        // track (tid 0) — the one place compiler latency is visible.
        assert!(
            raw.contains("\"cat\":\"compile\""),
            "staticsched@{threads}: compile phases missing from the export"
        );
    }
}

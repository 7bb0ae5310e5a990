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
//!    by a hand-rolled reader) whose events all carry
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

mod support;

use oil::rt::{
    execute_selftimed, execute_staticsched, KernelLibrary, SelfTimedConfig, StaticConfig,
    TraceReport,
};
use oil::sim::picos;
use support::{assert_identical, build_program, matrix, programs, Knobs};

/// Seeds swept; the corpus tests demand at least this many compile.
const MIN_ACCEPTED: usize = 8;

/// A saturated event buffer silently truncates the evidence every other
/// oracle relies on: the corpus runs are sized well under the per-worker
/// capacity, so a single dropped event is a bug, not a tuning issue.
fn traced<'a>(at: &str, tr: Option<&'a TraceReport>) -> &'a TraceReport {
    let tr = tr.unwrap_or_else(|| panic!("{at}: tracing was enabled"));
    assert_eq!(
        tr.dropped, 0,
        "{at}: traced run dropped {} event(s) — the trace is no longer evidence",
        tr.dropped
    );
    tr
}

#[test]
fn traced_runs_are_bit_identical_to_untraced_on_all_engines() {
    // Self-timed runs interleave schedule-dependently with
    // schedule-invariant values, static ones replay the synthesised lists:
    // tracing must stay on the invariant side of both.
    let mut accepted = 0usize;
    for (at, scenario) in programs(24, 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        accepted += 1;
        let graph = &exe.graph;
        for cell in matrix(&[1, 2, 4]) {
            let at = format!("{at}: {cell}");
            let run = |trace| {
                cell.run(
                    &at,
                    graph,
                    0.05,
                    Knobs {
                        trace,
                        metrics: None,
                    },
                )
            };
            let (base, traced_run) = (run(false), run(true));
            traced(&at, traced_run.trace_report());
            assert_identical(&format!("{at}: traced vs untraced"), &base, &traced_run);
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
    for (at, scenario) in programs(24, 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        accepted += 1;
        let graph = &exe.graph;
        for cell in matrix(&[1, 2, 4]) {
            let at = format!("{at}: {cell}");
            let knobs = Knobs {
                trace: true,
                metrics: None,
            };
            let report = cell.run(&at, graph, 0.05, knobs);
            let tr = traced(&at, report.trace_report());
            let over: Vec<String> = (tr.rings.iter())
                .filter(|r| r.highwater > r.capacity)
                .map(|r| format!("`{}` {} > {}", r.name, r.highwater, r.capacity))
                .collect();
            assert!(
                tr.rings_within_capacity(),
                "{at}: observed ring occupancy (high-water > capacity) exceeds the CTA-proven \
                 bound:\n  {}",
                over.join("\n  ")
            );
            // The static bound checked above is the size the schedule
            // proved — for crossing rings as for local ones — floored at
            // the CTA capacity.
            let Some(schedule) = cell.schedule(&at, graph) else {
                continue;
            };
            for ((b, buffer), ring) in graph.buffers.iter_enumerated().zip(&tr.rings) {
                let declared = buffer.capacity.max(buffer.initial_tokens).max(1);
                assert_eq!(
                    ring.capacity,
                    declared.max(schedule.level_max[b] as usize),
                    "{at}: ring `{}` (crossing: {})",
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

// ---------------------------------------------------------------------------
// Chrome trace-event schema: a minimal hand-rolled JSON reader and a
// per-track span-stack validator.
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

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        match p.peek() {
            None => Ok(v),
            Some(_) => Err(format!("trailing bytes at {}", p.pos)),
        }
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(format!("expected `{}` at byte {}", b as char, self.pos)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let field = |p: &mut Self| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                };
                Ok(Json::Obj(self.list(b'}', field)?))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Json::Arr(self.list(b']', Self::value)?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => self.scalar(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Comma-separated items up to `close`, the opening bracket consumed.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    /// A literal or a number.
    fn scalar(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
        {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        let numeric = !word.is_empty() && word.bytes().all(|b| b"0123456789+-.eE".contains(&b));
        match word {
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            "null" => Ok(Json::Null),
            _ if numeric => word
                .parse()
                .map(Json::Num)
                .map_err(|e| format!("{e} at byte {start}")),
            _ => Err(format!("bad literal at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let escaped = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                // The exporter only emits ASCII names; pass bytes through
                // so a future UTF-8 name still round-trips.
                c => out.push(c as char),
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
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        panic!("{label}: missing traceEvents array");
    };
    assert!(!events.is_empty(), "{label}: empty trace");

    // Per-tid stacks of open (start_ns, end_ns) spans. Events within a tid
    // are exported sorted by (start, -duration), so a simple stack
    // suffices: pop everything that ended before the new span starts, then
    // the new span must fit entirely inside whatever is still open.
    let mut stacks: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    let mut spans = 0usize;
    for ev in events {
        let num = |key| ev.get(key).and_then(Json::as_num);
        let named = |v: Option<&Json>| v.and_then(Json::as_str).is_some();
        let ph = ev.get("ph").and_then(Json::as_str);
        let ph = ph.unwrap_or_else(|| panic!("{label}: event without ph: {ev:?}"));
        assert_eq!(num("pid"), Some(1.0), "{label}: bad pid: {ev:?}");
        let tid = num("tid").unwrap_or_else(|| panic!("{label}: missing tid: {ev:?}")) as u64;
        match ph {
            // Thread-name metadata carries no timestamp.
            "M" => {
                let name = ev.get("args").and_then(|a| a.get("name"));
                assert!(name.is_some(), "{label}: metadata without a name: {ev:?}");
            }
            "i" => {
                let ts = num("ts");
                assert!(
                    ts.is_some_and(|t| t >= 0.0),
                    "{label}: instant without ts: {ev:?}"
                );
            }
            "X" => {
                let ts = num("ts").unwrap_or_else(|| panic!("{label}: span without ts: {ev:?}"));
                let dur = num("dur").unwrap_or_else(|| panic!("{label}: span without dur: {ev:?}"));
                assert!(ts >= 0.0 && dur >= 0.0, "{label}: negative span: {ev:?}");
                assert!(
                    named(ev.get("name")),
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
    // The reader itself: well-formed JSON parses, a malformed one does not.
    let sample = r#" {"a": [1, -2.5e3, true, null, {"b": "c\"d"}], "e": {}} "#;
    assert!(Parser::parse(sample).is_ok(), "{sample}");
    for bad in [
        r#"{"a": [1, 2}"#,
        r#"{"a" 1}"#,
        "[1,]",
        "[nan]",
        r#"{"a": 1} x"#,
    ] {
        assert!(Parser::parse(bad).is_err(), "{bad}");
    }

    let (duration, pal_lib) = (picos(2e-3), KernelLibrary::pal());
    for threads in [1, 2] {
        let pal = support::pal(threads, &support::env().synthesis);
        let config = SelfTimedConfig {
            threads,
            record_values: false,
            trace: true,
            ..SelfTimedConfig::default()
        };
        let report = execute_selftimed(&pal.graph, &pal.plan, &pal_lib, duration, &config);
        let tr = report.trace_report.expect("tracing was enabled");
        validate_chrome_trace(&format!("selftimed@{threads}"), &tr.chrome_trace_json());

        let config = StaticConfig {
            record_values: false,
            warmup_samples: 256,
            trace: true,
            ..StaticConfig::default()
        };
        let report = execute_staticsched(&pal.graph, &pal.schedule, &pal_lib, duration, &config);
        let raw = report
            .trace_report
            .expect("tracing was enabled")
            .chrome_trace_json();
        validate_chrome_trace(&format!("staticsched@{threads}"), &raw);
        // The compiled engine's export also carries the compile-phase
        // track (tid 0) — the one place compiler latency is visible.
        assert!(
            raw.contains("\"cat\":\"compile\""),
            "staticsched@{threads}: compile phases missing from the export"
        );
    }
}

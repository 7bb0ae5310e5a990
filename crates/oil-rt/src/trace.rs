//! Low-overhead runtime tracing and CTA-conformance telemetry.
//!
//! The paper's claim is that CTA *predicts* temporal behaviour — rates,
//! buffer levels, seam latency — in polynomial time. This module records
//! what actually happened so the prediction can be held to account at
//! runtime: per-worker event buffers of timestamped spans (unit firings,
//! fused super-steps, transition seams, parks, backpressure waits), ring
//! occupancy high-water marks against the CTA-proven capacities, and the
//! compile-phase timings of the schedule synthesis itself.
//!
//! ## Overhead discipline
//!
//! Tracing must never perturb what it observes:
//!
//! - **Disabled is a single branch.** Every engine stores an
//!   `Option<WorkerTracer>`; the hot paths test `if let Some(t)` and do
//!   nothing else. No clock reads, no allocation, no atomics.
//! - **Enabled writes are worker-local.** A [`WorkerTracer`] is owned
//!   exclusively by one worker thread: recording an event is a bounds
//!   check and a `Vec` push into pre-sized storage, never a lock or a
//!   shared cache line. Buffers are bounded ([`EVENTS_CAP`]); overflow
//!   increments a `dropped` counter instead of growing.
//! - **Clock reads stay off the fast path where possible.** Ring wait
//!   instrumentation ([`crate::ring::WaitStats`]) reads the clock only
//!   after the lock-free fast path has already failed — the blocked path
//!   is cold by construction.
//!
//! Because recording touches only worker-local memory, a traced run is
//! bit-identical to an untraced run on every differential oracle; the
//! `trace_differential` suite proves it on the corpus.
//!
//! ## Exporters
//!
//! [`TraceReport::summary_json`] emits a stable JSON summary (per-unit
//! firing histograms, per-ring high-water vs proven capacity, park/steal/
//! backpressure counts, and — when given a [`RateConformance`] — the
//! observed-vs-predicted sink rates with their verdict).
//! [`TraceReport::chrome_trace_json`] emits Chrome trace-event format:
//! one track per worker plus a compiler track, loadable directly in
//! Perfetto or `chrome://tracing`.

use std::time::Instant;

use crate::measure::RateConformance;
use crate::ring::WaitStats;
use oil_compiler::rtgraph::{RtGraph, RtNodeId};

/// The display label of the scheduling unit over `members` (trace
/// attribution): the node's name, `first(+n)` for a serial cluster resolved
/// onto its first member, `modal[a|b]` for a modal unit.
pub(crate) fn unit_label(
    graph: &RtGraph,
    members: impl IntoIterator<Item = RtNodeId>,
    modal: bool,
) -> String {
    let names = members.into_iter().map(|m| graph.nodes[m].name.as_str());
    let names: Vec<&str> = names.collect();
    match names.as_slice() {
        _ if modal => format!("modal[{}]", names.join("|")),
        [only] => only.to_string(),
        [first, rest @ ..] => format!("{first}(+{})", rest.len()),
        [] => String::new(),
    }
}

/// Per-worker event capacity. Beyond this, events are counted as dropped
/// rather than grown: a trace buffer that reallocates mid-run would put
/// allocator traffic on the measured path.
pub const EVENTS_CAP: usize = 1 << 16;

/// What a recorded event describes. Spans carry a duration; instants
/// record a point in time (duration zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A unit firing pass (span); `arg` = worker-local unit index.
    Firing,
    /// A fused super-step replay (span); `arg` = worker-local unit index
    /// of the head stage.
    SuperStep,
    /// A mode-transition seam — the drain/fill program between two modes
    /// (span); `arg` packs `(from << 16) | to`.
    Seam,
    /// A mode switch took effect (instant); `arg` = the new arm.
    ModeSwitch,
    /// A worker parked on the idle condvar (span over the blocked wait).
    Park,
    /// A worker woke from a park (instant).
    Unpark,
    /// A quiescence census completed on this worker (instant);
    /// `arg` = 1 when the census diagnosed deadlock.
    Census,
    /// A ring push/pop blocked on a full/empty SPSC crossing (span);
    /// `arg` = global buffer index.
    Backpressure,
}

/// One recorded event: nanoseconds since the run epoch, duration, kind
/// and a kind-specific argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start, in nanoseconds since the engine's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u32,
}

/// The per-worker recorder. Owned exclusively by one worker thread; the
/// engine collects it at teardown.
#[derive(Debug)]
pub struct WorkerTracer {
    epoch: Instant,
    events: Vec<TraceEvent>,
    dropped: u64,
    /// Blocked-path statistics from the rings this worker touches.
    pub wait: WaitStats,
    /// Condvar parks taken by this worker (self-timed idle protocol).
    pub parks: u64,
    /// Wakes from those parks.
    pub unparks: u64,
    /// Per global buffer: highest producer-side occupancy this worker
    /// observed right after one of its own pushes.
    pub highwater: Vec<u32>,
}

impl WorkerTracer {
    /// A tracer sharing `epoch` with its sibling workers (one epoch per
    /// run keeps all tracks on one timeline) and tracking `n_buffers`
    /// occupancy high-water marks.
    pub fn new(epoch: Instant, n_buffers: usize) -> Self {
        WorkerTracer {
            epoch,
            events: Vec::with_capacity(EVENTS_CAP.min(1 << 12)),
            dropped: 0,
            wait: WaitStats::default(),
            parks: 0,
            unparks: 0,
            highwater: vec![0; n_buffers],
        }
    }

    /// Nanoseconds since the run epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < EVENTS_CAP {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a span that started at `start_ns` (from [`Self::now_ns`])
    /// and ends now.
    #[inline]
    pub fn span(&mut self, kind: EventKind, arg: u32, start_ns: u64) {
        let end = self.now_ns();
        self.push(TraceEvent {
            ts_ns: start_ns,
            dur_ns: end.saturating_sub(start_ns),
            kind,
            arg,
        });
    }

    /// Record an instantaneous event.
    #[inline]
    pub fn instant(&mut self, kind: EventKind, arg: u32) {
        let ts_ns = self.now_ns();
        self.push(TraceEvent {
            ts_ns,
            dur_ns: 0,
            kind,
            arg,
        });
    }

    /// Record a backpressure span on global buffer `b` retroactively: the
    /// wait of `dur_ns` just ended, so the span ran from `now - dur_ns` to
    /// now. Used by engines that learn the blocked duration only from the
    /// [`WaitStats`] delta around a ring call.
    #[inline]
    pub fn backpressure(&mut self, b: u32, dur_ns: u64) {
        let end = self.now_ns();
        self.push(TraceEvent {
            ts_ns: end.saturating_sub(dur_ns),
            dur_ns,
            kind: EventKind::Backpressure,
            arg: b,
        });
    }

    /// Note a post-push occupancy `level` on global buffer `b`.
    #[inline]
    pub fn note_level(&mut self, b: usize, level: usize) {
        let hw = &mut self.highwater[b];
        *hw = (*hw).max(level as u32);
    }

    /// Events dropped after [`EVENTS_CAP`] filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Aggregated counters across all workers of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Condvar + ring parks across all workers.
    pub parks: u64,
    /// Wakes from condvar parks.
    pub unparks: u64,
    /// `yield_now` calls on blocked ring paths.
    pub spin_yields: u64,
    /// Ring operations that entered the blocked path.
    pub backpressure_waits: u64,
    /// Total nanoseconds spent blocked on rings.
    pub backpressure_wait_ns: u64,
    /// Mode switches observed.
    pub mode_switches: u64,
    /// Transition seams replayed.
    pub seams: u64,
    /// Total nanoseconds inside seam (drain/fill) spans.
    pub seam_latency_ns: u64,
    /// The longest single seam span.
    pub seam_latency_max_ns: u64,
}

/// One SPSC crossing (or local ring) in the telemetry: the proven size of
/// the ring next to the occupancy high-water mark the run reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingStat {
    /// Buffer name (from the runtime graph).
    pub name: String,
    /// The size the engine gave the ring: the CTA capacity, or — in the
    /// static-order engine — the schedule's proven `level_max` where fused
    /// and coalesced transfers need more.
    pub capacity: usize,
    /// Highest occupancy observed after a push.
    pub highwater: usize,
    /// Whether the buffer crosses a worker boundary (the only places the
    /// static/self-timed engines synchronise).
    pub crossing: bool,
}

/// One worker's resolved track: events plus the label table that
/// `Firing`/`SuperStep` args index into.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTrack {
    /// Track name ("worker-0", "scheduler", ...).
    pub name: String,
    /// Recorded events (worker-local order).
    pub events: Vec<TraceEvent>,
    /// Unit labels; `Firing`/`SuperStep` events' `arg` indexes here.
    pub labels: Vec<String>,
}

/// The assembled observability report of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Which engine produced the run.
    pub engine: &'static str,
    /// Worker count.
    pub workers: usize,
    /// One track per worker (plus auxiliary tracks like "scheduler").
    pub tracks: Vec<TraceTrack>,
    /// Aggregated counters.
    pub counters: TraceCounters,
    /// Per-ring capacity vs high-water telemetry.
    pub rings: Vec<RingStat>,
    /// Compile-phase timings `(name, dur_ns)` of the schedule synthesis
    /// (static-order engine only; empty for the dynamic engines).
    pub phases: Vec<(String, u64)>,
    /// Events dropped across all workers after buffers filled.
    pub dropped: u64,
}

impl TraceReport {
    /// An empty report for `engine` with `workers` workers.
    pub fn new(engine: &'static str, workers: usize) -> Self {
        TraceReport {
            engine,
            workers,
            tracks: Vec::new(),
            counters: TraceCounters::default(),
            rings: Vec::new(),
            phases: Vec::new(),
            dropped: 0,
        }
    }

    /// Fold one worker's tracer into the report as a named track,
    /// aggregating its counters and wait statistics. Returns the
    /// tracer's high-water vector so the engine can merge ring levels.
    pub fn push_track(
        &mut self,
        name: impl Into<String>,
        labels: Vec<String>,
        tracer: WorkerTracer,
    ) -> Vec<u32> {
        let c = &mut self.counters;
        c.parks += tracer.parks + tracer.wait.parks;
        c.unparks += tracer.unparks;
        c.spin_yields += tracer.wait.spin_yields;
        c.backpressure_waits += tracer.wait.waits;
        c.backpressure_wait_ns += tracer.wait.wait_ns;
        for ev in &tracer.events {
            match ev.kind {
                EventKind::Seam => {
                    c.seams += 1;
                    c.seam_latency_ns += ev.dur_ns;
                    c.seam_latency_max_ns = c.seam_latency_max_ns.max(ev.dur_ns);
                }
                EventKind::ModeSwitch => c.mode_switches += 1,
                _ => {}
            }
        }
        self.dropped += tracer.dropped;
        self.tracks.push(TraceTrack {
            name: name.into(),
            events: tracer.events,
            labels,
        });
        tracer.highwater
    }

    /// Highest ring high-water mark across the run (0 with no rings).
    pub fn ring_highwater_max(&self) -> usize {
        self.rings.iter().map(|r| r.highwater).max().unwrap_or(0)
    }

    /// Condvar + ring parks across all workers.
    pub fn park_count(&self) -> u64 {
        self.counters.parks
    }

    /// Total nanoseconds blocked on ring backpressure.
    pub fn backpressure_wait_ns(&self) -> u64 {
        self.counters.backpressure_wait_ns
    }

    /// The longest observed transition seam, in nanoseconds (0 when the
    /// run never switched modes).
    pub fn seam_latency_observed_ns(&self) -> u64 {
        self.counters.seam_latency_max_ns
    }

    /// Every ring whose high-water mark stayed within its proven size?
    /// (The differential suite asserts this on the corpus.)
    pub fn rings_within_capacity(&self) -> bool {
        self.rings.iter().all(|r| r.highwater <= r.capacity)
    }

    fn event_name(&self, track: &TraceTrack, ev: &TraceEvent) -> String {
        let unit = |arg: u32| -> &str {
            track
                .labels
                .get(arg as usize)
                .map(String::as_str)
                .unwrap_or("unit?")
        };
        match ev.kind {
            EventKind::Firing => unit(ev.arg).to_string(),
            EventKind::SuperStep => format!("fused:{}", unit(ev.arg)),
            EventKind::Seam => format!("seam {}->{}", ev.arg >> 16, ev.arg & 0xFFFF),
            EventKind::ModeSwitch => format!("mode->{}", ev.arg),
            EventKind::Park => "park".to_string(),
            EventKind::Unpark => "unpark".to_string(),
            EventKind::Census => {
                if ev.arg == 1 {
                    "census:deadlock".to_string()
                } else {
                    "census".to_string()
                }
            }
            EventKind::Backpressure => {
                let name = self
                    .rings
                    .get(ev.arg as usize)
                    .map(|r| r.name.as_str())
                    .unwrap_or("?");
                format!("backpressure {name}")
            }
        }
    }

    /// Chrome trace-event JSON ("X"/"i" events, one track per worker,
    /// thread-name metadata, compile phases on their own track) — opens
    /// directly in Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(1 << 16);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        let meta = |tid: usize, name: &str| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            )
        };
        // Track 0: compiler phases (cumulative timeline starting at 0).
        if !self.phases.is_empty() {
            emit(&mut out, meta(0, "oil-compiler"), &mut first);
            let mut ts = 0u64;
            for (name, dur_ns) in &self.phases {
                emit(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"compile\",\"ph\":\"X\",\"pid\":1,\
                         \"tid\":0,\"ts\":{},\"dur\":{}}}",
                        json_escape(name),
                        micros(ts),
                        micros(*dur_ns)
                    ),
                    &mut first,
                );
                ts += dur_ns;
            }
        }
        for (i, track) in self.tracks.iter().enumerate() {
            let tid = i + 1;
            emit(&mut out, meta(tid, &track.name), &mut first);
            // Sort by (start, -duration) so enclosing spans precede the
            // spans they contain; Chrome requires no order but the
            // schema validator in the test suite checks stack shape.
            let mut events: Vec<&TraceEvent> = track.events.iter().collect();
            events.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));
            for ev in events {
                let name = json_escape(&self.event_name(track, ev));
                let s = if ev.dur_ns == 0
                    && matches!(
                        ev.kind,
                        EventKind::ModeSwitch | EventKind::Census | EventKind::Unpark
                    ) {
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"rt\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                        micros(ev.ts_ns)
                    )
                } else {
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"rt\",\"ph\":\"X\",\"pid\":1,\
                         \"tid\":{tid},\"ts\":{},\"dur\":{}}}",
                        micros(ev.ts_ns),
                        micros(ev.dur_ns)
                    )
                };
                emit(&mut out, s, &mut first);
            }
        }
        out.push_str("]}");
        out
    }

    /// Stable JSON summary: per-unit firing histograms, ring high-water
    /// vs CTA capacity, aggregate counters, compile phases and — when
    /// `conformance` is given — the observed-vs-predicted sink rates
    /// with their verdict.
    pub fn summary_json(&self, conformance: Option<&RateConformance>) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1 << 12);
        out.push_str("{\n  \"schema_version\": 2,\n");
        let _ = writeln!(out, "  \"engine\": \"{}\",", self.engine);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let c = &self.counters;
        let _ = writeln!(
            out,
            "  \"counters\": {{\"parks\": {}, \"unparks\": {}, \"spin_yields\": {}, \
             \"backpressure_waits\": {}, \"backpressure_wait_ns\": {}, \
             \"mode_switches\": {}, \"seams\": {}, \"seam_latency_ns\": {}, \
             \"seam_latency_max_ns\": {}}},",
            c.parks,
            c.unparks,
            c.spin_yields,
            c.backpressure_waits,
            c.backpressure_wait_ns,
            c.mode_switches,
            c.seams,
            c.seam_latency_ns,
            c.seam_latency_max_ns
        );
        out.push_str("  \"units\": [");
        let mut first = true;
        for track in &self.tracks {
            for (u, stat) in unit_stats(track) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n    {{\"track\": \"{}\", \"name\": \"{}\", \"count\": {}, \
                     \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                     \"hist_log2_ns\": [{}]}}",
                    json_escape(&track.name),
                    json_escape(track.labels.get(u).map(String::as_str).unwrap_or("unit?")),
                    stat.count,
                    stat.total_ns,
                    stat.min_ns,
                    stat.max_ns,
                    stat.hist
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                );
            }
        }
        out.push_str("\n  ],\n  \"rings\": [");
        let mut first = true;
        for r in &self.rings {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"capacity\": {}, \"highwater\": {}, \
                 \"crossing\": {}}}",
                json_escape(&r.name),
                r.capacity,
                r.highwater,
                r.crossing
            );
        }
        out.push_str("\n  ],\n  \"phases\": [");
        let mut first = true;
        for (name, dur_ns) in &self.phases {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"dur_ns\": {}}}",
                json_escape(name),
                dur_ns
            );
        }
        out.push_str("\n  ],\n");
        if let Some(conf) = conformance {
            let _ = writeln!(
                out,
                "  \"conformance\": {{\"verdict\": \"{}\", \"threshold\": {}, \"sinks\": [",
                conf.verdict(),
                conf.threshold
            );
            for (i, s) in conf.sinks.iter().enumerate() {
                let sep = if i + 1 == conf.sinks.len() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"predicted_hz\": {}, \"measured_hz\": {}, \
                     \"ratio\": {}}}{sep}",
                    json_escape(&s.name),
                    s.predicted_hz,
                    s.measured_hz.map_or("null".into(), |h| h.to_string()),
                    s.conformance_ratio()
                        .map_or("null".into(), |r| r.to_string())
                );
            }
            out.push_str("  ]},\n");
        }
        let _ = writeln!(out, "  \"dropped\": {}", self.dropped);
        out.push('}');
        out
    }
}

/// Per-unit firing statistics with a log2-bucketed duration histogram.
struct UnitStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// `hist[k]` counts spans with `dur_ns` in `[2^k, 2^(k+1))`
    /// (`hist[0]` includes zero-length spans).
    hist: [u64; 32],
}

fn unit_stats(track: &TraceTrack) -> Vec<(usize, UnitStat)> {
    let mut stats: Vec<Option<UnitStat>> = Vec::new();
    for ev in &track.events {
        if !matches!(ev.kind, EventKind::Firing | EventKind::SuperStep) {
            continue;
        }
        let u = ev.arg as usize;
        if stats.len() <= u {
            stats.resize_with(u + 1, || None);
        }
        let s = stats[u].get_or_insert(UnitStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: [0; 32],
        });
        s.count += 1;
        s.total_ns += ev.dur_ns;
        s.min_ns = s.min_ns.min(ev.dur_ns);
        s.max_ns = s.max_ns.max(ev.dur_ns);
        let bucket = (64 - ev.dur_ns.leading_zeros() as usize)
            .saturating_sub(1)
            .min(31);
        s.hist[bucket] += 1;
    }
    stats
        .into_iter()
        .enumerate()
        .filter_map(|(u, s)| s.map(|s| (u, s)))
        .collect()
}

/// Microseconds with nanosecond fraction, as Chrome's `ts`/`dur` expect.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Minimal JSON string escaping for names (graph identifiers are plain,
/// but the exporters must stay well-formed for any input).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse an `OIL_RT_TRACE` value. Same discipline as `OIL_RT_THREADS`:
/// junk panics loudly instead of silently disabling the telemetry the
/// user asked for.
pub fn parse_trace(raw: &str) -> bool {
    match raw.trim() {
        "1" | "true" | "on" => true,
        "0" | "false" | "off" => false,
        other => panic!("OIL_RT_TRACE must be one of 1/0/true/false/on/off, got `{other}`"),
    }
}

/// Read the `OIL_RT_TRACE` toggle from the environment (unset = off).
/// Engines never read the environment themselves — callers thread this
/// into [`crate::SelfTimedConfig`]/[`crate::StaticConfig`].
pub fn env_trace() -> bool {
    match std::env::var("OIL_RT_TRACE") {
        Ok(v) => parse_trace(&v),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer() -> WorkerTracer {
        WorkerTracer::new(Instant::now() - Duration::from_micros(10), 2)
    }

    #[test]
    fn spans_and_instants_are_recorded_in_order() {
        let mut t = tracer();
        let t0 = t.now_ns();
        t.span(EventKind::Firing, 0, t0);
        t.instant(EventKind::ModeSwitch, 1);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].kind, EventKind::Firing);
        assert!(t.events()[1].ts_ns >= t.events()[0].ts_ns);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn overflow_counts_drops_instead_of_growing() {
        let mut t = tracer();
        for _ in 0..EVENTS_CAP + 7 {
            t.instant(EventKind::Unpark, 0);
        }
        assert_eq!(t.events().len(), EVENTS_CAP);
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn high_water_marks_are_monotone() {
        let mut t = tracer();
        t.note_level(0, 3);
        t.note_level(0, 1);
        t.note_level(1, 5);
        assert_eq!(t.highwater, vec![3, 5]);
    }

    #[test]
    fn chrome_export_names_tracks_and_units() {
        let mut report = TraceReport::new("test", 1);
        let mut t = tracer();
        let t0 = t.now_ns();
        t.span(EventKind::Firing, 0, t0);
        t.instant(EventKind::ModeSwitch, 2);
        report.push_track("worker-0", vec!["fir".into()], t);
        let json = report.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker-0\""));
        assert!(json.contains("\"fir\""));
        assert!(json.contains("\"mode->2\""));
    }

    #[test]
    fn summary_reports_rings_and_counters() {
        let mut report = TraceReport::new("test", 2);
        report.rings.push(RingStat {
            name: "b0".into(),
            capacity: 8,
            highwater: 5,
            crossing: true,
        });
        report.phases.push(("fusion".into(), 1234));
        let json = report.summary_json(None);
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"capacity\": 8"));
        assert!(json.contains("\"highwater\": 5"));
        assert!(json.contains("\"fusion\""));
        assert!(report.rings_within_capacity());
        assert_eq!(report.ring_highwater_max(), 5);
    }

    #[test]
    fn seam_spans_feed_the_latency_counters() {
        let mut report = TraceReport::new("test", 1);
        let mut t = tracer();
        t.push(TraceEvent {
            ts_ns: 10,
            dur_ns: 40,
            kind: EventKind::Seam,
            arg: (1 << 16) | 2,
        });
        t.push(TraceEvent {
            ts_ns: 100,
            dur_ns: 25,
            kind: EventKind::Seam,
            arg: (2 << 16) | 1,
        });
        t.instant(EventKind::ModeSwitch, 1);
        report.push_track("worker-0", Vec::new(), t);
        assert_eq!(report.counters.seams, 2);
        assert_eq!(report.counters.seam_latency_ns, 65);
        assert_eq!(report.seam_latency_observed_ns(), 40);
        assert_eq!(report.counters.mode_switches, 1);
    }

    #[test]
    fn parse_trace_accepts_the_documented_forms() {
        assert!(parse_trace("1"));
        assert!(parse_trace("true"));
        assert!(parse_trace(" on "));
        assert!(!parse_trace("0"));
        assert!(!parse_trace("false"));
        assert!(!parse_trace("off"));
    }

    #[test]
    #[should_panic(expected = "OIL_RT_TRACE")]
    fn parse_trace_rejects_junk_loudly() {
        parse_trace("yes please");
    }

    #[test]
    fn json_escape_keeps_exports_well_formed() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}

//! Measured per-kernel cost models for profile-guided partitioning.
//!
//! The partitioner in [`crate::schedule`] balances workers on per-unit cost
//! estimates. By default those come from the *declared* CTA response times
//! (`RtNode::response`) — honest about the model, but blind to how fast the
//! kernels actually run on the deployment host. A [`KernelCostModel`] is
//! the measured alternative: a calibration harness (`oil_rt::profile`)
//! times each kernel at a representative burst size with a deterministic
//! robust estimator and serialises the result as a small JSON artifact.
//! Feeding that artifact back in via
//! [`SynthesisConfig::cost_model`](crate::schedule::SynthesisConfig)
//! steers `partition_workers` with observed ns/firing — *placement* only:
//! every resulting partition is still proven by the same exact-integer
//! replay, so observations can never make a schedule incorrect, only
//! better balanced.
//!
//! The JSON format (schema 1) is stable and hand-rolled on both ends (the
//! workspace has no serialisation dependency):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "host": "x86_64-linux-p4",
//!   "entries": [
//!     {"function": "mix", "ns_per_firing": 11.2, "burst": 64, "samples": 9}
//!   ]
//! }
//! ```

use oil_dataflow::fnv::Fnv1a;
use std::collections::BTreeMap;
use std::fmt;

/// Cost-model JSON schema version.
pub const COST_MODEL_SCHEMA: u64 = 1;

/// One kernel's measured cost.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    /// Measured nanoseconds per firing (median of trimmed repeats).
    pub ns_per_firing: f64,
    /// Firings per timed burst during calibration.
    pub burst: u32,
    /// Timed repeats the estimate was drawn from (before trimming).
    pub samples: u32,
}

/// A measured per-kernel cost model: host fingerprint plus one entry per
/// coordinated function name. Entries are keyed (and serialised) in
/// lexicographic function order, so the serialised form — and the
/// [`Self::fingerprint`] recorded in schedules — is canonical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelCostModel {
    /// Where the measurements were taken (`arch-os-pN`); a model calibrated
    /// on one host is only advisory on another, and the fingerprint makes
    /// provenance auditable in `BENCH_runtime.json` / schedule dumps.
    pub host: String,
    /// Measured costs, keyed by coordinated function name.
    pub entries: BTreeMap<String, KernelCost>,
}

/// Why a cost-model artifact failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModelError(pub String);

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cost model: {}", self.0)
    }
}

impl std::error::Error for CostModelError {}

impl KernelCostModel {
    /// An empty model for `host`.
    pub fn new(host: impl Into<String>) -> Self {
        KernelCostModel {
            host: host.into(),
            entries: BTreeMap::new(),
        }
    }

    /// The calibrating host's fingerprint for *this* process:
    /// `arch-os-pN` with `N` the available parallelism.
    pub fn local_host() -> String {
        let p = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        format!("{}-{}-p{}", std::env::consts::ARCH, std::env::consts::OS, p)
    }

    /// Record (or replace) the measurement for `function`.
    pub fn insert(&mut self, function: impl Into<String>, cost: KernelCost) {
        self.entries.insert(function.into(), cost);
    }

    /// Measured ns/firing for `function`, if calibrated.
    pub fn ns_per_firing(&self, function: &str) -> Option<f64> {
        self.entries.get(function).map(|e| e.ns_per_firing)
    }

    /// A stable FNV-1a fingerprint of the canonical model content (host,
    /// functions, cost bits). Recorded in
    /// [`StaticSchedule::cost_model_hash`](crate::schedule::StaticSchedule)
    /// so a schedule names the exact observations that steered it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(self.host.as_bytes());
        h.write_byte(0xff);
        for (function, e) in &self.entries {
            h.write_bytes(function.as_bytes());
            h.write_byte(0xfe);
            h.write_u64(e.ns_per_firing.to_bits());
            h.write_bytes(&e.burst.to_le_bytes());
            h.write_bytes(&e.samples.to_le_bytes());
        }
        h.finish()
    }

    /// Serialise to the canonical schema-1 JSON artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.entries.len() * 96);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {COST_MODEL_SCHEMA},\n"));
        out.push_str(&format!("  \"host\": \"{}\",\n", escape(&self.host)));
        out.push_str(&format!(
            "  \"fingerprint\": \"{:016x}\",\n",
            self.fingerprint()
        ));
        out.push_str("  \"entries\": [\n");
        let mut first = true;
        for (function, e) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"function\": \"{}\", \"ns_per_firing\": {}, \
                 \"burst\": {}, \"samples\": {}}}",
                escape(function),
                fmt_f64(e.ns_per_firing),
                e.burst,
                e.samples
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a schema-1 JSON artifact. Loud on anything malformed — a
    /// silently-ignored cost model would be indistinguishable from an
    /// unbalanced partition.
    pub fn from_json(raw: &str) -> Result<Self, CostModelError> {
        let value = Json::parse(raw).map_err(CostModelError)?;
        let obj = value.object("top level")?;
        let schema = obj
            .get("schema")
            .ok_or_else(|| CostModelError("missing `schema`".into()))?
            .number("schema")?;
        if schema != COST_MODEL_SCHEMA as f64 {
            return Err(CostModelError(format!(
                "unsupported schema {schema} (want {COST_MODEL_SCHEMA})"
            )));
        }
        let host = obj
            .get("host")
            .ok_or_else(|| CostModelError("missing `host`".into()))?
            .string("host")?
            .to_string();
        let mut model = KernelCostModel::new(host);
        let entries = obj
            .get("entries")
            .ok_or_else(|| CostModelError("missing `entries`".into()))?
            .array("entries")?;
        for (i, e) in entries.iter().enumerate() {
            let eo = e.object(&format!("entries[{i}]"))?;
            let function = eo
                .get("function")
                .ok_or_else(|| CostModelError(format!("entries[{i}]: missing `function`")))?
                .string("function")?
                .to_string();
            let ns = eo
                .get("ns_per_firing")
                .ok_or_else(|| CostModelError(format!("entries[{i}]: missing `ns_per_firing`")))?
                .number("ns_per_firing")?;
            if !(ns.is_finite() && ns > 0.0) {
                return Err(CostModelError(format!(
                    "entries[{i}] `{function}`: ns_per_firing must be finite and positive, got {ns}"
                )));
            }
            // An absent count reads 0; a present one must be a whole `u32`
            // (`as u32` would turn -5 into 0, 3.7 into 3, 1e12 into MAX).
            let count = |key: &str| -> Result<u32, CostModelError> {
                let Some(v) = eo.get(key) else { return Ok(0) };
                let n = v.number(key)?;
                if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
                    Ok(n as u32)
                } else {
                    Err(CostModelError(format!(
                        "entries[{i}] `{function}`: {key} must be a whole u32, got {n}"
                    )))
                }
            };
            let burst = count("burst")?;
            let samples = count("samples")?;
            if model.entries.contains_key(&function) {
                return Err(CostModelError(format!(
                    "duplicate entry for function `{function}`"
                )));
            }
            model.insert(
                function,
                KernelCost {
                    ns_per_firing: ns,
                    burst,
                    samples,
                },
            );
        }
        Ok(model)
    }

    /// Read the `OIL_COST_MODEL` knob: unset or empty means no model;
    /// otherwise the value is a path to a schema-1 JSON artifact and any
    /// read/parse failure panics loudly (same discipline as
    /// `oil_rt::trace::parse_trace` — a typo must not silently demote the
    /// run to declared costs).
    pub fn from_env() -> Option<Self> {
        let path = match std::env::var("OIL_COST_MODEL") {
            Ok(p) if !p.trim().is_empty() => p,
            _ => return None,
        };
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("OIL_COST_MODEL: cannot read `{path}`: {e}"));
        Some(
            Self::from_json(&raw)
                .unwrap_or_else(|e| panic!("OIL_COST_MODEL: `{path}` is not a cost model: {e}")),
        )
    }
}

/// Format a finite f64 so it round-trips (shortest via `{}`; `{}` on f64 in
/// Rust prints the shortest representation that parses back exactly).
fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    // `{}` never prints an exponent for the magnitudes measured here, but
    // guard the integral case so the output stays a JSON number with a
    // fractional part (readable as f64 everywhere).
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A minimal JSON value — just enough to read the artifact (hand-rolled
/// like the exporters in `oil_rt::trace`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(raw: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(raw, &mut pos)?;
        skip_ws(raw.as_bytes(), &mut pos);
        if pos != raw.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn object(&self, what: &str) -> Result<JsonObject<'_>, CostModelError> {
        match self {
            Json::Object(fields) => Ok(JsonObject(fields)),
            other => Err(CostModelError(format!(
                "{what}: expected object, got {}",
                other.kind()
            ))),
        }
    }

    fn array(&self, what: &str) -> Result<&[Json], CostModelError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(CostModelError(format!(
                "{what}: expected array, got {}",
                other.kind()
            ))),
        }
    }

    fn number(&self, what: &str) -> Result<f64, CostModelError> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(CostModelError(format!(
                "{what}: expected number, got {}",
                other.kind()
            ))),
        }
    }

    fn string(&self, what: &str) -> Result<&str, CostModelError> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(CostModelError(format!(
                "{what}: expected string, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

struct JsonObject<'a>(&'a [(String, Json)]);

impl<'a> JsonObject<'a> {
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value of `text` starting at byte `pos`. `pos` only ever moves
/// past ASCII bytes or whole scalars, so it stays on a char boundary.
fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(text, pos)? {
                    Json::String(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(text, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::String(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    text.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar.
                        let c = text[*pos..].chars().next().ok_or("unterminated string")?;
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let number = &text[start..*pos];
            number
                .parse::<f64>()
                .map(Json::Number)
                .map_err(|_| format!("bad number `{number}` at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelCostModel {
        let mut m = KernelCostModel::new("x86_64-linux-p4");
        m.insert(
            "mix",
            KernelCost {
                ns_per_firing: 11.25,
                burst: 64,
                samples: 9,
            },
        );
        m.insert(
            "LPF",
            KernelCost {
                ns_per_firing: 412.0,
                burst: 64,
                samples: 9,
            },
        );
        m
    }

    #[test]
    fn json_round_trips_exactly() {
        let m = sample();
        let parsed = KernelCostModel::from_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed, m);
        assert_eq!(parsed.fingerprint(), m.fingerprint());
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let m = sample();
        // Pinned literal: recorded model artifacts and schedule provenance
        // carry this value, so the byte layout hashed must never drift.
        assert_eq!(m.fingerprint(), 0xb773_1e0e_c5eb_eae8);
        let mut changed = m.clone();
        changed.insert(
            "mix",
            KernelCost {
                ns_per_firing: 11.26,
                burst: 64,
                samples: 9,
            },
        );
        assert_ne!(m.fingerprint(), changed.fingerprint());
        let mut other_host = m.clone();
        other_host.host = "aarch64-macos-p8".into();
        assert_ne!(m.fingerprint(), other_host.fingerprint());
    }

    #[test]
    fn lookup_falls_through_for_unknown_functions() {
        let m = sample();
        assert_eq!(m.ns_per_firing("mix"), Some(11.25));
        assert_eq!(m.ns_per_firing("unknown"), None);
    }

    #[test]
    fn parse_rejects_malformed_artifacts_loudly() {
        assert!(KernelCostModel::from_json("{}").is_err());
        assert!(
            KernelCostModel::from_json("{\"schema\": 99, \"host\": \"h\", \"entries\": []}")
                .is_err()
        );
        assert!(KernelCostModel::from_json(
            "{\"schema\": 1, \"host\": \"h\", \"entries\": [{\"function\": \"f\", \
             \"ns_per_firing\": -1.0}]}"
        )
        .is_err());
        assert!(KernelCostModel::from_json(
            "{\"schema\": 1, \"host\": \"h\", \"entries\": [{\"function\": \"f\", \
             \"ns_per_firing\": 1.0}, {\"function\": \"f\", \"ns_per_firing\": 2.0}]}"
        )
        .is_err());
        // Trailing garbage is an error, not silently ignored.
        assert!(KernelCostModel::from_json(
            "{\"schema\": 1, \"host\": \"h\", \"entries\": []} extra"
        )
        .is_err());
        // Counts must be whole u32s, and the error names the entry.
        for (key, bad) in [
            ("burst", "-5"),
            ("burst", "3.7"),
            ("samples", "1e12"),
            ("samples", "4294967296"),
            ("burst", "1e999"),
        ] {
            let raw = format!(
                "{{\"schema\": 1, \"host\": \"h\", \"entries\": [{{\"function\": \"lpf\", \
                 \"ns_per_firing\": 1.0, \"{key}\": {bad}}}]}}"
            );
            let err = KernelCostModel::from_json(&raw)
                .expect_err(&raw)
                .to_string();
            assert!(
                err.contains("entries[0] `lpf`") && err.contains(key),
                "{err}"
            );
        }
        let edge = KernelCostModel::from_json(
            "{\"schema\": 1, \"host\": \"h\", \"entries\": [{\"function\": \"f\", \
             \"ns_per_firing\": 1.0, \"burst\": 4294967295, \"samples\": 0}]}",
        )
        .expect("u32::MAX and 0 are valid counts");
        assert_eq!(edge.entries["f"].burst, u32::MAX);
        assert_eq!(edge.entries["f"].samples, 0);
    }

    #[test]
    fn non_ascii_names_round_trip() {
        let mut m = KernelCostModel::new("hôst-π");
        m.insert(
            "filtre_passe_bas_é→𝄞",
            KernelCost {
                ns_per_firing: 7.5,
                burst: 16,
                samples: 3,
            },
        );
        let parsed = KernelCostModel::from_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed, m);
        assert_eq!(parsed.fingerprint(), m.fingerprint());
    }
}

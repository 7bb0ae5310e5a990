//! The analyses are exact: no `f64` may reach the code between a parsed
//! literal and a verdict. This test scans that code's non-test text (the
//! part of each file before its first `#[cfg(test)]`, comments aside) and
//! fails on any `f64` outside the named reporting accessors, which convert
//! a finished exact result once.

use std::fs;
use std::path::{Path, PathBuf};

/// Functions allowed to return `f64`: each converts an exact result once,
/// for reporting.
const REPORTING_ACCESSORS: [&str; 4] = ["rate_hz", "seconds", "maximum_cycle_mean", "throughput"];

/// The analysis path: every file of the first two directories, and the
/// named files.
const DIRECTORIES: [&str; 2] = ["crates/oil-cta/src", "crates/oil-lang/src/sema"];
const FILES: [&str; 5] = [
    "crates/oil-dataflow/src/sdf.rs",
    "crates/oil-dataflow/src/hsdf.rs",
    "crates/oil-dataflow/src/statespace.rs",
    "crates/oil-dataflow/src/taskgraph.rs",
    "crates/oil-compiler/src/derive.rs",
];

fn analysis_path() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = FILES.iter().map(|f| root.join(f)).collect();
    for dir in DIRECTORIES {
        let mut rs: Vec<PathBuf> = fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        assert!(!rs.is_empty(), "{dir} holds no Rust file");
        rs.sort();
        files.extend(rs);
    }
    files
}

/// The `line: text` of every `f64` in `source`'s non-test code outside the
/// reporting accessors.
fn floats(source: &str) -> Vec<String> {
    let code = source.split("#[cfg(test)]").next().unwrap_or_default();
    let mut found = Vec::new();
    let mut depth = 0i64;
    // The brace depth an allowed accessor was entered at, and whether its
    // body has opened yet.
    let mut accessor: Option<(i64, bool)> = None;
    for (n, line) in code.lines().enumerate() {
        let text = line.split("//").next().unwrap_or_default();
        if accessor.is_none()
            && REPORTING_ACCESSORS
                .iter()
                .any(|a| text.contains(&format!("fn {a}(")))
        {
            accessor = Some((depth, false));
        }
        if accessor.is_none() && text.contains("f64") {
            found.push(format!("{}: {}", n + 1, line.trim()));
        }
        for c in text.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            if let Some((start, opened)) = &mut accessor {
                *opened |= depth > *start;
                if *opened && depth == *start {
                    accessor = None;
                }
            }
        }
    }
    found
}

#[test]
fn no_f64_between_a_literal_and_a_verdict() {
    let mut offenders = Vec::new();
    for file in analysis_path() {
        let source = fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        for line in floats(&source) {
            offenders.push(format!("{}:{line}", file.display()));
        }
    }
    assert!(
        offenders.is_empty(),
        "f64 on the exact analysis path:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_scan_sees_fields_and_calls_but_not_accessors_or_tests() {
    let source = "
        pub struct Period { pub value: Rational }
        impl Period {
            /// Converted once, for reporting (f64).
            pub fn seconds(&self) -> f64 {
                self.value.to_f64()
            }
            pub fn doubled(&self) -> Rational { self.value + self.value }
        }
        pub struct Leak { pub value: f64 }
        fn f(r: Rational) -> bool { r.to_f64() > 0.5 }
        #[cfg(test)]
        mod tests { const X: f64 = 1.0; }
    ";
    assert_eq!(
        floats(source),
        [
            "10: pub struct Leak { pub value: f64 }",
            "11: fn f(r: Rational) -> bool { r.to_f64() > 0.5 }",
        ]
    );
}

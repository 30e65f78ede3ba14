//! Units pass: gates raw dB math outside the blessed `wlan-units` crate.
//!
//! The workspace carries every decibel/frequency quantity in a
//! `wlan_units` newtype, and the only legal `10^(x/10)`-style
//! expressions live inside `crates/units` (plus the thin `f64` wrappers
//! in `wlan_dsp::math` that delegate to them). This pass is the CI
//! ratchet that keeps it that way: it scans Rust sources textually and
//! reports
//!
//! * **UN001** — raw dB→linear conversion (`powf` against a `/ 10.0`
//!   or `/ 20.0` exponent) instead of `db_to_lin`/`db_to_amp` or the
//!   `wlan_units` methods;
//! * **UN002** — raw linear→dB conversion (`10.0 *`/`20.0 *` against a
//!   `.log10()`) instead of `lin_to_db`/`amp_to_db`;
//! * **UN003** — a new public `f64` (or `Option<f64>`) struct field
//!   with a `_db`/`_dbm`/`_hz` unit suffix, which should be a
//!   `Db`/`Dbm`/`Hz` newtype unless it sits on a serialization
//!   boundary.
//!
//! Deliberate boundary crossings (JSON snapshots, manifest records,
//! reference implementations) are recorded in an allowlist file; the
//! committed allowlist is the baseline, so the raw-site count can only
//! go down. Files under `crates/units` are exempt wholesale — they are
//! the blessed home of the raw expressions — and directory walks skip
//! `fixtures/` and `target/` directories (explicitly listed files are
//! always scanned, which is how the known-bad fixture is exercised in
//! CI).

use crate::{Diagnostic, Report};
use std::path::{Path, PathBuf};

/// One allowlist entry: `code` findings in files whose path ends with
/// `path_suffix` are suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Diagnostic code the entry applies to (`UN001`…`UN003`).
    pub code: String,
    /// Path suffix, `/`-separated, matched against the scanned path.
    pub path_suffix: String,
}

/// Parsed allowlist: the committed baseline of deliberate boundary
/// crossings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist text format: one `CODE path/suffix.rs`
    /// entry per line; blank lines and `#` comments are ignored.
    ///
    /// Unparseable lines are reported as `(line_number, text)` so the
    /// caller can fail loudly instead of silently allowing nothing.
    pub fn parse(text: &str) -> (Allowlist, Vec<(usize, String)>) {
        let mut entries = Vec::new();
        let mut bad = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(code), Some(path), None) if code.starts_with("UN") => {
                    entries.push(AllowEntry {
                        code: code.to_string(),
                        path_suffix: path.to_string(),
                    });
                }
                _ => bad.push((i + 1, raw.to_string())),
            }
        }
        (Allowlist { entries }, bad)
    }

    /// `true` when `code` at `path` is covered by the baseline.
    pub fn allows(&self, code: &str, path: &str) -> bool {
        let norm = path.replace('\\', "/");
        self.entries
            .iter()
            .any(|e| e.code == code && norm.ends_with(&e.path_suffix))
    }
}

/// `true` for paths inside the blessed units crate: the one place raw
/// conversion expressions are legal.
fn is_blessed(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.contains("crates/units/")
}

/// Strips line comments and string literals so `// 10.0 * x.log10()`
/// in prose does not trip the pass. Cheap and line-local by design —
/// the scanner never needs full Rust parsing for these patterns.
fn code_portion(line: &str) -> String {
    let line = match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    };
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut prev = '\0';
    for c in line.chars() {
        if c == '"' && prev != '\\' {
            in_str = !in_str;
            prev = c;
            continue;
        }
        if !in_str {
            out.push(c);
        }
        prev = c;
    }
    out
}

/// Detects UN001: a `powf(` call whose argument divides by 10 or 20 —
/// the raw shape of `10^(x/10)` / `10^(x/20)`.
fn is_raw_db_to_lin(code: &str) -> bool {
    code.contains("powf(") && (code.contains("/ 10.0") || code.contains("/ 20.0"))
}

/// Detects UN002: a `.log10()` scaled by 10 or 20 — the raw shape of
/// `10·log10(x)` / `20·log10(x)`.
fn is_raw_lin_to_db(code: &str) -> bool {
    code.contains(".log10()") && (code.contains("10.0 *") || code.contains("20.0 *"))
}

/// Detects UN003: a public `f64`/`Option<f64>` struct field whose name
/// carries a `_db`/`_dbm`/`_hz` unit suffix. Returns the field name.
fn raw_unit_field(code: &str) -> Option<String> {
    let t = code.trim();
    let rest = t.strip_prefix("pub ")?;
    let colon = rest.find(':')?;
    let (name, ty) = rest.split_at(colon);
    let name = name.trim();
    let ty = ty[1..].trim().trim_end_matches(',');
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let suffixed = ["_db", "_dbm", "_hz"].iter().any(|s| name.ends_with(s));
    let raw_ty = ty == "f64" || ty == "Option<f64>";
    (suffixed && raw_ty).then(|| name.to_string())
}

/// Lints one Rust source file. `path` is used for reporting and
/// allowlist matching; the blessed units crate is exempt.
pub fn lint_source(path: &str, text: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    if is_blessed(path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let code = code_portion(raw);
        let line = i + 1;
        if is_raw_db_to_lin(&code) && !allow.allows("UN001", path) {
            findings.push(Diagnostic::error(
                "UN001",
                path.to_string(),
                format!("line {line}"),
                "raw dB\u{2192}linear conversion; use wlan_units (Db::to_linear / \
                 Dbm::to_watts) or the wlan_dsp::math wrappers"
                    .to_string(),
            ));
        }
        if is_raw_lin_to_db(&code) && !allow.allows("UN002", path) {
            findings.push(Diagnostic::error(
                "UN002",
                path.to_string(),
                format!("line {line}"),
                "raw linear\u{2192}dB conversion; use wlan_units (Db::from_linear / \
                 Dbm::from_watts) or the wlan_dsp::math wrappers"
                    .to_string(),
            ));
        }
        if let Some(field) = raw_unit_field(&code) {
            if !allow.allows("UN003", path) {
                findings.push(Diagnostic::error(
                    "UN003",
                    path.to_string(),
                    format!("line {line}"),
                    format!(
                        "public f64 field `{field}` has a unit suffix; use the \
                         wlan_units newtype (Db/Dbm/Hz) or allowlist the boundary"
                    ),
                ));
            }
        }
    }
    findings
}

/// Recursively collects `.rs` files under `root`, skipping `fixtures`
/// and `target` directories. Explicit file paths are returned as-is by
/// [`scan_paths`], so fixtures can still be linted on purpose.
fn collect_rs(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Lints every `.rs` file reachable from `paths` (files are taken
/// verbatim, directories are walked) and returns one report. IO
/// problems are reported as `(path, error)` alongside it.
pub fn lint_paths(paths: &[String], allow: &Allowlist) -> (Report, Vec<(String, String)>) {
    let mut files = Vec::new();
    for p in paths {
        let pb = PathBuf::from(p);
        if pb.is_dir() {
            collect_rs(&pb, &mut files);
        } else {
            files.push(pb);
        }
    }
    let mut report = Report::new();
    let mut io_errors = Vec::new();
    for f in files {
        let display = f.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(&f) {
            Ok(text) => report.add_target(display.clone(), lint_source(&display, &text, allow)),
            Err(e) => io_errors.push((display, e.to_string())),
        }
    }
    (report, io_errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_allow() -> Allowlist {
        Allowlist::default()
    }

    #[test]
    fn flags_raw_db_to_lin() {
        let src = "fn f(x: f64) -> f64 {\n    10f64.powf(x / 10.0)\n}\n";
        let d = lint_source("crates/foo/src/a.rs", src, &no_allow());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "UN001");
        assert_eq!(d[0].subject, "line 2");
    }

    #[test]
    fn flags_raw_amp_conversions_too() {
        let src = "let a = 10f64.powf(db / 20.0);\nlet b = 20.0 * r.log10();\n";
        let d = lint_source("x.rs", src, &no_allow());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].code, "UN001");
        assert_eq!(d[1].code, "UN002");
    }

    #[test]
    fn flags_raw_unit_fields() {
        let src = "pub struct S {\n    pub gain_db: f64,\n    pub level_dbm: Option<f64>,\n    pub rate_hz: f64,\n    pub count: usize,\n    pub snr: f64,\n}\n";
        let d = lint_source("x.rs", src, &no_allow());
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|x| x.code == "UN003"));
    }

    #[test]
    fn blessed_crate_is_exempt() {
        let src = "pub fn to_linear(x: f64) -> f64 { 10f64.powf(x / 10.0) }\n";
        assert!(lint_source("crates/units/src/lib.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trip() {
        let src = "// classic: 10f64.powf(x / 10.0)\nlet s = \"20.0 * r.log10()\";\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn blessed_helpers_do_not_trip() {
        let src = "let nv = wlan_dsp::math::db_to_lin(-snr_db);\nlet g = Db(3.0).to_linear();\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn allowlist_suppresses_by_code_and_suffix() {
        let (allow, bad) = Allowlist::parse(
            "# boundary crossings\nUN003 core/src/link.rs\nUN001 refimpl.rs  # reference impl\n",
        );
        assert!(bad.is_empty());
        assert!(allow.allows("UN003", "crates/core/src/link.rs"));
        assert!(!allow.allows("UN001", "crates/core/src/link.rs"));
        let d = lint_source(
            "crates/core/src/link.rs",
            "pub rx_level_dbm: f64,\n",
            &allow,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn allowlist_reports_bad_lines() {
        let (_, bad) = Allowlist::parse("UN001\nnot-a-code path.rs\n");
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].0, 1);
    }

    #[test]
    fn typed_fields_do_not_trip() {
        let src = "pub gain_db: Db,\npub carrier_hz: Hz,\npub level_dbm: Option<Dbm>,\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn fixture_is_rejected_when_listed_explicitly() {
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/units_raw_db_math.rs");
        let (report, io) = lint_paths(&[fixture.to_string()], &no_allow());
        assert!(io.is_empty(), "fixture must be readable: {io:?}");
        assert!(report.has_errors(), "fixture must trip the pass");
        for code in ["UN001", "UN002", "UN003"] {
            assert!(
                report.diagnostics.iter().any(|d| d.code == code),
                "fixture must contain a {code} site"
            );
        }
    }

    #[test]
    fn directory_walk_skips_fixtures() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let (report, _) = lint_paths(&[root.to_string()], &no_allow());
        // The scanner's own pattern literals live inside string
        // literals and comments, so the lint source tree stays clean.
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.target.contains("fixtures/")),
            "fixtures must not be walked implicitly"
        );
    }
}

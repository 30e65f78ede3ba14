//! Numerology pass: gates hard-coded OFDM grid constants outside the
//! profile layer.
//!
//! The workspace derives its OFDM numerology — FFT size, cyclic-prefix
//! length, sample rate — from `wlan_phy::profile::OfdmProfile`, and
//! the only legal homes for the raw 802.11a figures are
//! `crates/phy/src/params.rs` (the legacy constant surface) and
//! `crates/phy/src/profile.rs` (the profile definitions). This pass is
//! the CI ratchet that keeps new code profile-clean: it scans Rust
//! sources textually and reports
//!
//! * **NM001** — a raw 20 Msps sample-rate literal (`20e6`, `2.0e7`,
//!   `20_000_000`, …) instead of `profile.sample_rate` /
//!   `params::SAMPLE_RATE`;
//! * **NM002** — a bare `64`/`16`/`80` grid literal on a line that
//!   talks about the FFT or cyclic prefix (mentions `fft`, `cp_len`,
//!   `cyclic_prefix`, `symbol_len` or `n_short`) instead of
//!   `profile.fft_size` / `profile.cp_len` / `profile.symbol_len()`.
//!
//! Deliberate sites (RF/AMS test stimuli that use 20 MHz as a generic
//! sampling rate, spectral-mask breakpoint tables, the specialized
//! 64-point kernel benchmarks) are recorded in an allowlist file; the
//! committed allowlist is the baseline, so the hard-coded-site count
//! can only go down. Directory walks skip `fixtures/` and `target/`
//! (explicitly listed files are always scanned, which is how the
//! known-bad fixture is exercised in CI).

use crate::{Diagnostic, Report};
use std::path::{Path, PathBuf};

/// One allowlist entry: `code` findings in files whose path ends with
/// `path_suffix` are suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Diagnostic code the entry applies to (`NM001`/`NM002`).
    pub code: String,
    /// Path suffix, `/`-separated, matched against the scanned path.
    pub path_suffix: String,
}

/// Parsed allowlist: the committed baseline of deliberate raw-grid
/// sites.
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
                (Some(code), Some(path), None) if code.starts_with("NM") => {
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

/// `true` for the two files where the raw 802.11a grid figures are
/// defined rather than consumed.
fn is_blessed(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.ends_with("crates/phy/src/params.rs") || norm.ends_with("crates/phy/src/profile.rs")
}

/// Strips line comments and string literals so `// Fft::new(64)` in
/// prose does not trip the pass. Cheap and line-local by design — the
/// scanner never needs full Rust parsing for these patterns.
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

/// `true` when `token` appears in `code` as a standalone numeric
/// literal: not preceded by an identifier/digit/`.` character (so
/// `320e6` or `fast64` never match `20e6`/`64`) and not followed by
/// one (so `640`, `20e65` or `16usize` never match `64`/`20e6`/`16`).
fn has_numeric_token(code: &str, token: &str) -> bool {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let abs = start + pos;
        let before_ok = !code[..abs].chars().next_back().is_some_and(is_word);
        let after_ok = !code[abs + token.len()..]
            .chars()
            .next()
            .is_some_and(is_word);
        if before_ok && after_ok {
            return true;
        }
        start = abs + token.len();
    }
    false
}

/// The spellings of 20 Msps that NM001 flags.
const SAMPLE_RATE_TOKENS: [&str; 6] = [
    "20e6",
    "20.0e6",
    "2e7",
    "2.0e7",
    "20_000_000",
    "20_000_000.0",
];

/// Detects NM001: a raw 20 Msps literal in any spelling.
fn has_raw_sample_rate(code: &str) -> bool {
    SAMPLE_RATE_TOKENS
        .iter()
        .any(|t| has_numeric_token(code, t))
}

/// Keywords that mark a line as grid-geometry context for NM002.
const GRID_KEYWORDS: [&str; 5] = ["fft", "cp_len", "cyclic_prefix", "symbol_len", "n_short"];

/// Grid literals NM002 flags in keyword context: the 802.11a FFT size,
/// cyclic-prefix length and full symbol length in samples.
const GRID_TOKENS: [&str; 3] = ["64", "16", "80"];

/// Detects NM002: a bare grid literal on a line that talks about the
/// FFT or cyclic prefix. The keyword gate keeps unrelated `64`s (array
/// sizes, masks, test payload lengths) out of scope.
fn has_raw_grid_literal(code: &str) -> bool {
    let lower = code.to_ascii_lowercase();
    GRID_KEYWORDS.iter().any(|k| lower.contains(k))
        && GRID_TOKENS.iter().any(|t| has_numeric_token(code, t))
}

/// Lints one Rust source file. `path` is used for reporting and
/// allowlist matching; the profile-definition files are exempt.
pub fn lint_source(path: &str, text: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    if is_blessed(path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let code = code_portion(raw);
        let line = i + 1;
        if has_raw_sample_rate(&code) && !allow.allows("NM001", path) {
            findings.push(Diagnostic::error(
                "NM001",
                path.to_string(),
                format!("line {line}"),
                "raw 20 Msps literal; use profile.sample_rate (OfdmProfile) or \
                 wlan_phy::params::SAMPLE_RATE, or allowlist the site"
                    .to_string(),
            ));
        }
        if has_raw_grid_literal(&code) && !allow.allows("NM002", path) {
            findings.push(Diagnostic::error(
                "NM002",
                path.to_string(),
                format!("line {line}"),
                "hard-coded FFT/CP grid literal; use profile.fft_size / \
                 profile.cp_len / profile.symbol_len(), or allowlist the site"
                    .to_string(),
            ));
        }
    }
    findings
}

/// Recursively collects `.rs` files under `root`, skipping `fixtures`
/// and `target` directories. Explicit file paths are returned as-is by
/// [`lint_paths`], so fixtures can still be linted on purpose.
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
    fn flags_raw_sample_rate_spellings() {
        for src in [
            "let fs = 20e6;\n",
            "let fs = 20.0e6;\n",
            "let fs = 2.0e7;\n",
            "let fs: f64 = 20_000_000 as f64;\n",
        ] {
            let d = lint_source("crates/foo/src/a.rs", src, &no_allow());
            assert_eq!(d.len(), 1, "{src:?}");
            assert_eq!(d[0].code, "NM001");
            assert_eq!(d[0].subject, "line 1");
        }
    }

    #[test]
    fn neighboring_digits_do_not_trip() {
        let src = "let dt = 1.0 / 320e6;\nlet f2 = 120e6;\nlet n = 20e65;\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn flags_grid_literals_in_fft_context() {
        let src = "let fft = Fft::new(64);\nlet cp_len = 16;\nlet n = 80 * fft_syms;\n";
        let d = lint_source("x.rs", src, &no_allow());
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|x| x.code == "NM002"));
    }

    #[test]
    fn grid_literals_without_keyword_do_not_trip() {
        // Bare 64s with no FFT/CP context: payload lengths, masks …
        let src = "let psdu_len = 64;\nlet mask = 16;\nlet lanes = 16usize;\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn suffixed_literals_do_not_trip() {
        let src = "let fft_lanes = 16usize;\nlet fft = x.fast64;\nlet fft_n = 640;\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn blessed_profile_files_are_exempt() {
        let src = "pub const SAMPLE_RATE: f64 = 20e6;\npub const FFT_SIZE: usize = 64;\n";
        assert!(lint_source("crates/phy/src/params.rs", src, &no_allow()).is_empty());
        assert!(lint_source("crates/phy/src/profile.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trip() {
        let src = "// classic: Fft::new(64) at 20e6\nlet s = \"fft 64 cp 16 at 20e6\";\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn profile_driven_code_does_not_trip() {
        let src = "let fft = Fft::new(profile.fft_size);\nlet fs = profile.sample_rate;\n";
        assert!(lint_source("x.rs", src, &no_allow()).is_empty());
    }

    #[test]
    fn allowlist_suppresses_by_code_and_suffix() {
        let (allow, bad) = Allowlist::parse(
            "# test stimuli\nNM001 rf/src/mixer.rs\nNM002 bench.rs  # 64-pt kernel\n",
        );
        assert!(bad.is_empty());
        assert!(allow.allows("NM001", "crates/rf/src/mixer.rs"));
        assert!(!allow.allows("NM002", "crates/rf/src/mixer.rs"));
        let d = lint_source("crates/rf/src/mixer.rs", "let fs = 20e6;\n", &allow);
        assert!(d.is_empty());
    }

    #[test]
    fn allowlist_reports_bad_lines() {
        let (_, bad) = Allowlist::parse("NM001\nUN001 path.rs\n");
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].0, 1);
    }

    #[test]
    fn fixture_is_rejected_when_listed_explicitly() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/fixtures/numerology_literals.rs"
        );
        let (report, io) = lint_paths(&[fixture.to_string()], &no_allow());
        assert!(io.is_empty(), "fixture must be readable: {io:?}");
        assert!(report.has_errors(), "fixture must trip the pass");
        for code in ["NM001", "NM002"] {
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
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.target.contains("fixtures/")),
            "fixtures must not be walked implicitly"
        );
    }
}

//! # elk-pins — the digest pin registry of the workspace's test suites
//!
//! The digest suites (`graph_digest`, `catalog_digest`, `plan_digest`,
//! `fit_digest`, `engine_digests`, `sweep_cluster_digests`,
//! `spec_canonical`) pin whole outputs as 64-bit FNV-1a digests of their
//! JSON form. This crate holds the hash and the one pin table format;
//! it is a dev-dependency only.
//!
//! Each suite's pins live in `tests/pins/<suite>.pins` at the workspace
//! root. A file is a list of `[section]` headers, one per test, each
//! followed by its rows, one `name 0x<16 hex digits>` per line; blank
//! lines are ignored. A test collects its rows in a [`Pins`] and calls
//! [`Pins::check`], which compares them with its section and, on any
//! difference, panics with every changed, added and removed row as
//! old → new, then the whole replacement file body. A deliberate re-pin
//! pastes that body over the file.
//!
//! ```
//! let d = elk_pins::fold(elk_pins::OFFSET, b"a");
//! assert_eq!(d, 0xaf63_dc4c_8601_ec8c);
//! // Folding in turn equals hashing the concatenation.
//! assert_eq!(
//!     elk_pins::fold(elk_pins::fold(elk_pins::OFFSET, b"\"a"), b"\""),
//!     elk_pins::digest("a"),
//! );
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use serde::Serialize;

/// The 64-bit FNV-1a offset basis: the digest of no bytes.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into `digest` with 64-bit FNV-1a.
pub fn fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Folds the JSON form of `value` into `digest`.
pub fn fold_json<T: Serialize + ?Sized>(digest: u64, value: &T) -> u64 {
    fold(
        digest,
        serde_json::to_string(value).expect("serializes").as_bytes(),
    )
}

/// The FNV-1a digest of the JSON form of `value`.
pub fn digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    fold_json(OFFSET, value)
}

/// One `(name, digest)` row of a pin table.
type Row = (String, u64);

/// A parsed pins file: its sections in file order.
type Sections = Vec<(String, Vec<Row>)>;

/// The `(name, digest)` rows one test computed, checked against its
/// section of `tests/pins/<suite>.pins`.
#[derive(Debug)]
pub struct Pins {
    suite: &'static str,
    section: &'static str,
    rows: Vec<Row>,
}

impl Pins {
    /// An empty collector for `[section]` of `tests/pins/<suite>.pins`.
    pub fn new(suite: &'static str, section: &'static str) -> Self {
        Pins {
            suite,
            section,
            rows: Vec::new(),
        }
    }

    /// Appends one row; names are single whitespace-free tokens.
    pub fn add(&mut self, name: impl Into<String>, digest: u64) {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "pin name `{name}` must be one non-empty token"
        );
        self.rows.push((name, digest));
    }

    /// Panics unless the collected rows equal the pinned section, row
    /// for row and in order. The message lists every differing row and
    /// the replacement file body.
    #[track_caller]
    pub fn check(&self) {
        let label = format!("tests/pins/{}.pins", self.suite);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&label);
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{label}: {e}"));
        if let Err(report) = self.compare(&label, &text) {
            panic!("{report}");
        }
    }

    /// The mismatch report of these rows against pins file `text`
    /// (named `label` in messages), or `Ok` when the section matches.
    fn compare(&self, label: &str, text: &str) -> Result<(), String> {
        let mut sections = parse(label, text)?;
        let pinned = match sections.iter().position(|(s, _)| s == self.section) {
            Some(i) => std::mem::replace(&mut sections[i].1, self.rows.clone()),
            None => {
                sections.push((self.section.to_string(), self.rows.clone()));
                Vec::new()
            }
        };
        if pinned == self.rows {
            return Ok(());
        }
        let lines = diff(&pinned, &self.rows);
        let mut out = format!("{label} [{}] does not match its pins:\n", self.section);
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        if lines.is_empty() {
            out.push_str("  same rows, new order\n");
        }
        let _ = write!(
            out,
            "To re-pin on purpose, replace {label} with the body below \
             and name the file in CHANGES.md.\n--- {label}\n{}--- end\n",
            render(&sections)
        );
        Err(out)
    }
}

/// Parses a pins file; errors name `label:line`.
fn parse(label: &str, text: &str) -> Result<Sections, String> {
    let mut sections: Sections = Vec::new();
    let mut section_lines: HashMap<&str, usize> = HashMap::new();
    let mut name_lines: HashMap<&str, usize> = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let at = i + 1;
        let line = raw.trim();
        let err = |what: String| Err(format!("{label}:{at}: {what}"));
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if section.is_empty() {
                return err("empty section name".into());
            }
            if let Some(first) = section_lines.insert(section, at) {
                return err(format!(
                    "duplicate section [{section}] (first on line {first})"
                ));
            }
            sections.push((section.to_string(), Vec::new()));
            continue;
        }
        let mut tokens = line.split_whitespace();
        let name = tokens.next().unwrap_or_default();
        let Some(hex) = tokens.next() else {
            return err(format!("missing digest after `{name}`"));
        };
        if tokens.next().is_some() {
            return err("expected `name 0x<16 hex digits>`".into());
        }
        let digest = hex
            .strip_prefix("0x")
            .filter(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        let Some(digest) = digest else {
            return err(format!("bad digest `{hex}`: want 0x and 16 hex digits"));
        };
        let Some((_, rows)) = sections.last_mut() else {
            return err(format!("row `{name}` comes before any [section]"));
        };
        if let Some(first) = name_lines.insert(name, at) {
            return err(format!("duplicate name `{name}` (first on line {first})"));
        }
        rows.push((name.to_string(), digest));
    }
    Ok(sections)
}

/// The file body of `sections`, a blank line between sections.
fn render(sections: &Sections) -> String {
    let mut out = String::new();
    for (i, (section, rows)) in sections.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "[{section}]");
        for (name, digest) in rows {
            let _ = writeln!(out, "{name} 0x{digest:016x}");
        }
    }
    out
}

/// One line per changed, added or removed row, as old → new.
fn diff(pinned: &[Row], got: &[Row]) -> Vec<String> {
    let old: HashMap<&str, u64> = pinned.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let new: HashMap<&str, u64> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let mut lines = Vec::new();
    for (name, d) in got {
        match old.get(name.as_str()) {
            Some(was) if was != d => {
                lines.push(format!("  changed  {name}: 0x{was:016x} → 0x{d:016x}"));
            }
            Some(_) => {}
            None => lines.push(format!("  added    {name}: (none) → 0x{d:016x}")),
        }
    }
    for (name, was) in pinned {
        if !new.contains_key(name.as_str()) {
            lines.push(format!("  removed  {name}: 0x{was:016x} → (none)"));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABEL: &str = "tests/pins/demo.pins";

    const FILE: &str = "[first]\n\
        a 0x0000000000000001\n\
        b 0x0000000000000002\n\
        c 0x0000000000000003\n\
        \n\
        [second]\n\
        z 0x00000000000000ff\n";

    fn pins(section: &'static str, rows: &[(&str, u64)]) -> Pins {
        let mut pins = Pins::new("demo", section);
        for &(name, d) in rows {
            pins.add(name, d);
        }
        pins
    }

    fn parse_err(text: &str) -> String {
        parse(LABEL, text).expect_err("malformed")
    }

    /// The replacement body a mismatch report prints.
    fn printed_body(report: &str) -> &str {
        let (_, tail) = report
            .split_once(&format!("--- {LABEL}\n"))
            .expect("body start");
        tail.strip_suffix("--- end\n").expect("body end")
    }

    #[test]
    fn matching_sections_pass() {
        let first = pins("first", &[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(first.compare(LABEL, FILE), Ok(()));
        assert_eq!(pins("second", &[("z", 255)]).compare(LABEL, FILE), Ok(()));
        assert_eq!(
            parse(LABEL, &render(&parse(LABEL, FILE).unwrap())),
            parse(LABEL, FILE)
        );
    }

    #[test]
    fn malformed_files_fail_with_file_and_line() {
        let bad_hex = parse_err("[s]\na 0x0000000000000001\nb 0x00000000000000zz\n");
        assert!(
            bad_hex.starts_with("tests/pins/demo.pins:3: bad digest"),
            "{bad_hex}"
        );
        let short = parse_err("[s]\na 0x1\n");
        assert!(
            short.starts_with("tests/pins/demo.pins:2: bad digest"),
            "{short}"
        );
        let missing = parse_err("[s]\n\na\n");
        assert!(
            missing.starts_with("tests/pins/demo.pins:3: missing digest after `a`"),
            "{missing}"
        );
        let dup = parse_err("[s]\na 0x0000000000000001\n[t]\na 0x0000000000000002\n");
        assert_eq!(
            dup,
            "tests/pins/demo.pins:4: duplicate name `a` (first on line 2)"
        );
        let dup_section = parse_err("[s]\n[s]\n");
        assert!(dup_section.starts_with("tests/pins/demo.pins:2: duplicate section"));
        let orphan = parse_err("a 0x0000000000000001\n");
        assert!(orphan.starts_with("tests/pins/demo.pins:1: row `a` comes before"));
        // `check` would panic with the parse error, not a mismatch report.
        assert_eq!(pins("s", &[]).compare(LABEL, "[s]\na 0x1\n"), Err(short));
    }

    #[test]
    fn mismatch_report_lists_every_differing_row() {
        // `a` changes, `b` is removed, `d` and `e` are added; `c` holds.
        let got = pins("first", &[("a", 9), ("c", 3), ("d", 4), ("e", 5)]);
        let report = got.compare(LABEL, FILE).expect_err("differs");
        assert!(report.starts_with("tests/pins/demo.pins [first] does not match its pins:\n"));
        for line in [
            "  changed  a: 0x0000000000000001 → 0x0000000000000009",
            "  added    d: (none) → 0x0000000000000004",
            "  added    e: (none) → 0x0000000000000005",
            "  removed  b: 0x0000000000000002 → (none)",
        ] {
            assert!(
                report.contains(&format!("{line}\n")),
                "{line} missing:\n{report}"
            );
        }
        assert!(!report.contains("  changed  c"), "{report}");

        let reordered = pins("first", &[("b", 2), ("a", 1), ("c", 3)]);
        let report = reordered.compare(LABEL, FILE).expect_err("order differs");
        assert!(report.contains("same rows, new order"), "{report}");
    }

    #[test]
    fn printed_body_parses_back_to_the_computed_rows() {
        let rows = [("a", 9), ("c", 3), ("d", 4)];
        let got = pins("first", &rows);
        let report = got.compare(LABEL, FILE).expect_err("differs");
        let body = printed_body(&report);
        let sections = parse(LABEL, body).expect("printed body parses");
        let first: Vec<Row> = rows.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        assert_eq!(
            sections,
            vec![
                ("first".to_string(), first),
                ("second".to_string(), vec![("z".to_string(), 255)]),
            ]
        );
        assert_eq!(got.compare(LABEL, body), Ok(()));

        // A section the file lacks is appended.
        let fresh = pins("third", &[("x", 7)]);
        let report = fresh.compare(LABEL, FILE).expect_err("new section");
        assert!(report.contains("  added    x: (none) → 0x0000000000000007\n"));
        assert_eq!(fresh.compare(LABEL, printed_body(&report)), Ok(()));
    }
}

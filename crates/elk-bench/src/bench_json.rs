//! `BENCH.json` consolidation: one machine-readable snapshot of every
//! experiment's headline numbers, written incrementally.
//!
//! The file has two top-level sections:
//!
//! * `experiments` — deterministic (simulated/derived) metrics from
//!   [`Ctx::metric`](crate::Ctx::metric). Re-running the suite on the
//!   same commit reproduces this section byte for byte, at any
//!   `--threads` count, so PR-to-PR diffs show performance drift only.
//! * `perf` — *measured* metrics from [`Ctx::perf`](crate::Ctx::perf)
//!   (events/sec, peak RSS). These are wall-clock-derived, vary run to
//!   run, and are excluded from every byte-identity check.
//!
//! [`update`] merges by experiment id, so `repro scale` can refresh its
//! own entry without clobbering a `repro all` snapshot (and vice versa).

use std::fs;
use std::path::{Path, PathBuf};

use serde::Value;

/// Upserts `entries` into the map section named `section` of `root`.
fn upsert(root: &mut Vec<(String, Value)>, section: &str, entries: Vec<(String, Value)>) {
    if entries.is_empty() {
        return;
    }
    let slot = match root.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => v,
        None => {
            root.push((section.to_string(), Value::Map(Vec::new())));
            &mut root.last_mut().expect("just pushed").1
        }
    };
    let Value::Map(existing) = slot else {
        *slot = Value::Map(Vec::new());
        return upsert(root, section, entries);
    };
    for (id, value) in entries {
        if let Some(e) = existing.iter_mut().find(|(k, _)| *k == id) {
            e.1 = value;
        } else {
            existing.push((id, value));
        }
    }
}

/// Merges experiment metric maps into `<dir>/BENCH.json` and returns
/// the file's path. Existing entries for other experiments are kept;
/// entries with the same id are replaced. A missing or unparseable
/// file starts fresh.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn update(
    dir: &Path,
    experiments: Vec<(String, Value)>,
    perf: Vec<(String, Value)>,
) -> PathBuf {
    let path = dir.join("BENCH.json");
    let mut root: Vec<(String, Value)> = fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .and_then(|v| match v {
            Value::Map(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    if !root.iter().any(|(k, _)| k == "experiments") {
        root.insert(0, ("experiments".to_string(), Value::Map(Vec::new())));
    }
    upsert(&mut root, "experiments", experiments);
    upsert(&mut root, "perf", perf);
    fs::create_dir_all(dir).expect("create results dir");
    let json = serde_json::to_string_pretty(&Value::Map(root)).expect("metrics serialize");
    fs::write(&path, json + "\n").expect("write BENCH.json");
    path
}

/// One experiment's metric list as a `Value::Map` entry for [`update`].
#[must_use]
pub fn entry(id: &str, metrics: &[(String, f64)]) -> (String, Value) {
    use serde::Serialize;
    (
        id.to_string(),
        Value::Map(
            metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_merges_instead_of_clobbering() {
        let dir = std::env::temp_dir().join(format!("elk-bench-json-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        // First writer: two experiments, no perf.
        update(
            &dir,
            vec![
                entry("fig05", &[("speedup".into(), 2.0)]),
                entry("scale", &[("requests".into(), 100.0)]),
            ],
            vec![],
        );
        // Second writer: refreshes `scale` only, adds perf.
        let path = update(
            &dir,
            vec![entry("scale", &[("requests".into(), 200.0)])],
            vec![entry("scale", &[("events_per_sec".into(), 5e6)])],
        );

        let parsed: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let experiments = parsed.get("experiments").expect("experiments section");
        assert_eq!(
            experiments.get("fig05").and_then(|m| m.get("speedup")),
            Some(&Value::F64(2.0)),
            "unrelated entries survive"
        );
        assert_eq!(
            experiments.get("scale").and_then(|m| m.get("requests")),
            Some(&Value::F64(200.0)),
            "same-id entries are replaced"
        );
        assert!(
            parsed
                .get("perf")
                .and_then(|m| m.get("scale"))
                .and_then(|m| m.get("events_per_sec"))
                .is_some(),
            "perf section lands"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_file_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("elk-bench-garbage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("BENCH.json"), "not json").unwrap();
        let path = update(&dir, vec![entry("x", &[("m".into(), 1.0)])], vec![]);
        let parsed: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert!(parsed.get("experiments").is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}

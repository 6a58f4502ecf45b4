//! Experiment context: output capture, result files, and shared fixtures.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use serde::Serialize;

use elk_hw::{presets, SystemConfig};
use elk_model::{zoo, ModelGraph, TransformerConfig, Workload};

/// Context threaded through every experiment: collects printed output,
/// writes `results/<id>.{txt,json}`, and carries the quick/full switch.
#[derive(Debug)]
pub struct Ctx {
    id: String,
    out: String,
    results_dir: PathBuf,
    /// `false` unless `ELK_FULL=1`: quick grids cover every series with
    /// fewer sweep points.
    pub full: bool,
    /// Worker threads for compiler-side parallel sections (catalog
    /// construction, order evaluation, serving cache fan-out). Defaults
    /// to `ELK_THREADS` if set and valid, else all available cores; the
    /// `repro` binary overrides it from `--threads`.
    /// Experiment outputs are byte-identical at any setting.
    pub threads: usize,
    /// Headline metrics recorded via [`Ctx::metric`], in insertion
    /// order. `repro` upserts them into `results/BENCH.json` so
    /// successive PRs can diff performance machine-readably.
    metrics: Vec<(String, f64)>,
    /// Measured (wall-clock-derived) metrics recorded via
    /// [`Ctx::perf`]: events/sec, peak RSS. Kept separate from
    /// [`Ctx::metric`] because they legitimately change run to run —
    /// consolidators put them under a distinct `perf` section that is
    /// excluded from byte-identity checks.
    perf: Vec<(String, f64)>,
}

impl Ctx {
    /// Creates a context for experiment `id`. Results go to `results/`
    /// (override with `ELK_RESULTS_DIR`); `ELK_FULL=1` enables the full
    /// parameter grids.
    ///
    /// # Panics
    ///
    /// Panics if `ELK_THREADS` is set to an invalid count (`0` or
    /// non-numeric) — the same values the `--threads` CLI flag rejects.
    #[must_use]
    pub fn new(id: &str) -> Self {
        let results_dir = std::env::var_os("ELK_RESULTS_DIR")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from);
        // One validation path for the knob: parse_threads with no CLI
        // args falls through to ELK_THREADS / available parallelism.
        let threads = match elk_par::parse_threads(std::iter::empty::<String>()) {
            Ok(parsed) => parsed.threads,
            Err(e) => panic!("{e}"),
        };
        Ctx {
            id: id.to_string(),
            out: String::new(),
            results_dir,
            full: std::env::var_os("ELK_FULL").is_some(),
            threads,
            metrics: Vec::new(),
            perf: Vec::new(),
        }
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the results directory (benches run with the package —
    /// not the workspace — as their working directory, so they pin the
    /// workspace `results/` explicitly).
    #[must_use]
    pub fn with_results_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.results_dir = dir.into();
        self
    }

    /// Records one headline metric (a simulated/derived quantity —
    /// never wall-clock, so consolidated files stay byte-identical
    /// run to run). Duplicate keys keep the last value.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key, value));
        }
    }

    /// The metrics recorded so far, in insertion order.
    #[must_use]
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// Records one *measured* metric — a wall-clock-derived quantity
    /// like events/sec or peak RSS. These go to `BENCH.json`'s `perf`
    /// section, which is documented as run-varying and excluded from
    /// the byte-identity contract the deterministic metrics obey.
    /// Duplicate keys keep the last value.
    pub fn perf(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        if let Some(slot) = self.perf.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.perf.push((key, value));
        }
    }

    /// The measured metrics recorded so far, in insertion order.
    #[must_use]
    pub fn perf_metrics(&self) -> &[(String, f64)] {
        &self.perf
    }

    /// The resolved results directory this context writes into — the
    /// single source of the `--out` / `ELK_RESULTS_DIR` policy, so
    /// `repro`'s `BENCH.json` lands next to the per-experiment files by
    /// construction.
    #[must_use]
    pub fn results_dir(&self) -> &std::path::Path {
        &self.results_dir
    }

    /// Prints a line to stdout and the captured transcript.
    pub fn line(&mut self, s: impl AsRef<str>) {
        println!("{}", s.as_ref());
        let _ = writeln!(self.out, "{}", s.as_ref());
    }

    /// Prints a header line.
    pub fn header(&mut self, title: &str) {
        let bar = "=".repeat(title.len());
        self.line(&bar);
        self.line(title);
        self.line(&bar);
    }

    /// Prints an aligned table: `widths[i]` columns, headers then rows.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        self.line(fmt_row(&head, &widths));
        self.line("-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in rows {
            self.line(fmt_row(row, &widths));
        }
    }

    /// Writes the captured transcript and a JSON payload to `results/`.
    ///
    /// # Panics
    ///
    /// Panics if the results directory cannot be created or written.
    pub fn finish<T: Serialize>(&self, payload: &T) {
        fs::create_dir_all(&self.results_dir).expect("create results dir");
        fs::write(self.results_dir.join(format!("{}.txt", self.id)), &self.out)
            .expect("write transcript");
        let json = serde_json::to_string_pretty(payload).expect("serialize results");
        fs::write(self.results_dir.join(format!("{}.json", self.id)), json).expect("write json");
    }
}

/// Peak resident-set size of this process in bytes (Linux `VmHWM`),
/// or `None` where the kernel does not expose it. Used by the scale
/// bench's `perf` metrics; never part of a deterministic payload.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extracts `--out DIR` (or `--out=DIR`) from an argument stream,
/// returning the directory and the remaining arguments in order — the
/// output-path counterpart of [`elk_par::parse_threads`], so the
/// `repro` binary hardcodes no `results/`.
///
/// # Errors
///
/// Returns a human-readable message when the flag is given without a
/// value.
pub fn parse_out(
    args: impl IntoIterator<Item = String>,
) -> Result<(Option<PathBuf>, Vec<String>), String> {
    let (values, rest) = elk_par::extract_flag("--out", args)
        .map_err(|_| "--out requires a directory; omit it to write to results/".to_string())?;
    Ok((values.last().map(PathBuf::from), rest))
}

/// The paper's default platform: IPU-POD4 + 16 TB/s pod HBM (§6.1).
#[must_use]
pub fn default_system() -> SystemConfig {
    presets::ipu_pod4()
}

/// The four evaluation LLMs of Table 2 (in paper order).
#[must_use]
pub fn llms() -> Vec<TransformerConfig> {
    vec![
        zoo::llama2_13b(),
        zoo::gemma2_27b(),
        zoo::opt_30b(),
        zoo::llama2_70b(),
    ]
}

/// The paper's default serving workload (batch 32, sequence 2048).
#[must_use]
pub fn default_workload() -> Workload {
    Workload::decode(32, 2048)
}

/// Builds an LLM graph for the 4-chip tensor-parallel pod.
#[must_use]
pub fn build_llm(cfg: &TransformerConfig, wl: Workload) -> ModelGraph {
    cfg.build(wl, 4)
}

/// Milliseconds with 3 decimals, for table cells.
#[must_use]
pub fn ms(t: elk_units::Seconds) -> String {
    format!("{:.3}", t.as_millis())
}

/// A fraction as a percentage cell.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_does_not_panic() {
        let mut ctx = Ctx::new("selftest");
        ctx.table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(ctx.out.contains("333"));
    }

    #[test]
    fn fixtures_cover_paper_models() {
        assert_eq!(llms().len(), 4);
        assert_eq!(default_workload().batch, 32);
    }

    #[test]
    fn parse_out_extracts_the_flag_in_any_position() {
        for args in [
            &["--out", "tmp", "pos"][..],
            &["pos", "--out", "tmp"],
            &["pos", "--out=tmp"],
        ] {
            let (out, rest) = parse_out(args.iter().map(ToString::to_string)).unwrap();
            assert_eq!(out, Some(PathBuf::from("tmp")));
            assert_eq!(rest, vec!["pos".to_string()]);
        }
        let (out, rest) = parse_out(["pos".to_string()]).unwrap();
        assert_eq!(out, None);
        assert_eq!(rest, vec!["pos".to_string()]);
        assert!(parse_out(["--out".to_string()])
            .unwrap_err()
            .contains("directory"));
    }

    #[test]
    fn ctx_writes_into_the_overridden_results_dir() {
        let dir = std::env::temp_dir().join(format!("elk-bench-out-{}", std::process::id()));
        let ctx = Ctx::new("outtest").with_results_dir(&dir);
        ctx.finish(&42u64);
        let json = fs::read_to_string(dir.join("outtest.json")).expect("json in --out dir");
        assert_eq!(json.trim(), "42");
        let _ = fs::remove_dir_all(&dir);
    }
}

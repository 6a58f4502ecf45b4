//! The versioned JSON-lines trace format: strict parser and
//! deterministic writer.

use std::fmt;

use serde::Value;

use elk_serve::{Request, RequestTrace, MAX_OUTPUT_TOKENS, MAX_TOKENS};
use elk_units::Seconds;

/// Value of the header's `format` key.
pub const FORMAT_NAME: &str = "elk-trace";

/// Format version this crate reads and writes.
pub const FORMAT_VERSION: u64 = 1;

/// A malformed trace file. The message names the offending record
/// index (0-based, counting data lines only) wherever one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    msg: String,
}

impl TraceError {
    fn new(msg: impl Into<String>) -> Self {
        TraceError { msg: msg.into() }
    }

    fn at(idx: usize, msg: impl fmt::Display) -> Self {
        TraceError::new(format!("record {idx}: {msg}"))
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for TraceError {}

/// One request record: when it arrives and how much work it asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Arrival time in seconds since trace start (non-negative,
    /// finite, non-decreasing across the file).
    pub arrival_s: f64,
    /// Prompt (prefill) length in tokens, in `1..=MAX_TOKENS`.
    pub prompt_len: u64,
    /// Tokens to generate, in `1..=MAX_TOKENS`.
    pub output_len: u64,
    /// Optional tenant id for multi-tenant traces (non-empty when
    /// present). Carried through generation and parsing; the serving
    /// engines currently treat all tenants alike.
    pub tenant: Option<String>,
}

/// A parsed (or generated) trace file: the version header plus its
/// records in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Records sorted by `arrival_s` (ties keep file order).
    pub records: Vec<TraceRecord>,
}

impl TraceFile {
    /// Serializes to JSON-lines text: one header line, one line per
    /// record, trailing newline. Byte-deterministic — field order is
    /// fixed and floats use the shortest round-tripping form, so
    /// `parse(to_jsonl())` reproduces the exact same bytes again.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Map(vec![
            ("format".to_string(), Value::Str(FORMAT_NAME.to_string())),
            ("version".to_string(), Value::U64(FORMAT_VERSION)),
        ]);
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for r in &self.records {
            let mut entries = vec![
                ("arrival_s".to_string(), Value::F64(r.arrival_s)),
                ("prompt_len".to_string(), Value::U64(r.prompt_len)),
                ("output_len".to_string(), Value::U64(r.output_len)),
            ];
            if let Some(t) = &r.tenant {
                entries.push(("tenant".to_string(), Value::Str(t.clone())));
            }
            let line = serde_json::to_string(&Value::Map(entries)).expect("record serializes");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses JSON-lines text, validating every record strictly.
    ///
    /// # Errors
    ///
    /// Errors on a missing or unsupported header, malformed JSON,
    /// unknown or duplicate keys, lengths outside `1..=MAX_TOKENS`, negative or
    /// non-finite arrival times, out-of-order timestamps, and output
    /// lengths summing past [`MAX_OUTPUT_TOKENS`] — each naming the
    /// offending record index.
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| TraceError::new("empty trace file: missing header line"))?;
        parse_header(header)?;
        let mut records = Vec::new();
        let mut output_tokens = 0;
        for (idx, line) in lines.enumerate() {
            let v: Value = serde_json::from_str(line)
                .map_err(|e| TraceError::at(idx, format!("malformed JSON: {e}")))?;
            let rec = parse_record(idx, &v)?;
            if let Some(prev) = records.last().map(|r: &TraceRecord| r.arrival_s) {
                if rec.arrival_s < prev {
                    return Err(TraceError::at(
                        idx,
                        format!(
                            "arrival_s {} precedes record {}'s {} — records must be time-sorted",
                            rec.arrival_s,
                            idx - 1,
                            prev
                        ),
                    ));
                }
            }
            output_tokens += rec.output_len;
            if output_tokens > MAX_OUTPUT_TOKENS {
                return Err(TraceError::at(
                    idx,
                    format!(
                        "output_len: the records so far ask for {output_tokens} output tokens, \
                         past the limit of {MAX_OUTPUT_TOKENS}"
                    ),
                ));
            }
            records.push(rec);
        }
        Ok(TraceFile { records })
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct tenant ids present, in first-appearance order.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.records {
            if let Some(t) = &r.tenant {
                if !seen.iter().any(|s| s == t) {
                    seen.push(t.clone());
                }
            }
        }
        seen
    }

    /// Total prompt tokens across all records.
    #[must_use]
    pub fn total_prompt_tokens(&self) -> u64 {
        self.records.iter().map(|r| r.prompt_len).sum()
    }

    /// Total output tokens across all records.
    #[must_use]
    pub fn total_output_tokens(&self) -> u64 {
        self.records.iter().map(|r| r.output_len).sum()
    }

    /// Arrival time of the last record (`0.0` for an empty trace).
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.arrival_s)
    }

    /// Tenant id for each record, in record order (`"default"` where a
    /// record carries none). Because [`to_request_trace`] assigns
    /// request ids in record order and records are time-sorted, this
    /// vector is indexable by request id — it is the side channel the
    /// tenancy-aware engines consume alongside the [`RequestTrace`].
    ///
    /// [`to_request_trace`]: Self::to_request_trace
    #[must_use]
    pub fn tenant_assignments(&self) -> Vec<String> {
        self.records
            .iter()
            .map(|r| r.tenant.clone().unwrap_or_else(|| "default".to_string()))
            .collect()
    }

    /// Converts to the serving engines' input type. Ids are assigned
    /// in record order; tenant ids travel out of band via
    /// [`tenant_assignments`](Self::tenant_assignments), indexed by
    /// request id.
    #[must_use]
    pub fn to_request_trace(&self) -> RequestTrace {
        RequestTrace::from_requests(
            self.records
                .iter()
                .enumerate()
                .map(|(id, r)| Request {
                    id: id as u64,
                    arrival: Seconds::new(r.arrival_s),
                    prompt_len: r.prompt_len,
                    output_len: r.output_len,
                })
                .collect(),
        )
    }
}

/// Field names a record line may carry, alphabetical — quoted by
/// unknown-key errors.
const RECORD_KEYS: [&str; 4] = ["arrival_s", "output_len", "prompt_len", "tenant"];

fn parse_header(line: &str) -> Result<(), TraceError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| TraceError::new(format!("malformed header line: {e}")))?;
    let Value::Map(entries) = &v else {
        return Err(TraceError::new(format!(
            "header must be a JSON object, got {}",
            v.kind()
        )));
    };
    for (key, _) in entries {
        if key != "format" && key != "version" {
            return Err(TraceError::new(format!(
                "unknown header key {key:?} (valid keys: format, version)"
            )));
        }
    }
    match v.get("format") {
        Some(Value::Str(s)) if s == FORMAT_NAME => {}
        Some(other) => {
            return Err(TraceError::new(format!(
                "header format must be {FORMAT_NAME:?}, got {other:?}"
            )))
        }
        None => return Err(TraceError::new("header is missing the \"format\" key")),
    }
    match v.get("version") {
        Some(Value::U64(n)) if *n == FORMAT_VERSION => Ok(()),
        Some(Value::U64(n)) => Err(TraceError::new(format!(
            "unsupported trace version {n} (this build reads version {FORMAT_VERSION})"
        ))),
        Some(other) => Err(TraceError::new(format!(
            "header version must be an integer, got {}",
            other.kind()
        ))),
        None => Err(TraceError::new("header is missing the \"version\" key")),
    }
}

fn parse_record(idx: usize, v: &Value) -> Result<TraceRecord, TraceError> {
    let Value::Map(entries) = v else {
        return Err(TraceError::at(
            idx,
            format!("record must be a JSON object, got {}", v.kind()),
        ));
    };
    for (i, (key, _)) in entries.iter().enumerate() {
        if !RECORD_KEYS.contains(&key.as_str()) {
            return Err(TraceError::at(
                idx,
                format!(
                    "unknown key {key:?} (valid keys: {})",
                    RECORD_KEYS.join(", ")
                ),
            ));
        }
        if entries[..i].iter().any(|(k, _)| k == key) {
            return Err(TraceError::at(idx, format!("duplicate key {key:?}")));
        }
    }
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| TraceError::at(idx, format!("missing required key {key:?}")))
    };
    let arrival_s = match field("arrival_s")? {
        Value::F64(x) if x.is_finite() && *x >= 0.0 => *x,
        Value::U64(n) => *n as f64,
        other => {
            return Err(TraceError::at(
                idx,
                format!("arrival_s must be a finite non-negative number, got {other:?}"),
            ))
        }
    };
    let length = |key: &str| match field(key)? {
        Value::U64(n) if *n > MAX_TOKENS => Err(TraceError::at(
            idx,
            format!("{key} {n} passes the limit of {MAX_TOKENS} tokens"),
        )),
        Value::U64(n) if *n >= 1 => Ok(*n),
        other => Err(TraceError::at(
            idx,
            format!("{key} must be a positive integer, got {other:?}"),
        )),
    };
    let prompt_len = length("prompt_len")?;
    let output_len = length("output_len")?;
    let tenant = match v.get("tenant") {
        None => None,
        Some(Value::Str(s)) if !s.is_empty() => Some(s.clone()),
        Some(other) => {
            return Err(TraceError::at(
                idx,
                format!("tenant must be a non-empty string, got {other:?}"),
            ))
        }
    };
    Ok(TraceRecord {
        arrival_s,
        prompt_len,
        output_len,
        tenant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival_s: f64, prompt_len: u64, output_len: u64) -> TraceRecord {
        TraceRecord {
            arrival_s,
            prompt_len,
            output_len,
            tenant: None,
        }
    }

    fn small() -> TraceFile {
        TraceFile {
            records: vec![
                rec(0.0, 128, 8),
                rec(0.25, 512, 4),
                TraceRecord {
                    tenant: Some("t1".to_string()),
                    ..rec(0.25, 64, 2)
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let text = small().to_jsonl();
        let back = TraceFile::parse(&text).expect("parses");
        assert_eq!(back, small());
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn header_is_versioned_and_strict() {
        let err = TraceFile::parse("").unwrap_err();
        assert!(err.to_string().contains("missing header"), "{err}");
        let err = TraceFile::parse("{\"format\":\"elk-trace\",\"version\":2}\n").unwrap_err();
        assert!(
            err.to_string().contains("unsupported trace version 2"),
            "{err}"
        );
        let err = TraceFile::parse("{\"format\":\"csv\",\"version\":1}\n").unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
        let err =
            TraceFile::parse("{\"format\":\"elk-trace\",\"version\":1,\"compressed\":true}\n")
                .unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown header key \"compressed\""),
            "{err}"
        );
    }

    #[test]
    fn errors_name_the_offending_record() {
        let head = "{\"format\":\"elk-trace\",\"version\":1}\n";
        let ok = "{\"arrival_s\":0.0,\"prompt_len\":8,\"output_len\":2}\n";

        let bad = format!("{head}{ok}{{\"arrival_s\":0.1,\"prompt_len\":-4,\"output_len\":2}}\n");
        let err = TraceFile::parse(&bad).unwrap_err().to_string();
        assert!(err.starts_with("record 1:"), "{err}");
        assert!(
            err.contains("prompt_len must be a positive integer"),
            "{err}"
        );

        let bad = format!(
            "{head}{ok}{{\"arrival_s\":0.1,\"prompt_len\":8,\"output_len\":2,\"user\":3}}\n"
        );
        let err = TraceFile::parse(&bad).unwrap_err().to_string();
        assert!(err.contains("record 1: unknown key \"user\""), "{err}");
        assert!(
            err.contains("arrival_s, output_len, prompt_len, tenant"),
            "{err}"
        );

        let bad = format!(
            "{head}{ok}{{\"arrival_s\":0.2,\"prompt_len\":8,\"prompt_len\":9,\"output_len\":2}}\n"
        );
        let err = TraceFile::parse(&bad).unwrap_err().to_string();
        assert!(
            err.contains("record 1: duplicate key \"prompt_len\""),
            "{err}"
        );

        let bad = format!(
            "{head}{{\"arrival_s\":0.5,\"prompt_len\":8,\"output_len\":2}}\n{{\"arrival_s\":0.25,\"prompt_len\":8,\"output_len\":2}}\n"
        );
        let err = TraceFile::parse(&bad).unwrap_err().to_string();
        assert!(err.starts_with("record 1:"), "{err}");
        assert!(err.contains("time-sorted"), "{err}");

        let bad = format!("{head}{ok}not json\n");
        let err = TraceFile::parse(&bad).unwrap_err().to_string();
        assert!(err.starts_with("record 1: malformed JSON"), "{err}");
    }

    #[test]
    fn zero_lengths_and_bad_times_rejected() {
        let head = "{\"format\":\"elk-trace\",\"version\":1}\n";
        for (line, want) in [
            (
                "{\"arrival_s\":0.0,\"prompt_len\":0,\"output_len\":2}",
                "prompt_len must be a positive integer",
            ),
            (
                "{\"arrival_s\":0.0,\"prompt_len\":4,\"output_len\":0}",
                "output_len must be a positive integer",
            ),
            (
                "{\"arrival_s\":0.0,\"prompt_len\":18446744073709551615,\"output_len\":2}",
                "prompt_len 18446744073709551615 passes the limit of 4294967295 tokens",
            ),
            (
                "{\"arrival_s\":0.0,\"prompt_len\":4,\"output_len\":4294967296}",
                "output_len 4294967296 passes the limit",
            ),
            (
                "{\"arrival_s\":0.0,\"prompt_len\":4,\"output_len\":4294967295}",
                "the records so far ask for 4294967295 output tokens, past the limit",
            ),
            (
                "{\"arrival_s\":-0.5,\"prompt_len\":4,\"output_len\":2}",
                "arrival_s must be a finite non-negative number",
            ),
            (
                "{\"arrival_s\":\"NaN\",\"prompt_len\":4,\"output_len\":2}",
                "arrival_s must be a finite non-negative number",
            ),
            (
                "{\"prompt_len\":4,\"output_len\":2}",
                "missing required key \"arrival_s\"",
            ),
            (
                "{\"arrival_s\":0.0,\"prompt_len\":4,\"output_len\":2,\"tenant\":\"\"}",
                "tenant must be a non-empty string",
            ),
        ] {
            let err = TraceFile::parse(&format!("{head}{line}\n"))
                .unwrap_err()
                .to_string();
            assert!(err.contains("record 0"), "{line} -> {err}");
            assert!(err.contains(want), "{line} -> {err}");
        }
    }

    #[test]
    fn converts_to_request_trace_in_record_order() {
        let t = small().to_request_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.requests[0].id, 0);
        assert_eq!(t.requests[1].arrival, Seconds::new(0.25));
        assert_eq!(t.requests[2].prompt_len, 64);
        assert_eq!(small().total_prompt_tokens(), 128 + 512 + 64);
        assert_eq!(small().total_output_tokens(), 14);
        assert_eq!(small().tenants(), vec!["t1".to_string()]);
        assert!((small().duration_s() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tenant_assignments_align_with_request_ids() {
        let t = small();
        assert_eq!(
            t.tenant_assignments(),
            vec![
                "default".to_string(),
                "default".to_string(),
                "t1".to_string()
            ]
        );
        // Request ids are record indices, so the vector indexes by id
        // even for ties in arrival time (from_requests sorts stably by
        // (arrival, id)).
        let rt = t.to_request_trace();
        for (i, r) in rt.requests.iter().enumerate() {
            assert_eq!(r.id as usize, i);
        }
    }

    #[test]
    fn integer_arrival_times_accepted() {
        let text = "{\"format\":\"elk-trace\",\"version\":1}\n{\"arrival_s\":3,\"prompt_len\":4,\"output_len\":2}\n";
        let t = TraceFile::parse(text).expect("integer arrival parses");
        assert!((t.records[0].arrival_s - 3.0).abs() < 1e-12);
    }
}

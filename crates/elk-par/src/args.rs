//! Uniform `--threads` CLI parsing for the examples and binaries.

use crate::resolve_threads;

/// Result of [`parse_threads`]: the resolved worker count plus every
/// argument that was not part of a `--threads` flag, in original order
/// (so positional arguments keep their positions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedThreads {
    /// Worker count: the `--threads` value, else the `ELK_THREADS`
    /// environment variable, else the machine's available parallelism.
    pub threads: usize,
    /// The remaining (non-`--threads`) arguments.
    pub rest: Vec<String>,
}

/// Extracts `--threads N` (or `--threads=N`) from an argument stream.
///
/// The flag may appear anywhere among positional arguments. When absent,
/// the `ELK_THREADS` environment variable is consulted, and failing
/// that the default is [`std::thread::available_parallelism`]. A count
/// of `0` or a non-integer is rejected with an actionable message (the
/// examples and bench bins print it and exit 2, mirroring their
/// model-name handling).
///
/// # Errors
///
/// Returns a human-readable message when the value is missing,
/// non-numeric, or zero.
///
/// # Examples
///
/// ```
/// let p = elk_par::parse_threads(
///     ["llama13", "--threads", "4", "2048"].map(String::from),
/// )
/// .unwrap();
/// assert_eq!(p.threads, 4);
/// assert_eq!(p.rest, vec!["llama13".to_string(), "2048".to_string()]);
///
/// let err = elk_par::parse_threads(["--threads", "0"].map(String::from));
/// assert!(err.unwrap_err().contains("positive"));
/// ```
pub fn parse_threads(args: impl IntoIterator<Item = String>) -> Result<ParsedThreads, String> {
    let (values, rest) =
        extract_flag("--threads", args).map_err(|_| missing_value("--threads requires a value"))?;
    // Validate every occurrence (a bad value is a bad value even when a
    // later flag overrides it); the last one wins.
    let mut threads = None;
    for value in &values {
        threads = Some(validate_threads(value)?);
    }
    let threads = match threads {
        Some(t) => t,
        None => match std::env::var("ELK_THREADS") {
            Ok(v) => validate_threads(&v).map_err(|e| format!("ELK_THREADS: {e}"))?,
            Err(_) => resolve_threads(0),
        },
    };
    Ok(ParsedThreads { threads, rest })
}

/// Extracts `<flag> VALUE` (or `<flag>=VALUE`) from an argument
/// stream, returning every occurrence's value in order (callers
/// typically let the last win, after validating all) and every other
/// argument in original order. The single token walk behind every flag
/// the workspace's binaries accept ([`parse_threads`], `elk-bench`'s
/// `--out`, the `elk` CLI), so the `--flag=` edge cases cannot drift
/// between them.
///
/// # Errors
///
/// Returns `"<flag> requires a value"` when the flag is last with no
/// value token, or given an empty `<flag>=`.
///
/// # Examples
///
/// ```
/// let (v, rest) =
///     elk_par::extract_flag("--out", ["a", "--out", "dir", "b"].map(String::from)).unwrap();
/// assert_eq!(v, vec!["dir".to_string()]);
/// assert_eq!(rest, vec!["a".to_string(), "b".to_string()]);
/// assert!(elk_par::extract_flag("--out", ["--out=".to_string()]).is_err());
/// ```
pub fn extract_flag(
    flag: &str,
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<String>, Vec<String>), String> {
    let prefix = format!("{flag}=");
    let mut rest = Vec::new();
    let mut values = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let v = if arg == flag {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))?
        } else if let Some(v) = arg.strip_prefix(&prefix) {
            v.to_string()
        } else {
            rest.push(arg);
            continue;
        };
        if v.is_empty() {
            return Err(format!("{flag} requires a value"));
        }
        values.push(v);
    }
    Ok((values, rest))
}

/// Validates a `--threads` value: a positive integer, with the same
/// actionable message everywhere the flag exists ([`parse_threads`],
/// `ELK_THREADS`, the `elk` CLI).
///
/// # Errors
///
/// Returns a human-readable message for `0` or a non-integer.
pub fn validate_threads(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err(missing_value(
            "invalid thread count '0': must be a positive integer",
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(missing_value(&format!(
            "invalid thread count '{value}': expected a positive integer"
        ))),
    }
}

fn missing_value(what: &str) -> String {
    format!(
        "{what}; omit --threads to use all available cores ({})",
        resolve_threads(0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedThreads, String> {
        parse_threads(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_flag_in_any_position() {
        for args in [
            &["--threads", "3", "llama13"][..],
            &["llama13", "--threads", "3"],
            &["llama13", "--threads=3"],
        ] {
            let p = parse(args).unwrap();
            assert_eq!(p.threads, 3);
            assert_eq!(p.rest, vec!["llama13".to_string()]);
        }
    }

    #[test]
    fn rejects_zero_and_garbage() {
        assert!(parse(&["--threads", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--threads=x"]).unwrap_err().contains("'x'"));
        assert!(parse(&["--threads"]).unwrap_err().contains("value"));
    }

    #[test]
    fn defaults_to_available_parallelism() {
        // The test environment may set ELK_THREADS; both branches are
        // deterministic, so just assert the invariant.
        let p = parse(&["positional"]).unwrap();
        assert!(p.threads >= 1);
        assert_eq!(p.rest, vec!["positional".to_string()]);
    }

    #[test]
    fn last_flag_wins_but_every_occurrence_is_validated() {
        let p = parse(&["--threads", "2", "--threads", "5"]).unwrap();
        assert_eq!(p.threads, 5);
        assert!(p.rest.is_empty());
        // An invalid earlier value is still an error even though a
        // later flag would override it.
        assert!(parse(&["--threads", "0", "--threads", "4"])
            .unwrap_err()
            .contains("positive"));
    }
}

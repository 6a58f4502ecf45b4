//! [`MapReader`]: the one strict reader of JSON objects, shared by the
//! derive-generated `Deserialize` impls and hand-written ones.

use crate::{Deserialize, Error, Value};

/// Cursor over one JSON object: typed field access with defaults, plus
/// duplicate- and unknown-key rejection.
///
/// - A duplicate key is always an error: different readers could
///   otherwise disagree on which occurrence wins.
/// - JSON `null` reads as an absent key.
/// - A field's error is wrapped as `"{ty}.{key}: {e}"`, so nested
///   failures carry their dotted context.
/// - A [`strict`](Self::strict) reader rejects keys outside `fields`
///   up front, listing the valid ones; [`finish`](Self::finish)
///   rejects declared keys no read consumed (for readers that pick one
///   of several key sets).
///
/// ```
/// use serde::{MapReader, Value};
///
/// let v = Value::Map(vec![("a".into(), Value::U64(3)), ("b".into(), Value::Null)]);
/// let mut r = MapReader::strict("T", &["a", "b"], &v).unwrap();
/// assert_eq!(r.req::<u64>("a").unwrap(), 3);
/// assert_eq!(r.opt::<u64>("b").unwrap(), None);
/// r.finish().unwrap();
///
/// let typo = Value::Map(vec![("c".into(), Value::U64(1))]);
/// let e = MapReader::strict("T", &["a", "b"], &typo).unwrap_err();
/// assert_eq!(e.to_string(), "T: unknown field(s) `c`; valid keys: a, b");
/// ```
#[derive(Debug)]
pub struct MapReader<'a> {
    ty: &'static str,
    entries: &'a [(String, Value)],
    taken: Vec<bool>,
}

impl<'a> MapReader<'a> {
    /// Wraps `v`, which must be a JSON object without duplicate keys.
    /// Keys no read asks for are ignored unless [`finish`](Self::finish)
    /// is called.
    ///
    /// # Errors
    /// Errors when `v` is not an object or repeats a key.
    pub fn new(ty: &'static str, v: &'a Value) -> Result<Self, Error> {
        let Value::Map(entries) = v else {
            return Err(Error::msg(format!(
                "{ty}: expected a JSON object, found {}",
                v.kind()
            )));
        };
        for (i, (k, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(prev, _)| prev == k) {
                return Err(Error::msg(format!("{ty}: duplicate key `{k}`")));
            }
        }
        Ok(MapReader {
            ty,
            entries,
            taken: vec![false; entries.len()],
        })
    }

    /// Like [`new`](Self::new), but any key outside `fields` is an
    /// error that lists `fields` — the typo guard.
    ///
    /// # Errors
    /// Errors when `v` is not an object, repeats a key, or has a key
    /// outside `fields`.
    pub fn strict(ty: &'static str, fields: &[&str], v: &'a Value) -> Result<Self, Error> {
        let r = Self::new(ty, v)?;
        let unknown: Vec<&str> = r
            .entries
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !fields.contains(k))
            .collect();
        if unknown.is_empty() {
            Ok(r)
        } else {
            Err(Error::msg(format!(
                "{ty}: unknown field(s) `{}`; valid keys: {}",
                unknown.join("`, `"),
                fields.join(", ")
            )))
        }
    }

    /// Marks `key` consumed and returns its value.
    pub fn raw(&mut self, key: &str) -> Option<&'a Value> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        self.taken[pos] = true;
        Some(&self.entries[pos].1)
    }

    /// `true` if the object has `key` (without consuming it).
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Reads `key` through `de`: `None` when absent or `null`.
    ///
    /// # Errors
    /// Returns `de`'s error, wrapped as `"{ty}.{key}: {e}"`.
    pub fn read<T>(
        &mut self,
        key: &str,
        de: impl FnOnce(&'a Value) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        let ty = self.ty;
        match self.raw(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => de(v)
                .map(Some)
                .map_err(|e| Error::msg(format!("{ty}.{key}: {e}"))),
        }
    }

    /// Reads an optional field (`None` when absent or `null`).
    ///
    /// # Errors
    /// Errors when the value does not deserialize as `T`.
    pub fn opt<T: Deserialize>(&mut self, key: &str) -> Result<Option<T>, Error> {
        self.read(key, T::from_value)
    }

    /// Reads a required field through `de`.
    ///
    /// # Errors
    /// Errors when the key is absent (or `null`) or `de` fails.
    pub fn req_with<T>(
        &mut self,
        key: &str,
        de: impl FnOnce(&'a Value) -> Result<T, Error>,
    ) -> Result<T, Error> {
        self.read(key, de)?.ok_or_else(|| self.missing(key))
    }

    /// Reads a required field; an absent `Option` field reads as
    /// `None` (see [`Deserialize::absent`]).
    ///
    /// # Errors
    /// Errors when a non-`Option` key is absent (or `null`) or the
    /// value does not deserialize as `T`.
    pub fn req<T: Deserialize>(&mut self, key: &str) -> Result<T, Error> {
        match self.opt(key)? {
            Some(v) => Ok(v),
            None => T::absent().ok_or_else(|| self.missing(key)),
        }
    }

    fn missing(&self, key: &str) -> Error {
        Error::msg(format!("{}: missing required field `{key}`", self.ty))
    }

    /// Rejects any key no read consumed: a declared key that does not
    /// belong with the ones that were read.
    ///
    /// # Errors
    /// Errors when some key was never read.
    pub fn finish(self) -> Result<(), Error> {
        let unread: Vec<&str> = self
            .entries
            .iter()
            .zip(&self.taken)
            .filter(|(_, &taken)| !taken)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unread.is_empty() {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "{}: field(s) `{}` cannot be combined with the other keys given",
                self.ty,
                unread.join("`, `")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(entries: &[(&str, Value)]) -> Value {
        Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn defaults_and_required_fields() {
        let v = obj(&[("a", Value::U64(3))]);
        let mut r = MapReader::strict("T", &["a", "b"], &v).unwrap();
        assert_eq!(r.req::<u64>("a").unwrap(), 3);
        assert_eq!(r.opt::<u64>("b").unwrap().unwrap_or(7), 7);
        assert_eq!(
            r.req::<Option<u64>>("b").unwrap(),
            None,
            "absent Option is None"
        );
        r.finish().unwrap();
    }

    #[test]
    fn missing_required_field_names_the_type() {
        let v = obj(&[]);
        let mut r = MapReader::strict("T", &["a"], &v).unwrap();
        let e = r.req::<u64>("a").unwrap_err().to_string();
        assert_eq!(e, "T: missing required field `a`");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let v = obj(&[("a", Value::U64(1)), ("tpyo", Value::U64(2))]);
        let e = MapReader::strict("T", &["a", "b"], &v)
            .unwrap_err()
            .to_string();
        assert_eq!(e, "T: unknown field(s) `tpyo`; valid keys: a, b");
        // A lenient reader ignores them.
        let mut r = MapReader::new("T", &v).unwrap();
        assert_eq!(r.req::<u64>("a").unwrap(), 1);
    }

    #[test]
    fn null_reads_as_absent() {
        let v = obj(&[("a", Value::Null)]);
        let mut r = MapReader::strict("T", &["a"], &v).unwrap();
        assert_eq!(r.opt::<u64>("a").unwrap(), None);
        let e = r.req::<u64>("a").unwrap_err().to_string();
        assert!(e.contains("missing required field `a`"), "{e}");
        r.finish().unwrap();
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let v = obj(&[("a", Value::U64(1)), ("a", Value::U64(2))]);
        let e = MapReader::new("T", &v).unwrap_err().to_string();
        assert!(e.contains("duplicate key `a`"), "{e}");
    }

    #[test]
    fn nested_errors_carry_the_dotted_context() {
        let v = obj(&[("a", Value::Str("x".into()))]);
        let mut r = MapReader::new("T", &v).unwrap();
        let e = r.req::<u64>("a").unwrap_err().to_string();
        assert_eq!(e, "T.a: expected unsigned integer, found string");
    }

    #[test]
    fn finish_rejects_declared_keys_left_unread() {
        let v = obj(&[("a", Value::U64(1)), ("b", Value::U64(2))]);
        let mut r = MapReader::strict("T", &["a", "b"], &v).unwrap();
        let _ = r.req::<u64>("a").unwrap();
        let e = r.finish().unwrap_err().to_string();
        assert!(e.contains("`b` cannot be combined"), "{e}");
    }
}
